"""Ground-normal estimation: adaptive-neighborhood PCA and the map pipeline.

A synthetic lidar samples the terrain with noise; normals are estimated per
map cell by PCA over the k nearest neighbors, with k chosen per cell by
minimizing the eigenvalue entropy; the controller reads the map at a
lookahead point and smooths the result with a first-order filter.
"""

import random

import numpy as np

from wbcsim.scenario import SensorConfig
from wbcsim.simulator import gaussians, synth_pointcloud, uniforms
from wbcsim.terrain import SlopeTerrain
from wbcsim.terrain_estimation import (
    NormalFilter,
    NormalMap,
    PointCloud,
    estimate_normal,
    incline_angle,
    query_normal,
)


def main():
    rng = random.Random(0)          # the lidar's generator

    # a noisy 25-degree plane: PCA with an entropy-selected neighborhood
    ang = np.radians(25.0)
    n_true = np.array([np.sin(ang), 0.0, np.cos(ang)])
    t1 = np.array([np.cos(ang), 0.0, -np.sin(ang)])
    c = 2.0 * uniforms(rng, 600).reshape(300, 2) - 1.0
    pts = c[:, :1] * t1 + c[:, 1:] * [[0.0, 1.0, 0.0]]
    cloud = PointCloud(points=pts + 0.01 * gaussians(rng, pts.size).reshape(pts.shape))
    n, k = estimate_normal(cloud, np.zeros(3), 10, 60)
    err = np.degrees(np.arccos(np.clip(n @ n_true, -1, 1)))
    print(f"noisy 25 deg plane: adaptive k = {k}, normal error {err:.3f} deg")

    # map pipeline over a ramp
    terrain = SlopeTerrain(angle_deg=15.0, start=0.5, blend=0.5)
    nmap = NormalMap(k_min=30, k_max=200)
    sensor = SensorConfig(radius=2.0, points=5000, noise=0.05)
    recorded = sum(nmap.update(synth_pointcloud(terrain, (cx, 0.0), sensor, rng))
                   for cx in np.arange(-1.0, 4.0, 0.5))

    print("incline angle along the ramp (map cell vs true):")
    for x in (0.0, 0.75, 1.5, 2.5, 3.5):
        n_hat = nmap.lookup(x, 0.0)
        true = incline_angle(terrain.normal(x, 0.0))
        print(f"  x = {x:4.2f}: {incline_angle(n_hat):5.2f} deg "
              f"(true {true:5.2f})")
    # the map estimates a cell only when a lookup reads it
    print(f"map: {recorded} cells recorded, {len(nmap.cells)} estimated by the "
          f"lookups, {nmap.skipped_degenerate} degenerate cells skipped")

    # the controller reads the map through a lookahead query plus a low-pass
    # filter, smoothing cell-to-cell jumps as the robot advances
    filt = NormalFilter()
    heading = np.array([1.0, 0.0, 0.0])
    angles = [incline_angle(query_normal(nmap, np.array([x, 0.0]),
                                         heading, 0.3, filt))
              for x in np.arange(0.8, 3.6, 0.02)]
    print(f"filtered lookahead query while advancing 0.8 -> 3.6 m: "
          f"final {angles[-1]:.2f} deg, spread "
          f"{np.max(angles[-50:]) - np.min(angles[-50:]):.2f} deg over the "
          f"last metre (true 15.00)")


if __name__ == "__main__":
    main()
