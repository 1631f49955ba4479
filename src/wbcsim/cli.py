"""Batch entry point: run scenarios, sweep parameters, benchmark estimation.

Modes
-----
run           Load a scenario file, simulate it, and write artifacts to the
              output directory: ``log.csv`` (per-control-cycle trace, columns
              in :data:`wbcsim.simulator.LOG_COLUMNS`), ``metrics.txt`` and
              ``metrics.json`` (summary), and for every terrain but flat
              ``psi_trace.csv`` (the log's t, psi_hat and psi_true columns:
              estimated vs true incline angle over time).
bench-normals Monte-Carlo accuracy table for the ground-normal estimator:
              noiseless inclined planes, noisy planes and the full
              synthetic lidar ramp pipeline.
sweep         Fan a scenario out over several values of one override key
              (``--sweep KEY=V1,V2,...``), one isolated run per value, in
              parallel processes; writes each run's artifacts to its own
              subdirectory plus a combined ``sweep.csv``.

The metrics summary keys form a closed set (see
:class:`wbcsim.simulator.MetricsSummary`): name, fell, failed, failure,
max_abs_beta, max_abs_r_x, settle_time, height_mean, height_sd, roll_mean,
roll_sd, psi_hat_mean, psi_err_mean, com_dev_max, energy_residual_frac.

Exit status: 0 on success, 1 when the scenario falls or the solver fails
(the metrics files are still written), 2 on configuration errors.  A run
falls when roll or pitch passes 1 rad or when the ground has pulled a wheel
down with more than 0.05 s of body weight in total (the bilateral contact
can pull; see :data:`wbcsim.simulator.PULL_LIMIT_S`).

The output directory may also be set with the ``WBCSIM_OUT`` environment
variable; an explicit ``--out`` wins.
"""

from __future__ import annotations

import json
import os
import random
import sys

import numpy as np

from .model import RobotModel
from .scenario import ScenarioError, SensorConfig, load_scenario, parse_param, parse_sweep
from .simulator import (LOG_COLUMNS, MetricsSummary, gaussians, run_scenario, synth_pointcloud,
                        uniforms, write_csv)
from .terrain import SlopeTerrain
from .terrain_estimation import NormalMap, PointCloud, estimate_normal, incline_angle

DEFAULT_SEED = 0
PSI_COLUMNS = ("t", "psi_hat", "psi_true")   # of the log, in psi_trace.csv
OUT_ENV_VAR = "WBCSIM_OUT"


# -- run mode ----------------------------------------------------------------

def write_artifacts(out_dir: str, log: np.ndarray, metrics: MetricsSummary,
                    slope_terrain: bool) -> None:
    os.makedirs(out_dir, exist_ok=True)
    write_csv(os.path.join(out_dir, "log.csv"), LOG_COLUMNS, log)
    with open(os.path.join(out_dir, "metrics.txt"), "w") as fh:
        fh.write(metrics.to_text())
    with open(os.path.join(out_dir, "metrics.json"), "w") as fh:
        json.dump(metrics.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    if slope_terrain:
        write_csv(os.path.join(out_dir, "psi_trace.csv"), PSI_COLUMNS,
                  log[:, [LOG_COLUMNS.index(c) for c in PSI_COLUMNS]])


def _run_and_write(scenario_path: str, params: dict, seed: int,
                   out_dir: str) -> MetricsSummary:
    """Load a scenario, run it and write its artifacts to out_dir."""
    scenario = load_scenario(scenario_path, params)
    log, metrics = run_scenario(RobotModel(), scenario, seed=seed)
    write_artifacts(out_dir, log, metrics, scenario.terrain.kind != "flat")
    return metrics


def do_run(scenario: str, params: dict, seed: int, out_dir: str, verbosity: int = 0) -> int:
    metrics = _run_and_write(scenario, params, seed, out_dir)
    if verbosity > 0 or metrics.failed or metrics.fell:
        print(metrics.to_text(), end="")
    print(f"artifacts written to {out_dir}")
    if metrics.failed:
        print(f"error: solver failure: {metrics.failure}", file=sys.stderr)
        return 1
    if metrics.fell:
        print("error: robot fell", file=sys.stderr)
        return 1
    return 0


# -- sweep mode --------------------------------------------------------------

def _sweep_one(args: tuple) -> dict:
    scenario_path, params, key, value, seed, out_dir = args
    metrics = _run_and_write(scenario_path, {**params, key: value}, seed, out_dir)
    return {"sweep_value": value, **metrics.to_dict()}


def do_sweep(scenario: str, params: dict, sweep: str | None, seed: int, out_dir: str,
             jobs: int | None = None) -> int:
    if not sweep:
        print("error: mode 'sweep' needs --sweep KEY=V1,V2,...", file=sys.stderr)
        return 2
    key, values = parse_sweep(sweep)
    if not values:
        print(f"error: --sweep {key} has no values", file=sys.stderr)
        return 2
    runs, first = [], {}                      # check every run before any starts
    for i, value in enumerate(values):
        load_scenario(scenario, {**params, key: value})
        sub = f"{key.replace('.', '_')}_{str(value).replace('/', '_').replace(' ', '')}"
        j = first.setdefault(sub, i)
        if j != i:
            print(f"error: --sweep {key}: values {j + 1} ({values[j]!r}) "
                  f"and {i + 1} ({value!r}) would both write to '{sub}'", file=sys.stderr)
            return 2
        runs.append((scenario, params, key, value, seed, os.path.join(out_dir, sub)))
    # imported here, not at start-up: a run needs neither, and the pool's
    # module alone pulls in logging
    import concurrent.futures
    import csv

    workers = min(len(runs), jobs or os.cpu_count() or 1)
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as ex:
            rows = list(ex.map(_sweep_one, runs))
    else:
        rows = [_sweep_one(r) for r in runs]

    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "sweep.csv"), "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    bad = [r for r in rows if r["failed"] or r["fell"]]
    for r in bad:
        print(f"error: {key}={r['sweep_value']}: "
              f"{'solver failure: ' + r['failure'] if r['failed'] else 'robot fell'}",
              file=sys.stderr)
    print(f"sweep artifacts written to {out_dir}")
    return 1 if bad else 0


# -- bench-normals mode ------------------------------------------------------

def _plane_cloud(rng, angle_deg, n, noise):
    ang = np.radians(angle_deg)
    normal = np.array([np.sin(ang), 0.0, np.cos(ang)])
    t1 = np.array([np.cos(ang), 0.0, -np.sin(ang)])
    t2 = np.array([0.0, 1.0, 0.0])
    c = 2.0 * uniforms(rng, 2 * n).reshape(n, 2) - 1.0
    pts = c[:, :1] * t1 + c[:, 1:] * t2
    if noise > 0.0:
        pts = pts + noise * gaussians(rng, pts.size).reshape(pts.shape)
    return PointCloud(points=pts), normal


def bench_normals(seed: int = DEFAULT_SEED) -> int:
    rng = random.Random(seed)
    rows = []
    ok = True

    # noiseless inclined planes: estimator is exact up to round-off
    for angle in (0.0, 15.0, 25.0, 45.0):
        cloud, n_true = _plane_cloud(rng, angle, n=400, noise=0.0)
        errs = []
        for _ in range(20):
            q = cloud.points[rng.randrange(len(cloud))]
            n, _ = estimate_normal(cloud, q, 30, 30)
            errs.append(np.degrees(np.arccos(np.clip(n @ n_true, -1.0, 1.0))))
        rows.append((f"plane {angle:4.0f} deg, noiseless",
                     np.mean(errs), np.max(errs), 0.01))

    # noisy 15 deg plane, Monte Carlo
    trials = 1000
    _, n_true = _plane_cloud(rng, 15.0, n=1, noise=0.0)
    errs = []
    for _ in range(trials):
        cloud, _ = _plane_cloud(rng, 15.0, n=120, noise=0.01)
        n, _ = estimate_normal(cloud, np.zeros(3), 30, 30)
        errs.append(np.degrees(np.arccos(np.clip(n @ n_true, -1.0, 1.0))))
    rows.append((f"plane   15 deg, sigma=0.01, {trials} trials",
                 np.mean(errs), np.max(errs), 2.0))

    # full pipeline: noisy synthetic lidar over a ramp -> map -> incline
    # at sigma = 0.05 m the neighborhood must span enough of the slope for
    # the planar signal to dominate the noise, hence the larger k range
    terrain = SlopeTerrain(angle_deg=15.0, start=0.5, blend=0.5)
    nmap = NormalMap(k_min=30, k_max=200)
    sensor = SensorConfig(radius=2.0, points=5000, noise=0.05)
    for cx in np.arange(-1.0, 4.5, 0.5):
        nmap.update(synth_pointcloud(terrain, (cx, 0.0), sensor, rng))
    errs = []
    for x in np.linspace(1.2, 3.8, 27):
        n = nmap.lookup(x, 0.0)
        if n is not None:
            errs.append(abs(incline_angle(n) - 15.0))
    rows.append(("ramp pipeline, sigma=0.05, 15 deg incline",
                 np.mean(errs), np.max(errs), 3.0))

    print(f"{'suite':44s} {'mean err':>9s} {'max err':>9s} {'bound':>7s}")
    for label, mean_e, max_e, bound in rows:
        status = "ok" if mean_e < bound else "FAIL"
        ok = ok and mean_e < bound
        print(f"{label:44s} {mean_e:8.4f}  {max_e:8.4f}  {bound:6.2f}  {status}")
    return 0 if ok else 1


# -- entry point -------------------------------------------------------------

def build_parser():
    """The command-line parser; argparse is imported only to build it."""
    import argparse

    ap = argparse.ArgumentParser(
        prog="wbcsim",
        description="Run whole-body-control scenarios and estimation benchmarks.")
    ap.add_argument("--scenario", metavar="PATH",
                    help="scenario file (.scn, YAML mapping)")
    ap.add_argument("--out", metavar="DIR",
                    default=os.environ.get(OUT_ENV_VAR, "wbcsim_out"),
                    help="output directory (default: $%s or ./wbcsim_out)"
                         % OUT_ENV_VAR)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED, metavar="N",
                    help="RNG seed (default %(default)s)")
    ap.add_argument("--mode", choices=("run", "bench-normals", "sweep"),
                    default="run")
    ap.add_argument("--param", action="append", default=[], metavar="KEY=VALUE",
                    help="scenario override, dotted keys allowed "
                         "(e.g. terrain.angle_deg=20); repeatable")
    ap.add_argument("--sweep", metavar="KEY=V1,V2,...",
                    help="sweep one override key over comma-separated values "
                         "(mode 'sweep')")
    ap.add_argument("--jobs", type=int, metavar="N",
                    help="parallel workers for mode 'sweep', at most one per "
                         "value (default: CPU count)")
    ap.add_argument("-v", "--verbose", action="count", default=0,
                    help="print the metrics summary after a run")
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    for opt, value, low in (("--seed", args.seed, 0), ("--jobs", args.jobs, 1)):
        if value is not None and value < low:
            print(f"error: {opt} must be at least {low}, got {value}", file=sys.stderr)
            return 2
    if args.scenario is None and args.mode != "bench-normals":
        print(f"error: --scenario is required for mode '{args.mode}'", file=sys.stderr)
        return 2
    try:
        params = dict(parse_param(p) for p in args.param)
        if args.mode == "bench-normals":
            return bench_normals(args.seed)
        if args.mode == "sweep":
            return do_sweep(args.scenario, params, args.sweep, args.seed, args.out, args.jobs)
        return do_run(args.scenario, params, args.seed, args.out, args.verbose)
    except (ScenarioError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
