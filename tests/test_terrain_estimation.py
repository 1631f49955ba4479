"""Terrain estimation tests: entropy-optimal neighborhoods, PCA normals, map."""

import random
import re

import numpy as np
import pytest
from scipy.spatial import cKDTree

from wbcsim.terrain_estimation import (
    MAX_FRAMES,
    NormalFilter,
    NormalMap,
    PointCloud,
    _eigenvalues,
    _oriented_normal,
    estimate_normal,
    incline_angle,
    query_normal,
)

from helpers import (brute_force_k, cloud_from_xyz_file, cloud_to_xyz_file, eigenvalue_entropy,
                     nearest_points, pca_normal)

UP = np.array([0.0, 0.0, 1.0])


def plane_cloud(rng, n=200, normal=UP, offset=0.0, extent=1.0, noise=0.0):
    """Points on (or near) the plane normal . p = offset."""
    normal = np.asarray(normal, float) / np.linalg.norm(normal)
    a = np.array([1.0, 0.0, 0.0])
    if abs(normal @ a) > 0.9:
        a = np.array([0.0, 1.0, 0.0])
    t1 = np.cross(normal, a)
    t1 /= np.linalg.norm(t1)
    t2 = np.cross(normal, t1)
    c = rng.uniform(-extent, extent, (n, 2))
    pts = offset * normal + c[:, :1] * t1 + c[:, 1:] * t2
    if noise > 0.0:
        pts = pts + rng.normal(scale=noise, size=pts.shape)
    return PointCloud(points=pts)


# -- neighbor search --------------------------------------------------------

@pytest.mark.parametrize("k", [1, 10, 60, None])
def test_nearest_matches_kdtree(k):
    """The brute-force search returns SciPy's k-d tree neighbors, in the
    same order, for k = 1, 10, 60 and the whole cloud (None)."""
    rng = np.random.default_rng(20)
    for n in (60, 200, 1200):
        cloud = PointCloud(points=rng.normal(size=(n, 3)))
        kk = n if k is None else k
        tree = cKDTree(cloud.points)
        for q in rng.normal(size=(20, 3)):
            np.testing.assert_array_equal(cloud.nearest(q, kk),
                                          np.atleast_1d(tree.query(q, k=kk)[1]))


def test_nearest_breaks_ties_by_index():
    """Equal distances come in index order, also across the k-th distance:
    a shuffled integer grid, whose distances to the origin tie often."""
    rng = np.random.default_rng(21)
    grid = np.stack(np.meshgrid(*[np.arange(-2.0, 3.0)] * 3), axis=-1)
    pts = rng.permutation(grid.reshape(-1, 3))
    cloud = PointCloud(points=pts)
    d2 = (pts ** 2).sum(axis=1)
    order = sorted(range(len(pts)), key=lambda i: (d2[i], i))
    for k in range(1, len(pts) + 1):
        assert cloud.nearest(np.zeros(3), k).tolist() == order[:k]


# -- optimal neighborhood ---------------------------------------------------

def test_planar_cloud_entropy_and_tiebreak():
    rng = np.random.default_rng(0)
    cloud = plane_cloud(rng, n=100)
    q = np.zeros(3)
    # isotropic planar spread: eta = (1/2, 1/2, 0), entropy = ln 2
    assert eigenvalue_entropy(nearest_points(cloud, q, 20)) == pytest.approx(np.log(2), abs=0.05)
    # all k tie near ln 2; the scan must still agree with brute force
    assert estimate_normal(cloud, q, 10, 40)[1] == brute_force_k(cloud, q, 10, 40)


def test_optimal_neighborhood_matches_brute_force():
    rng = np.random.default_rng(1)
    for _ in range(10):
        cloud = PointCloud(points=rng.normal(size=(120, 3)))
        q = rng.normal(size=3)
        assert estimate_normal(cloud, q, 5, 30)[1] == brute_force_k(cloud, q, 5, 30)


def test_optimal_neighborhood_excludes_curved_region():
    rng = np.random.default_rng(2)
    # planar patch around the query adjoining a strongly curved (spherical) region
    flat = plane_cloud(rng, n=60, extent=0.5)
    phi = rng.uniform(0, np.pi / 2, 80)
    th = rng.uniform(0, 2 * np.pi, 80)
    sphere = np.column_stack([
        1.0 + 0.5 * np.sin(phi) * np.cos(th),
        0.5 * np.sin(phi) * np.sin(th),
        0.5 * np.cos(phi) - 0.5,
    ])
    cloud = PointCloud(points=np.vstack([flat.points, sphere]))
    q = np.array([-0.3, 0.0, 0.0])
    k_min, k_max = 10, 100
    _, k = estimate_normal(cloud, q, k_min, k_max)
    assert k == brute_force_k(cloud, q, k_min, k_max)
    assert k < k_max
    assert (eigenvalue_entropy(nearest_points(cloud, q, k))
            < eigenvalue_entropy(nearest_points(cloud, q, k_max)))


def test_optimal_neighborhood_insufficient_points():
    cloud = PointCloud(points=np.zeros((5, 3)))
    assert estimate_normal(cloud, np.zeros(3), 10, 20) is None


# -- normal estimation ------------------------------------------------------

@pytest.mark.parametrize("noise", [0.0, 0.01, 0.05])
def test_fixed_k_matches_pca_oracle(noise):
    """k_min == k_max fixes k: for every k in [3, 60] the normal is the
    np.cov PCA normal of the k nearest neighbors.  k_min > k_max raises."""
    rng = np.random.default_rng(13)
    for k in range(3, 61):
        for _ in range(4):
            cloud = plane_cloud(rng, n=120, normal=[*rng.uniform(-0.5, 0.5, 2), 1.0],
                                noise=noise)
            q = rng.uniform(-1.0, 1.0, 3)
            n, got_k = estimate_normal(cloud, q, k, k)
            assert got_k == k
            np.testing.assert_allclose(n, pca_normal(cloud, q, k), rtol=0.0, atol=1e-9)
    with pytest.raises(ValueError, match="k_min <= k_max"):
        estimate_normal(cloud, q, 20, 10)


def test_flat_plane_normal():
    rng = np.random.default_rng(3)
    cloud = plane_cloud(rng, n=50)
    n, k = estimate_normal(cloud, np.zeros(3), 30, 30)
    assert np.allclose(n, UP, atol=1e-12)
    assert k == 30


def test_inclined_plane_normal():
    rng = np.random.default_rng(4)
    n45 = np.array([np.sqrt(0.5), 0.0, np.sqrt(0.5)])
    cloud = plane_cloud(rng, n=80, normal=n45, offset=0.3)
    n, _ = estimate_normal(cloud, cloud.points[0], 40, 40)
    assert np.allclose(n, n45, atol=1e-10)


def test_normal_rotation_equivariance():
    from wbcsim.rotations import exp_so3
    rng = np.random.default_rng(5)
    cloud = plane_cloud(rng, n=100, normal=np.array([0.2, -0.1, 1.0]))
    n, _ = estimate_normal(cloud, np.zeros(3), 40, 40)
    R = exp_so3(np.array([0.05, -0.1, 0.4]))
    cloud2 = PointCloud(points=cloud.points @ R.T)
    n2, _ = estimate_normal(cloud2, np.zeros(3), 40, 40)
    n_rot = R @ n
    if n_rot[2] < 0:
        n_rot = -n_rot
    assert np.allclose(n2, n_rot, atol=1e-8)


def test_normal_noisy_plane_monte_carlo():
    rng = np.random.default_rng(6)
    ang = np.deg2rad(15.0)
    n_true = np.array([np.sin(ang), 0.0, np.cos(ang)])
    errs = []
    for _ in range(200):
        cloud = plane_cloud(rng, n=120, normal=n_true, extent=0.5, noise=0.01)
        n, _ = estimate_normal(cloud, np.zeros(3), 30, 30)
        errs.append(np.degrees(np.arccos(np.clip(n @ n_true, -1, 1))))
    assert np.mean(errs) < 2.0


def test_degenerate_collinear_neighborhood():
    t = np.linspace(0, 1, 30)
    cloud = PointCloud(points=np.column_stack([t, t, t]))
    assert estimate_normal(cloud, np.zeros(3), 20, 20) is None


def test_rejects_nan_points():
    with pytest.raises(ValueError):
        PointCloud(points=np.array([[0.0, 0.0, np.nan]]))


# -- closed-form eigen-decomposition against np.linalg.eigh ----------------------

ENTRIES = ([0, 1, 2, 0, 0, 1], [0, 1, 2, 1, 2, 2])     # (xx, yy, zz, xy, xz, yz)


def _assert_matches_eigh(cov):
    """The closed-form eigenvalues within 1e-13 of the largest of eigh's, and
    the normal within 1e-14 lam_max / (lam_mid - lam_min) radians of eigh's
    least eigenvector, up to sign."""
    lam, vec = np.linalg.eigh(cov)
    got = _eigenvalues(cov[ENTRIES])
    assert np.abs(got - lam).max() <= 1e-13 * lam[2], (got, lam)
    n = _oriented_normal(cov[ENTRIES], got)
    assert abs(np.linalg.norm(n) - 1.0) < 1e-15
    assert np.linalg.norm(np.cross(n, vec[:, 0])) <= 1e-14 * lam[2] / (lam[1] - lam[0])


@pytest.mark.parametrize("scale", [1e-6, 1e-3, 1.0, 1e3])
def test_closed_form_matches_eigh_on_random_covariances(scale):
    """Random symmetric positive definite matrices, one at a time and as one
    batch, which gives the same bits."""
    rng = np.random.default_rng(31)
    x = rng.normal(size=(300, 3, 3))
    covs = scale * x @ x.transpose(0, 2, 1)
    for cov in covs:
        _assert_matches_eigh(cov)
    batch = _eigenvalues(covs[:, ENTRIES[0], ENTRIES[1]])
    assert all(np.array_equal(batch[i], _eigenvalues(c[ENTRIES])) for i, c in enumerate(covs))


def _rotation(rng):
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    return q * np.sign(np.diag(r))


@pytest.mark.parametrize("seed", range(4))
def test_closed_form_matches_eigh_on_planar_covariances(seed):
    """A disc of points on a tilted plane, evenly spread (a double top
    eigenvalue to rounding) and at random, and an exact plane of random
    points: least eigenvalue 0."""
    rng = np.random.default_rng(40 + seed)
    t = np.arange(12) * np.pi / 6
    even = np.column_stack([np.cos(t), np.sin(t), np.zeros(12)])
    r, phi = np.sqrt(rng.uniform(size=200)), rng.uniform(0.0, 2 * np.pi, 200)
    disc = np.column_stack([r * np.cos(phi), r * np.sin(phi), np.zeros(200)])
    patch = np.column_stack([rng.uniform(-1.0, 1.0, (200, 2)) * [1.0, 0.3], np.zeros(200)])
    for pts in (even, disc, patch):
        _assert_matches_eigh(np.cov((pts @ _rotation(rng).T).T, bias=True))


def test_collinear_nan_and_zero_covariances_have_no_normal():
    """Collinear points: eigenvalues within 1e-13 of eigh's largest, and no
    normal, as eigh's eigenvalues give none; the zero matrix: zero
    eigenvalues and no normal; a NaN entry: NaN eigenvalues and no normal."""
    rng = np.random.default_rng(50)
    for _ in range(20):
        t = rng.uniform(-1.0, 1.0, (40, 1))
        cov = np.cov((rng.normal(size=3) + t * rng.normal(size=3)).T, bias=True)
        lam, got = np.linalg.eigvalsh(cov), _eigenvalues(cov[ENTRIES])
        assert np.abs(got - lam).max() <= 1e-13 * lam[2]
        assert not lam[1] > 1e-12 * lam[2]
        assert _oriented_normal(cov[ENTRIES], got) is None
    zero = np.zeros(6)
    assert _eigenvalues(zero).tolist() == [0.0, 0.0, 0.0]
    assert _oriented_normal(zero, _eigenvalues(zero)) is None
    for i in range(6):
        c = np.array([2.0, 1.0, 0.5, 0.1, 0.0, 0.2])
        c[i] = np.nan
        assert np.isnan(_eigenvalues(c)).all()
        assert _oriented_normal(c, _eigenvalues(c)) is None


def test_repeated_least_eigenvalue_and_scalar_matrix_normals():
    """When C - lam_min I has rank 1 the normal is the largest cross product
    of its largest row with an axis, and when C is scalar it is UP: unit
    eigenvectors of the least eigenvalue, the same at every call, also when
    the computed lam_min is a rounding off the repeated one."""
    exact = np.array([1.0, 1.0, 5.0])
    top_z = np.array([1.0, 1.0, 5.0, 0.0, 0.0, 0.0])
    assert _oriented_normal(top_z, exact).tolist() == [0.0, 1.0, 0.0]
    top_x = np.array([5.0, 1.0, 1.0, 0.0, 0.0, 0.0])
    assert _oriented_normal(top_x, exact).tolist() == [0.0, 0.0, 1.0]
    lam = _eigenvalues(top_z)
    assert np.abs(lam - exact).max() < 1e-14
    assert abs(_oriented_normal(top_z, lam) @ [0.0, 0.0, 1.0]) < 1e-14
    rng = np.random.default_rng(51)
    for _ in range(20):
        q = _rotation(rng)
        for lam in ([1.0, 1.0, 5.0], [1.0, 1.0 + 1e-15, 5.0]):
            cov = q @ np.diag(lam) @ q.T
            n = _oriented_normal(cov[ENTRIES], _eigenvalues(cov[ENTRIES]))
            assert np.allclose(cov @ n, n, rtol=0.0, atol=1e-14)
            assert abs(n @ q[:, 2]) < 1e-14
            assert np.array_equal(n, _oriented_normal(cov[ENTRIES], _eigenvalues(cov[ENTRIES])))
    scalar = np.array([2.0, 2.0, 2.0, 0.0, 0.0, 0.0])
    assert _eigenvalues(scalar).tolist() == [2.0, 2.0, 2.0]
    assert np.array_equal(_oriented_normal(scalar, _eigenvalues(scalar)), UP)


def test_bench_normals_picks_the_brute_force_k(monkeypatch, capsys):
    """Every adaptive-k estimate of `--mode bench-normals` (its lidar ramp
    pipeline, k in [30, 200]) picks the k of an eigvalsh entropy scan."""
    from wbcsim import cli, terrain_estimation
    calls = []

    def recording(cloud, query, k_min=10, k_max=60):
        calls.append((cloud, query, k_min, k_max))
        return estimate_normal(cloud, query, k_min, k_max)

    monkeypatch.setattr(terrain_estimation, "estimate_normal", recording)
    assert cli.bench_normals() == 0
    capsys.readouterr()
    assert len(calls) > 10 and all(call[2:] == (30, 200) for call in calls)
    for cloud, query, k_min, k_max in calls:
        assert estimate_normal(cloud, query, k_min, k_max)[1] == brute_force_k(
            cloud, query, k_min, k_max)


# -- normal map -------------------------------------------------------------

def test_update_map_flat_ground():
    rng = np.random.default_rng(7)
    cloud = plane_cloud(rng, n=500, extent=1.0)
    nmap = NormalMap(cell_size=0.25)
    written = nmap.update(cloud)
    assert written > 0
    for cell in nmap.cells.values():
        assert np.allclose(cell.normal, UP, atol=1e-9)
        assert abs(np.linalg.norm(cell.normal) - 1.0) < 1e-9


def test_update_map_union_of_disjoint_clouds():
    rng = np.random.default_rng(8)
    c1 = plane_cloud(rng, n=200, extent=0.5)
    c2 = PointCloud(points=plane_cloud(rng, n=200, extent=0.5).points + [5.0, 0.0, 0.0])
    nmap = NormalMap(cell_size=0.25)
    nmap.update(c1)
    keys1 = set(nmap.cells)
    nmap.update(c2)
    assert keys1 <= set(nmap.cells)
    assert len(nmap.cells) > len(keys1)


def test_update_map_idempotent():
    rng = np.random.default_rng(9)
    cloud = plane_cloud(rng, n=300, normal=np.array([0.3, 0.0, 1.0]))
    nmap = NormalMap(cell_size=0.25)
    nmap.update(cloud)
    before = {k: c.normal.copy() for k, c in nmap.cells.items()}
    nmap.update(cloud)
    assert set(before) == set(nmap.cells)
    for k in before:
        assert np.allclose(nmap.cells[k].normal, before[k], atol=1e-12)


def test_update_map_matches_per_cell_estimates():
    """The map gives, cell by cell, the k of a brute-force entropy scan and
    the np.cov PCA normal of that k at the cell query point."""
    rng = np.random.default_rng(11)
    n_true = np.array([-np.sin(0.3), 0.0, np.cos(0.3)])
    cloud = plane_cloud(rng, n=1200, normal=n_true, extent=1.5, noise=0.01)
    nmap = NormalMap(cell_size=0.1, k_min=10, k_max=60)
    written = nmap.update(cloud)
    assert written == len(nmap.cells) > 100
    for (ix, iy), cell in nmap.cells.items():
        inside = ((np.floor(cloud.points[:, 0] / 0.1) == ix)
                  & (np.floor(cloud.points[:, 1] / 0.1) == iy))
        query = np.array([(ix + 0.5) * 0.1, (iy + 0.5) * 0.1,
                          cloud.points[inside, 2].mean()])
        assert cell.k == brute_force_k(cloud, query, 10, 60)
        assert np.abs(cell.normal - pca_normal(cloud, query, cell.k)).max() < 1e-9


def test_pointcloud_file_roundtrip(tmp_path):
    rng = np.random.default_rng(11)
    cloud = plane_cloud(rng, n=50)
    path = tmp_path / "cloud.xyz"
    cloud_to_xyz_file(cloud, str(path))
    back = cloud_from_xyz_file(str(path))
    assert np.allclose(back.points, cloud.points, atol=1e-8)


# -- query + filter ---------------------------------------------------------

def test_query_empty_map_returns_up():
    nmap = NormalMap()
    filt = NormalFilter(alpha=0.1)
    n = query_normal(nmap, np.zeros(2), np.array([1.0, 0.0, 0.0]), 0.9, filt)
    assert np.allclose(n, UP)


def test_query_converges_to_cell_normal():
    rng = np.random.default_rng(12)
    ang = np.deg2rad(10.0)
    slope_n = np.array([np.sin(ang), 0.0, np.cos(ang)])
    nmap = NormalMap(cell_size=0.25)
    nmap.update(plane_cloud(rng, n=400, normal=slope_n))
    filt = NormalFilter(alpha=0.2)
    for _ in range(int(5 / 0.2)):
        n = query_normal(nmap, np.zeros(2), np.array([1.0, 0.0]), 0.0, filt)
    assert np.degrees(np.arccos(np.clip(n @ slope_n, -1, 1))) < 0.5


def test_filter_step_response_first_order():
    # step flat -> 15 deg: after ceil(1/a) samples the response passes ~63%
    a = 0.1
    filt = NormalFilter(alpha=a)
    filt.push(UP)
    ang = np.deg2rad(15.0)
    n_slope = np.array([np.sin(ang), 0.0, np.cos(ang)])
    incl = 0.0
    for _ in range(int(round(1 / a))):
        incl = incline_angle(filt.push(n_slope))
    assert incl == pytest.approx(15.0 * 0.63, rel=0.12)


def test_incline_angle():
    assert incline_angle(UP) == pytest.approx(0.0)
    assert incline_angle(np.array([np.sqrt(0.5), 0.0, np.sqrt(0.5)])) == pytest.approx(45.0)


def test_lookahead_targets_correct_cell():
    """Two clouds: flat ground in the cell at the origin and a 20 deg slope
    in the cell 0.9 m ahead; the lookahead query reads the slope's cell."""
    rng = np.random.default_rng(15)
    nmap = NormalMap(cell_size=0.5, k_min=5, k_max=20)
    ang = np.deg2rad(20.0)
    n_slope = np.array([np.sin(ang), 0.0, np.cos(ang)])
    ahead = nmap.key_of(0.9, 0.0)
    nmap.update(PointCloud(points=_patch_cloud(rng, [nmap.key_of(0.0, 0.0)] * 6, 0.5, UP)))
    nmap.update(PointCloud(points=_patch_cloud(rng, [ahead] * 6, 0.5, n_slope)))
    filt = NormalFilter(alpha=1.0)
    n = query_normal(nmap, np.zeros(2), np.array([1.0, 0.0]), 0.9, filt)
    assert np.array_equal(n, nmap.cells[ahead].normal)
    assert incline_angle(n) > 10.0 > incline_angle(nmap.lookup(0.0, 0.0))


# -- lazy map against the eager oracle --------------------------------------

def _patch_cloud(rng, cells, cell_size, normal):
    """A few noisy points of the plane normal . p = 0 in each given cell."""
    pts = []
    for ix, iy in cells:
        m = int(rng.integers(1, 6))
        xy = (np.array([ix, iy]) + rng.uniform(0.0, 1.0, (m, 2))) * cell_size
        z = -(normal[0] * xy[:, 0] + normal[1] * xy[:, 1]) / normal[2]
        pts.append(np.column_stack([xy, z + rng.normal(scale=0.01, size=m)]))
    return np.vstack(pts)


def _line_cloud(rng, x0, x1, y0, n):
    """n points on one straight 3D line: every neighborhood is collinear."""
    t = np.sort(rng.uniform(0.0, 1.0, n))
    return np.column_stack([x0 + (x1 - x0) * t, y0 + 0.3 * t, 0.2 * t])


def _random_frame(rng, cell_size):
    kind = rng.choice(["patch", "patch", "line", "mixed", "few"])
    if kind == "few":                     # fewer than k_min points
        return _patch_cloud(rng, [(int(rng.integers(0, 12)), 3)], cell_size, UP)[:3]
    if kind == "line":                    # collinear, over cells estimated earlier
        x0 = rng.uniform(0.0, 1.5)
        return _line_cloud(rng, x0, x0 + 1.5, rng.uniform(0.0, 1.5), 40)
    normal = np.array([*rng.uniform(-0.3, 0.3, 2), 1.0])
    cells = [(ix, iy) for ix in range(12) for iy in range(8) if rng.random() < 0.4]
    pts = _patch_cloud(rng, cells, cell_size, normal / np.linalg.norm(normal))
    if kind == "mixed":                   # plus a collinear strip far from it
        pts = np.vstack([pts, _line_cloud(rng, 4.0, 5.5, rng.uniform(0.0, 1.5), 40)])
    return pts


def _lookup_points(rng, cell_size):
    """Random points (some beyond SEARCH_RADIUS of any cell), and cell edges
    and corners, which sit on exact ties between cell centres."""
    pts = [tuple(p) for p in rng.uniform([-1.0, -1.0], [6.5, 3.0], (12, 2))]
    for _ in range(12):
        ix, iy = rng.integers(-1, 23), rng.integers(-1, 9)
        pts.append((ix * cell_size, (iy + 0.5) * cell_size))
        pts.append((ix * cell_size, iy * cell_size))
    return pts


def _assert_same_cells(lazy, eager):
    assert list(lazy.cells) == sorted(eager.cells)
    for key, cell in eager.cells.items():
        got = lazy.cells[key]
        assert np.array_equal(got.normal, cell.normal)
        assert got.k == cell.k


@pytest.mark.parametrize("seed", range(8))
def test_lazy_map_matches_eager_oracle(seed):
    """Over overlapping clouds, with degenerate and too-small frames, the lazy
    map returns bit-equal lookups and the same cells in key order as the
    eager map it replaced."""
    from eager_normal_map import EagerNormalMap
    rng = np.random.default_rng(100 + seed)
    cell_size = 0.25                      # centres and edges are exact in binary
    lazy = NormalMap(cell_size=cell_size, k_min=5, k_max=20)
    eager = EagerNormalMap(cell_size=cell_size, k_min=5, k_max=20)
    assert lazy.lookup(0.1, 0.1) is None
    assert MAX_FRAMES >= 10               # the eager map drops no cloud
    for _ in range(10):
        cloud = PointCloud(points=_random_frame(rng, cell_size))
        skipped = eager.skipped_degenerate, lazy.skipped_degenerate
        written = eager.update(cloud)
        recorded = lazy.update(cloud)
        if eager.skipped_degenerate == skipped[0]:
            assert recorded == written
        if len(cloud) < lazy.k_min:       # every cell counted at once
            assert (lazy.skipped_degenerate - skipped[1]
                    == eager.skipped_degenerate - skipped[0] > 0)
        if rng.random() < 0.5:
            for x, y in _lookup_points(rng, cell_size):
                got, want = lazy.lookup(x, y), eager.lookup(x, y)
                assert (got is None) == (want is None), (x, y)
                assert want is None or np.array_equal(got, want), (x, y)
        if rng.random() < 0.2:
            _assert_same_cells(lazy, eager)
    _assert_same_cells(lazy, eager)
    assert len(lazy.cells) == len(eager.cells)
    assert lazy.skipped_degenerate <= eager.skipped_degenerate


def test_lazy_map_records_keys_of_both_signs_as_the_eager_map():
    """Cells on both sides of the origin, first met out of key order: one
    int64 code per cell over the cloud's key box gives the cells and counts
    of the eager map's row-wise unique, and `cells` iterates in key order."""
    from eager_normal_map import EagerNormalMap
    rng = np.random.default_rng(99)
    cells = [(ix, iy) for ix in range(-6, 6) for iy in range(-4, 4) if rng.random() < 0.6]
    rng.shuffle(cells)
    cloud = PointCloud(points=_patch_cloud(rng, cells, 0.25, UP))
    lazy = NormalMap(cell_size=0.25, k_min=5, k_max=20)
    eager = EagerNormalMap(cell_size=0.25, k_min=5, k_max=20)
    assert lazy.update(cloud) == eager.update(cloud) == len(cells)
    _assert_same_cells(lazy, eager)
    assert [key for key in lazy.cells] == sorted(cells)


@pytest.mark.parametrize("points", [[[1e300, 0.0, 0.0]] * 12,
                                    [[-1e17, 0.0, 0.0]] * 6 + [[1e17, 1e17, 0.0]] * 6])
def test_map_rejects_a_cloud_beyond_int64_cell_keys(points):
    with pytest.raises(ValueError, match="int64 cell keys"):
        NormalMap().update(PointCloud(points=np.array(points)))


@pytest.mark.parametrize("cell_size", [float("nan"), float("inf"), 0.0, -1.0, 1e-320])
def test_map_rejects_a_cell_size_that_is_not_positive_and_finite(cell_size):
    """A NaN cell size would blame every later point for being non-finite,
    an infinite one would put every cloud in key (0, 0), and one below
    about 2.8e-309 would make the search radius in cells infinite."""
    with pytest.raises(ValueError, match="cell_size"):
        NormalMap(cell_size=cell_size)


def test_a_miss_holds_memory_bounded_by_the_recorded_cells():
    """A miss enumerates the recorded keys near it, not every key within
    SEARCH_RADIUS: with 2 mm cells that radius spans about 250,000 keys."""
    import tracemalloc
    rng = np.random.default_rng(8)
    nmap = NormalMap(cell_size=0.002)
    pts = np.column_stack([rng.uniform(0.0, 0.1, (200, 2)), rng.normal(scale=0.001, size=200)])
    nmap.update(PointCloud(points=pts))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        n = nmap.lookup(0.4, 0.05)                    # 0.3 m beyond the cloud
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert n is not None and n[2] > 0.99
    assert peak < 1_000_000


def test_reading_keys_never_recorded_holds_nothing():
    """Probing keys that no cloud recorded, by lookup or through `cells`,
    leaves the map's memory bounded by the keys it recorded."""
    nmap = NormalMap()
    cells = [(ix, iy) for ix in range(4) for iy in range(4)]
    nmap.update(PointCloud(points=_patch_cloud(np.random.default_rng(10), cells, 0.1, UP)))
    for i in range(50):
        assert (100 + i, -100) not in nmap.cells
        with pytest.raises(KeyError):
            nmap.cells[(-100, 100 + i)]
        assert nmap.lookup(50.0 + i, 50.0) is None
    assert nmap._read == {}


def test_map_holds_a_few_dozen_bytes_per_recorded_cell():
    """Beyond its clouds' points, the map holds each recorded cell's code,
    and nothing per key until a key is read."""
    import tracemalloc
    from wbcsim.scenario import SensorConfig
    from wbcsim.simulator import synth_pointcloud
    from wbcsim.terrain import SlopeTerrain
    rng = random.Random(9)
    terrain = SlopeTerrain(angle_deg=15.0, start=1.0, blend=0.5)
    clouds = [synth_pointcloud(terrain, (0.5 + 0.05 * i, 0.0), SensorConfig(), rng)
              for i in range(10)]
    nmap = NormalMap()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        recorded = sum(nmap.update(cloud) for cloud in clouds)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert recorded > 8000
    assert held <= 64 * recorded


@pytest.mark.parametrize("x, shown", [(1e300, "1e+300"), (1e18, "1e+18"),
                                      (float("nan"), "nan")])
def test_lookup_rejects_a_point_beyond_int64_cell_keys(x, shown):
    with pytest.raises(ValueError, match=re.escape(f"point ({shown}, 0) is not finite")):
        NormalMap().lookup(x, 0.0)


def _count_estimates(monkeypatch, nmap):
    made = []
    estimate = nmap._estimate

    def counting(key, frame):
        made.append(key)
        return estimate(key, frame)

    monkeypatch.setattr(nmap, "_estimate", counting)
    return made


def test_lazy_map_estimates_only_what_is_read(monkeypatch):
    """update searches no neighbors; a hit estimates one cell with one
    search, a miss the occupied cells in (distance, key) order up to the
    first non-degenerate one."""
    from wbcsim.scenario import SensorConfig
    from wbcsim.simulator import synth_pointcloud
    from wbcsim.terrain import SlopeTerrain
    rng = random.Random(1)
    cloud = synth_pointcloud(SlopeTerrain(angle_deg=15.0, start=1.0, blend=0.5),
                             (0.7, 0.0), SensorConfig(points=1200), rng)
    nmap = NormalMap()
    made = _count_estimates(monkeypatch, nmap)
    searches = []
    nearest = PointCloud.nearest
    monkeypatch.setattr(PointCloud, "nearest",
                        lambda self, q, k: searches.append(k) or nearest(self, q, k))
    assert nmap.update(cloud) > 800
    assert searches == [] and made == []

    occupied = {nmap.key_of(*p[:2]) for p in cloud.points}
    assert nmap.lookup(*cloud.points[0, :2]) is not None      # an occupied cell
    assert len(made) == 1 and searches == [nmap.k_max]

    # a miss: an empty cell inside the cloud, next to occupied ones
    hole = next((ix, iy) for ix in range(5, 20) for iy in range(-5, 5)
                if (ix, iy) not in occupied and (ix + 1, iy) in occupied)
    x, y = (np.array(hole) + [0.3, 0.6]) * nmap.cell_size
    made.clear()
    assert nmap.lookup(x, y) is not None
    d2 = [float((((np.array(k) + 0.5) * nmap.cell_size - [x, y]) ** 2).sum())
          for k in occupied]
    assert len(made) == d2.count(min(d2))       # the nearest cells, no others


def test_lazy_map_miss_skips_degenerate_cells(monkeypatch):
    """A miss estimates the degenerate cells nearer than the first good one,
    and no cell farther away."""
    rng = np.random.default_rng(2)
    t = np.sort(rng.uniform(0.0, 1.0, 40))
    line = np.column_stack([1.1 + 0.05 * t, 0.9 * t, 0.2 * t])   # cells (4, 0..3)
    good = _patch_cloud(rng, [(ix, iy) for ix in range(4) for iy in range(4)],
                        0.25, UP)
    nmap = NormalMap(cell_size=0.25, k_min=5, k_max=20)
    nmap.update(PointCloud(points=line))
    nmap.update(PointCloud(points=good))
    made = _count_estimates(monkeypatch, nmap)
    # from the empty cell (5, 1): line cells (4, 1), (4, 0), (4, 2) lie nearer
    # than the planar cell (3, 1); the line cell (4, 3) lies farther
    n = nmap.lookup(1.3, 0.375)
    assert n is not None and n[2] > 0.99          # the planar cell
    assert nmap.skipped_degenerate == 3
    assert len(made) == 4


def test_lookup_breaks_an_exact_tie_by_the_least_key(monkeypatch):
    """From the centre of the empty cell (1, 0), the cells (0, 0) and (2, 0)
    are equally near: the fallback takes (0, 0), though recorded last, and
    estimates nothing else."""
    rng = np.random.default_rng(5)
    nmap = NormalMap(cell_size=0.25, k_min=5, k_max=20)
    for cell, normal in (((2, 0), [0.3, 0.0, 1.0]), ((0, 0), [0.0, -0.2, 1.0])):
        normal = np.array(normal) / np.linalg.norm(normal)
        nmap.update(PointCloud(points=_patch_cloud(rng, [cell] * 6, 0.25, normal)))
    made = _count_estimates(monkeypatch, nmap)
    n = nmap.lookup(0.375, 0.125)
    assert len(made) == 1
    assert np.array_equal(n, nmap.cells[(0, 0)].normal)
    assert not np.allclose(n, nmap.cells[(2, 0)].normal, atol=0.05)


def _cell_cloud(rng, cells, normal=UP):
    """Six noisy points of the plane normal . p = 0 in each 0.25 m cell given."""
    normal = np.asarray(normal, float) / np.linalg.norm(normal)
    return PointCloud(points=_patch_cloud(rng, [c for c in cells for _ in range(6)], 0.25,
                                          normal))


def test_a_map_of_many_clouds_holds_the_newest_max_frames():
    """update drops the oldest cloud once more than MAX_FRAMES are held, and
    a dropped cloud is freed."""
    import gc
    import weakref
    rng = np.random.default_rng(6)
    nmap = NormalMap(cell_size=0.25, k_min=5, k_max=20)
    refs = []
    for i in range(3 * MAX_FRAMES):
        cloud = _cell_cloud(rng, [(i, 0)])
        refs.append(weakref.ref(cloud))
        nmap.update(cloud)
        del cloud
        assert len(nmap._frames) == min(i + 1, MAX_FRAMES)
    gc.collect()
    assert [ref() is not None for ref in refs] == [False] * 2 * MAX_FRAMES + [True] * MAX_FRAMES
    assert list(nmap.cells) == [(i, 0) for i in range(2 * MAX_FRAMES, 3 * MAX_FRAMES)]


def test_a_key_recorded_only_in_a_dropped_cloud_falls_back():
    """A key never read whose only record was in a dropped cloud reads as
    empty, so its lookup falls back to the nearest cell still recorded."""
    rng = np.random.default_rng(7)
    slope = [0.3, 0.0, 1.0]
    kept, capped = (NormalMap(cell_size=0.25, k_min=5, k_max=20) for _ in range(2))
    for nmap, frames in ((kept, MAX_FRAMES - 1), (capped, MAX_FRAMES)):
        nmap.update(_cell_cloud(rng, [(0, 0)]))
        for _ in range(frames):
            nmap.update(_cell_cloud(rng, [(1, 0)], slope))
    assert (0, 0) in kept.cells
    assert np.array_equal(kept.lookup(0.125, 0.125), kept.cells[(0, 0)].normal)
    assert (0, 0) not in capped.cells
    n = capped.lookup(0.125, 0.125)
    assert np.array_equal(n, capped.cells[(1, 0)].normal) and n[0] > 0.2


def test_a_read_key_keeps_its_cell_after_its_cloud_is_dropped():
    """A cloud over two keys, one of them read: once the cloud is dropped and
    freed, the read key keeps its cell and the unread one reads as empty."""
    import gc
    import weakref
    rng = np.random.default_rng(8)
    nmap = NormalMap(cell_size=0.25, k_min=5, k_max=20)
    older = _cell_cloud(rng, [(0, 0), (1, 0)])
    ref = weakref.ref(older)
    nmap.update(older)
    del older
    n = nmap.lookup(0.125, 0.125)
    for _ in range(MAX_FRAMES):
        nmap.update(_cell_cloud(rng, [(20, 0)]))
    gc.collect()
    assert ref() is None
    assert np.array_equal(nmap.lookup(0.125, 0.125), n)
    assert list(nmap.cells) == [(0, 0), (20, 0)]
    assert np.array_equal(nmap.lookup(0.375, 0.125), n)     # (1, 0) falls back to (0, 0)
