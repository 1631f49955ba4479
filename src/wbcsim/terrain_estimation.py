"""Ground-normal estimation from point clouds.

Adaptive-neighborhood PCA: for a query point, the neighbor count k is
chosen to minimize the Shannon entropy of the normalized covariance
eigenvalues; the normal is the eigenvector of the smallest eigenvalue,
both in closed form.  Estimates are kept in a sparse 2D grid map, made
when a cell is first read, and served through a lookahead query with
exponential smoothing.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

UP = np.array([0.0, 0.0, 1.0])
SEARCH_RADIUS = 0.5        # m, lookup fallback to the nearest occupied cell
# default fewest neighbors of a normal estimate; a cloud with fewer points
# gives the normal map no estimate at all
K_MIN = 10
# most clouds the normal map holds; no estimate of a bundled lidar run read a
# frame more than 10 updates old
MAX_FRAMES = 16
# a symmetric 3x3 matrix as its entries (xx, yy, zz, xy, xz, yz): their (i, j),
# Frobenius weights and diagonal, and the entry pairs of each square's entry
_I, _J = np.array([0, 1, 2, 0, 0, 1]), np.array([0, 1, 2, 1, 2, 2])
_WEIGHT, _DIAG = np.array([1.0, 1, 1, 2, 2, 2]), np.array([1.0, 1, 1, 0, 0, 0])
_SQUARE = np.array([[0, 3, 4], [3, 1, 5], [4, 5, 2]])[np.array([_I, _J])]
_AXES = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


@dataclass
class PointCloud:
    points: np.ndarray                 # (n, 3), inertia frame

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float).reshape(-1, 3)
        if not np.isfinite(pts).all():
            raise ValueError("point cloud contains non-finite coordinates")
        self.points = pts

    def __len__(self) -> int:
        return len(self.points)

    def nearest(self, query_point: np.ndarray, k: int) -> np.ndarray:
        """Indices of the k points nearest the query point, nearest first;
        equal distances in index order.

        A brute-force scan: a cloud is searched only for the few map cells
        read from it, too few searches to pay for building a tree.
        """
        d = self.points - query_point
        d2 = (d * d).sum(axis=1)
        # every point within the k-th smallest distance, ties at it included
        idx = np.flatnonzero(d2 <= np.partition(d2, k - 1)[k - 1])
        return idx[np.argsort(d2[idx], kind="stable")[:k]]


def _prefix_covariances(nb: np.ndarray, k_min: int):
    """Covariance of the k nearest neighbors for every k in [k_min, k_max].

    nb is (m, k_max, 3), each row sorted by distance.  Prefix sums give every
    prefix covariance at once.  Returns ks and the covariances' entries
    (xx, yy, zz, xy, xz, yz), (m, len(ks), 6).
    """
    nb = nb - nb.mean(axis=1, keepdims=True)     # center once for stability
    ks = np.arange(k_min, nb.shape[1] + 1)
    csum = np.cumsum(nb, axis=1)[:, ks - 1]
    csum2 = np.cumsum(nb[..., _I] * nb[..., _J], axis=1)[:, ks - 1]
    mu = csum / ks[:, None]
    return ks, csum2 / ks[:, None] - mu[..., _I] * mu[..., _J]


def _eigenvalues(c: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the symmetric 3x3 matrices of entries c (..., 6).

    Smith's (1961) q + r cos((theta + 2 pi j) / 3), theta the angle between
    the traceless part b and the traceless part w of b @ b (a unit b's square
    has trace 1) as Frobenius unit vectors, by Kahan's 2 atan2(|b - w|, |b + w|),
    which keeps full precision at a repeated eigenvalue.  Exact to rounding
    for entries of magnitude 1e-150 to 1e150; NaN where one is not finite.
    Sums run along the last axis, so a matrix gives the same bits in any batch.
    """
    q = c[..., :3].sum(axis=-1, keepdims=True) / 3.0
    b = c - q * _DIAG
    r = np.sqrt((_WEIGHT * b * b).sum(axis=-1, keepdims=True))
    b /= np.maximum(r, 1e-300)
    w = (b[..., _SQUARE[0]] * b[..., _SQUARE[1]]).sum(axis=-1) - _DIAG / 3.0
    w /= np.maximum(np.sqrt((_WEIGHT * w * w).sum(axis=-1, keepdims=True)), 1e-300)
    theta = np.arctan2(np.sqrt((_WEIGHT * (b - w) ** 2).sum(axis=-1, keepdims=True)),
                       np.sqrt((_WEIGHT * (b + w) ** 2).sum(axis=-1, keepdims=True)))
    phase = theta * (2.0 / 3.0) + [2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0, 0.0]
    return np.sort(q + math.sqrt(2.0 / 3.0) * r * np.cos(phase), axis=-1)


def _min_entropy_index(lam: np.ndarray) -> np.ndarray:
    """Index along axis 1 of the eigenvalues lam (..., 3) of least entropy.

    argmin returns the first minimum, so exact ties keep the smaller k.
    """
    lam = np.maximum(lam, 0.0)
    tot = lam.sum(axis=-1)
    eta = lam / np.where(tot > 0.0, tot, 1.0)[..., None]
    h = -np.where(eta > 0.0, eta * np.log(np.where(eta > 0.0, eta, 1.0)), 0.0).sum(axis=-1)
    h[tot <= 0.0] = 0.0
    return np.argmin(h, axis=-1)


def estimate_normal(cloud: PointCloud, query_point: np.ndarray, k_min: int = K_MIN,
                    k_max: int = 60) -> tuple[np.ndarray, int] | None:
    """PCA normal at the query point, oriented upward, and its neighbor count.

    The count is the k in [k_min, min(k_max, len(cloud))] whose k nearest
    neighbors have the least eigenvalue entropy, ties toward smaller k;
    k_min == k_max fixes k.  None when the cloud has fewer than k_min points
    or the neighborhood is collinear.  One sorted neighbor query serves every
    k: prefix sums give every prefix covariance, and one batched closed form
    their eigenvalues, which the normal of the chosen k reuses.
    """
    if not 3 <= k_min <= k_max:
        raise ValueError("require 3 <= k_min <= k_max")
    if len(cloud) < k_min:
        return None
    idx = cloud.nearest(query_point, min(k_max, len(cloud)))
    ks, cov = _prefix_covariances(cloud.points[idx][None], k_min)
    lam = _eigenvalues(cov)
    best = _min_entropy_index(lam)[0]
    n = _oriented_normal(cov[0, best], lam[0, best])
    return None if n is None else (n, int(ks[best]))


def _cross(a, b) -> tuple[float, float, float]:
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _null_vector(c: list[float], e: float) -> tuple[float, float, float]:
    """The largest cross product of two rows of the matrix of entries c, minus e I."""
    xx, yy, zz, xy, xz, yz = c
    a, b, d = (xx - e, xy, xz), (xy, yy - e, yz), (xz, yz, zz - e)
    return max((_cross(a, b), _cross(a, d), _cross(b, d)), key=lambda v: math.hypot(*v))


def _oriented_normal(c: np.ndarray, lam: np.ndarray) -> np.ndarray | None:
    """The unit eigenvector of the least of the ascending eigenvalues lam of
    the matrix of entries c, oriented upward, on Python floats; None when the
    neighborhood is collinear (lam[1] vanishes against lam[2], or NaN).

    It is the null vector n of c - lam[0] I.  When lam[0] lies nearer lam[1]
    than lam[2] does, rounding may tilt n toward the null vector t of
    c - lam[2] I, so n becomes t x (n x t), or t x the axis least along t
    when that vanishes.  UP when c is scalar.
    """
    lo, mid, hi = lam.tolist()
    if not (mid > 1e-12 * max(hi, 1e-300) and hi > 0.0):
        return None
    c = c.tolist()
    n = _null_vector(c, lo)
    if mid - lo < hi - mid:
        t = _null_vector(c, hi)
        t = [x / math.hypot(*t) for x in t]
        n = _cross(t, _cross(n, t))
        n = n if any(n) else _cross(t, _AXES[min(range(3), key=lambda i: abs(t[i]))])
    size = math.hypot(*n)
    if size == 0.0:
        return UP.copy()
    return np.array(n) / (-size if n[2] < 0.0 or (n[2] == 0.0 and n[0] < 0.0) else size)


@dataclass
class MapCell:
    normal: np.ndarray
    k: int = 0                         # neighbor count the normal was estimated from


class _Frame(NamedTuple):
    """One recorded cloud and its occupied cells in key order.

    Each cell is the int64 code (ix - lx) * span + (iy - ly) over the cloud's
    key box [lx, hx] x [ly, hy], span = hy - ly + 1.
    """
    cloud: PointCloud
    codes: np.ndarray                  # cell codes, ascending
    lx: int
    ly: int
    hx: int
    hy: int

    def holds(self, ix: int, iy: int) -> bool:
        """Whether key (ix, iy) is one of the cells."""
        if not (self.lx <= ix <= self.hx and self.ly <= iy <= self.hy):
            return False
        code = (ix - self.lx) * (self.hy - self.ly + 1) + (iy - self.ly)
        row = int(self.codes.searchsorted(code))
        return row < len(self.codes) and self.codes[row] == code

    def keys(self, x0: int, x1: int) -> tuple[np.ndarray, np.ndarray]:
        """ix and iy of the records with x0 <= ix <= x1, in key order."""
        x0, x1 = max(x0, self.lx), min(x1, self.hx)
        span = self.hy - self.ly + 1
        a, b = self.codes.searchsorted([(x0 - self.lx) * span, (x1 - self.lx + 1) * span])
        ix, iy = np.divmod(self.codes[a:b], span)
        return ix + self.lx, iy + self.ly


class NormalMap:
    """Sparse 2D grid of estimated ground normals, estimated on first read.

    `update` only records the cells a cloud occupies, and drops the oldest
    cloud once more than MAX_FRAMES are held.  A cell is estimated when it
    is read, from the newest cloud that covers it, falling back to older
    clouds while the newer estimates are degenerate; a key read again
    searches only the clouds recorded since.  While every cloud is held,
    normals and k equal those of re-estimating every occupied cell on every
    update.  Only recorded keys that have been read get an entry of their
    own, so a read key keeps its cell once its clouds are dropped, and a key
    recorded only in dropped clouds reads as empty.  `skipped_degenerate`
    counts degenerate estimates as reads find them, so an estimate
    superseded before any read is never counted; every cell of a cloud too
    small to estimate counts at once.
    """

    def __init__(self, cell_size: float = 0.10, k_min: int = K_MIN, k_max: int = 60):
        if not (0.0 < cell_size < math.inf and math.isfinite(SEARCH_RADIUS / cell_size)):
            raise ValueError(f"cell_size must be positive and finite, and SEARCH_RADIUS / "
                             f"cell_size finite, got {cell_size!r}")
        if not 3 <= k_min < k_max:
            raise ValueError("require 3 <= k_min < k_max")
        self.cell_size = float(cell_size)
        self.k_min = int(k_min)
        self.k_max = int(k_max)
        self._frames: dict[int, _Frame] = {}       # the newest MAX_FRAMES, by id
        self._next_id = 0                          # id of the next frame recorded
        # each read key that held a record: its cell, and the id of the first
        # frame not yet searched for its records (every older one holds none)
        self._read: dict[tuple[int, int], tuple[MapCell | None, int]] = {}
        self.skipped_degenerate = 0

    @property
    def cells(self) -> Mapping[tuple[int, int], MapCell]:
        """Estimated cells in (ix, iy) key order.

        `key in cells` and `cells[key]` estimate that key only; iteration,
        `len` and `items` estimate every recorded cell.
        """
        return _Cells(self)

    def key_of(self, x: float, y: float) -> tuple[int, int]:
        """Cell key of (x, y); a ValueError if it is not finite or its key reaches 2**62."""
        fx, fy = x / self.cell_size, y / self.cell_size
        if not (abs(fx) < 2.0**62 and abs(fy) < 2.0**62):
            raise ValueError(f"point ({x:g}, {y:g}) is not finite or beyond the int64 cell keys")
        return math.floor(fx), math.floor(fy)

    def update(self, cloud: PointCloud) -> int:
        """Record every cell occupied by the cloud; untouched cells persist.

        Each cell is queried at its centre and the mean height of its points.
        The estimate is made on the cell's first read, so update searches
        no neighbors.  Returns the number of cells recorded: the number an
        eager re-estimate would write when no cell is degenerate (telling
        them apart needs the estimates).  A cloud with fewer than k_min points
        records nothing and counts every cell it occupies as degenerate.
        """
        if len(cloud) == 0:
            raise ValueError("cannot update the map from an empty cloud")
        xy = cloud.points[:, :2]
        (lx, ly), (hx, hy) = self.key_of(*xy.min(axis=0)), self.key_of(*xy.max(axis=0))
        if (hx - lx + 1) * (hy - ly + 1) >= 2**62:
            raise ValueError("point cloud too wide for the map's int64 cell keys")
        ixy = np.floor(xy / self.cell_size).astype(np.int64)
        # the occupied cells, each as one int64 over the cloud's key box,
        # which sorts as its (ix, iy) key does; np.unique would load numpy.ma
        codes = np.sort((ixy[:, 0] - lx) * (hy - ly + 1) + (ixy[:, 1] - ly))
        codes = codes[np.append(True, codes[1:] != codes[:-1])]
        if len(cloud) < self.k_min:
            self.skipped_degenerate += len(codes)
            return 0
        self._frames[self._next_id] = _Frame(cloud, codes, lx, ly, hx, hy)
        self._next_id += 1
        if len(self._frames) > MAX_FRAMES:
            del self._frames[next(iter(self._frames))]
        return len(codes)

    def _estimate(self, key: tuple[int, int], frame: _Frame) -> MapCell | None:
        """The cell of a key the frame holds: estimate_normal at the cell's
        centre and the mean height of the frame's points in it, or None when
        degenerate."""
        pts = frame.cloud.points
        z = pts[(np.floor(pts[:, :2] / self.cell_size) == key).all(axis=1), 2].tolist()
        query = np.array([(key[0] + 0.5) * self.cell_size, (key[1] + 0.5) * self.cell_size,
                          sum(z) / len(z)])              # heights summed in point order
        est = estimate_normal(frame.cloud, query, self.k_min, self.k_max)
        if est is None:
            self.skipped_degenerate += 1
            return None
        return MapCell(normal=est[0], k=est[1])

    def _resolve(self, key: tuple[int, int]) -> MapCell | None:
        """The key's cell from its newest non-degenerate estimate; searches
        only the frames recorded since the key was last read, newest first."""
        cell, since = self._read.get(key, (None, 0))
        if since == self._next_id:
            return cell
        found = False
        for frame_id, frame in reversed(self._frames.items()):
            if frame_id < since:
                break
            if frame.holds(*key):
                found = True
                made = self._estimate(key, frame)
                if made is not None:
                    cell = made
                    break
        if found or key in self._read:
            self._read[key] = cell, self._next_id
        return cell

    def _near(self, x: float, y: float, kx: int, ky: int):
        """Keys within SEARCH_RADIUS of (x, y), whose key is (kx, ky), that
        may hold a cell, in (distance, key) order: the read keys that hold
        one and the keys of the frames' records, some of them more than once."""
        r = math.ceil(SEARCH_RADIUS / self.cell_size) + 1
        x0, x1, y0, y1 = kx - r, kx + r, ky - r, ky + r
        near = [f.keys(x0, x1) for f in self._frames.values()
                if f.lx <= x1 and x0 <= f.hx and f.ly <= y1 and y0 <= f.hy]
        near.append(np.array([key for key, (cell, _) in self._read.items()
                              if cell is not None and x0 <= key[0] <= x1],
                             dtype=np.int64).reshape(-1, 2).T)
        ix, iy = np.concatenate([k[0] for k in near]), np.concatenate([k[1] for k in near])
        dx, dy = (ix + 0.5) * self.cell_size - x, (iy + 0.5) * self.cell_size - y
        d2 = dx * dx + dy * dy
        inside = d2 <= SEARCH_RADIUS**2
        ix, iy, d2 = ix[inside], iy[inside], d2[inside]
        for i in np.lexsort((iy, ix, d2)):
            yield int(ix[i]), int(iy[i])

    def _keys(self) -> list[tuple[int, int]]:
        """Every key that may hold a cell, in key order."""
        keys = set(self._read)
        for f in self._frames.values():
            ix, iy = f.keys(f.lx, f.hx)
            keys.update(zip(ix.tolist(), iy.tolist()))
        return sorted(keys)

    def lookup(self, x: float, y: float) -> np.ndarray | None:
        """Normal of the cell at (x, y), falling back to the nearest occupied
        cell within SEARCH_RADIUS, the least (ix, iy) key among equally near
        ones; None when nothing is found.

        The fallback estimates the recorded keys around (x, y) in that order
        and stops at the first non-degenerate cell.
        """
        key = self.key_of(x, y)
        cell = self._resolve(key)
        if cell is None:
            for near in self._near(x, y, *key):
                cell = self._resolve(near)
                if cell is not None:
                    break
        return None if cell is None else cell.normal.copy()


class _Cells(Mapping):
    """The estimated cells of a NormalMap, read-only; see NormalMap.cells."""

    def __init__(self, nmap: NormalMap):
        self._nmap = nmap

    def __getitem__(self, key: tuple[int, int]) -> MapCell:
        cell = self._nmap._resolve(key)
        if cell is None:
            raise KeyError(key)
        return cell

    def __iter__(self):
        nmap = self._nmap
        return iter([key for key in nmap._keys() if nmap._resolve(key) is not None])

    def __len__(self) -> int:
        return sum(1 for _ in self)


@dataclass
class NormalFilter:
    """Exponential moving average over queried normals (low-pass)."""

    alpha: float = 0.1
    value: np.ndarray = field(default_factory=lambda: UP.copy())
    initialized: bool = False

    def push(self, n: np.ndarray) -> np.ndarray:
        if not self.initialized:
            self.value = np.asarray(n, dtype=float).copy()
            self.initialized = True
        else:
            blended = (1.0 - self.alpha) * self.value + self.alpha * np.asarray(n, float)
            self.value = blended / np.linalg.norm(blended)
        return self.value.copy()


def query_normal(nmap: NormalMap, position_xy: np.ndarray, heading: np.ndarray,
                 lookahead: float, filt: NormalFilter) -> np.ndarray:
    """Filtered map normal at `position + lookahead * heading` (total with
    vertical fallback when the map is empty there)."""
    h = np.asarray(heading, dtype=float)[:2]
    nh = np.linalg.norm(h)
    target = np.asarray(position_xy, dtype=float)[:2]
    if nh > 1e-12:
        target = target + lookahead * h / nh
    n = nmap.lookup(target[0], target[1])
    if n is None:
        n = UP.copy()
    return filt.push(n)


def incline_angle(n: np.ndarray) -> float:
    """Inclination of an upward unit normal, in degrees."""
    return math.degrees(math.acos(min(max(float(n[2]), -1.0), 1.0)))
