"""The eager normal map, kept as the test oracle of the lazy
:class:`wbcsim.terrain_estimation.NormalMap`.

Each ``update`` estimates every cell the cloud occupies, right away: one
k_max tree query for all cells, then the closed-form eigenvalues and the
entropy scan batched over UPDATE_CHUNK cells at a time, and each cell's
normal from its chosen k's eigenvalues.  A cell whose estimate is
degenerate keeps its older estimate.  The lookup
fallback scans every key and takes the nearest cell, the least (ix, iy)
key among equally near ones; `cells` keeps insertion order, so the tests
compare it sorted with `estimated_cells` of the lazy map, which estimates
every cell the lazy map would serve, in key order.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from wbcsim.terrain_estimation import (SEARCH_RADIUS, MapCell, NormalMap, PointCloud,
                                       _eigenvalues, _min_entropy_index, _oriented_normal,
                                       _prefix_covariances)

UPDATE_CHUNK = 64          # cells per batch in EagerNormalMap.update


def estimated_cells(nmap: NormalMap) -> dict[tuple[int, int], MapCell]:
    """Every cell of the lazy map, in (ix, iy) key order: each key of its
    `cells`, its search marks and its held frames' records, read as a lookup
    reads it, degenerate keys left out."""
    keys = set(nmap.cells).union(nmap._since)
    for f in nmap._frames.values():
        ix, iy = f.keys(f.lx, f.hx)
        keys.update(zip(ix.tolist(), iy.tolist()))
    cells = {key: nmap._resolve(key) for key in sorted(keys)}
    return {key: cell for key, cell in cells.items() if cell is not None}


class EagerNormalMap:
    """Sparse 2D grid of ground normals, re-estimated on every update."""

    def __init__(self, cell_size: float = 0.10, k_min: int = 10, k_max: int = 60):
        self.cell_size = float(cell_size)
        self.k_min = int(k_min)
        self.k_max = int(k_max)
        self.cells: dict[tuple[int, int], MapCell] = {}
        self.skipped_degenerate = 0

    def key_of(self, x: float, y: float) -> tuple[int, int]:
        return (int(np.floor(x / self.cell_size)), int(np.floor(y / self.cell_size)))

    def update(self, cloud: PointCloud) -> int:
        """Re-estimate every cell occupied by the cloud; returns the number
        of cells written.  Degenerate cells are skipped and counted."""
        if len(cloud) == 0:
            raise ValueError("cannot update the map from an empty cloud")
        pts = cloud.points
        ixy = np.floor(pts[:, :2] / self.cell_size).astype(np.int64)
        # occupied cells in order of first appearance, their counts and z sums
        uniq, first, inverse, counts = np.unique(
            ixy, axis=0, return_index=True, return_inverse=True, return_counts=True)
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        cell_of = rank[inverse.ravel()]
        keys, counts = uniq[order], counts[order]
        z_sum = np.bincount(cell_of, weights=pts[:, 2], minlength=len(keys))
        if len(cloud) < self.k_min:
            self.skipped_degenerate += len(keys)
            return 0

        queries = np.column_stack([(keys + 0.5) * self.cell_size, z_sum / counts])
        _, idx = cKDTree(pts).query(queries, k=min(self.k_max, len(cloud)))
        idx = idx.reshape(len(keys), -1)
        written = 0
        # cells in chunks bound the (cells, k, 6, 3) temporaries
        for lo in range(0, len(keys), UPDATE_CHUNK):
            ks, cov = _prefix_covariances(pts[idx[lo:lo + UPDATE_CHUNK]], self.k_min)
            lam = _eigenvalues(cov)
            best = _min_entropy_index(lam)
            for i, b in enumerate(best.tolist()):
                normal = _oriented_normal(cov[i, b], lam[i, b])
                if normal is None:        # collinear
                    self.skipped_degenerate += 1
                    continue
                key = (int(keys[lo + i, 0]), int(keys[lo + i, 1]))
                self.cells[key] = MapCell(normal=normal, k=int(ks[b]))
                written += 1
        return written

    def lookup(self, x: float, y: float) -> np.ndarray | None:
        """Normal of the cell at (x, y), falling back to the nearest occupied
        cell within SEARCH_RADIUS, the least (ix, iy) key among equally near
        ones; None when nothing is found."""
        cell = self.cells.get(self.key_of(x, y))
        if cell is not None:
            return cell.normal.copy()
        if not self.cells:
            return None
        keys = list(self.cells.keys())
        centers = (np.array(keys) + 0.5) * self.cell_size
        d2 = ((centers - [x, y]) ** 2).sum(axis=1)
        d2_min, key = min(zip(d2.tolist(), keys))      # equally near: least key
        if d2_min <= SEARCH_RADIUS**2:
            return self.cells[key].normal.copy()
        return None
