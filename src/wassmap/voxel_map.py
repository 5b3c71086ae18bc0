"""Voxelized Gaussian map stored as one row table: sorted keys and their sums.

Row r of a `GmmMap` describes one occupied voxel:

    keys[r]       packed int64 cell index; rows are sorted by key
    sums[r, 0]    point count n, an integer held in float64 (exact below 2^53)
    sums[r, 1:4]  s, the sum of (p - c) over the voxel's points
    sums[r, 4:]   q, the sum of (p - c)(p - c)^T, upper triangle xx xy xz yy yz zz

where c = (cell + 0.5) * voxel_size is the voxel's centre and
cell = floor(p / voxel_size) per axis. Anchoring the sums at the centre keeps
them small at georeferenced coordinates (UTM northings near 1e6 m), where raw
sums of p and p p^T cancel catastrophically once the covariance is formed
(Chan, Golub & LeVeque 1983). The anchor depends only on the key, so
incremental and batch builds agree to floating-point reassociation error.

Keys are packed relative to the origin, the cell of the first point the map
receives, at 21 bits per axis: each relative index must lie in
[-2^20, 2^20), about +-524 km from the first voxel at 0.5 m voxels. A point
outside that range raises `ValueError` naming its voxel; keys never wrap.
Packed order is lexicographic (i, j, k) order.

Every point set is grouped once, by counting over its box of cells as iVox
does (Faster-LIO, Bai et al. 2022) or, for a box too large, with `np.unique`,
and summed with `np.bincount` into one (K, 10) table; `_group` says which
runs when. A stage joins the frame's keys against the map's with one
`searchsorted` and leaves the map untouched; commit reuses that join: it adds
the matched rows in place and inserts the new rows into both arrays at their
join positions; pruning keeps the rows whose cell centre lies within the
radius. Single writer per map; reads of the base during an open stage are
fine. `moments` packs covariances like q.

The map also keeps a box of cells that holds every occupied cell: commit
grows it by the frame's cell range, found while grouping; prune leaves it as
it is. When the box's farthest cell centre lies within the pruning radius,
no row can lie outside it and prune skips the scan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from wassmap.geometry import as_points

_AXIS_BITS = 21
_KEY_BIAS = 1 << (_AXIS_BITS - 1)
_AXIS_MASK = (1 << _AXIS_BITS) - 1
# entry (a, b) of a 3x3 outer product lives in column _UPPER[a, b] of q
_UPPER = np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])
_UPPER_PAIRS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
_ROW, _COL = np.array(_UPPER_PAIRS).T


class InsufficientPointsError(ValueError):
    """Moments requested for a voxel with fewer than two points."""


class StaleStageError(RuntimeError):
    """Commit of a stage whose base map has changed since staging."""


def moments(sums) -> tuple[np.ndarray, np.ndarray]:
    """Batched means and sample covariances from per-voxel rows ``[n | s | q]``.

    ``sums`` (M,10) as a `GmmMap` stores them. Returns ``mu`` (M,3), relative
    to the anchor the sums were taken about, and ``cov`` (M,6), the covariance
    packed in q's column order, which does not depend on the anchor;
    ``cov[:, _UPPER]`` is the full (M,3,3) matrix. The covariance divides by
    n-1, so every voxel needs n >= 2.
    """
    sums = np.asarray(sums, dtype=float)
    n = sums[:, 0]
    if n.size and n.min() < 2:
        raise InsufficientPointsError("sample covariance needs at least 2 points per voxel")
    mu = sums[:, 1:4] / n[:, None]
    centered = sums[:, 4:] - n[:, None] * (mu[:, _ROW] * mu[:, _COL])
    return mu, centered / (n - 1.0)[:, None]


def _group(points, voxel_size: float, origin):
    """Reduce a point set to per-voxel deltas with sorted packed keys.

    Non-finite rows are dropped and counted. ``origin`` is the map's origin
    cell, or None for a map that has none yet, in which case the cell of the
    first finite point becomes the origin. Returns (origin, keys (K,), sums
    (K,10) with rows as a `GmmMap` holds them, box (2,3): least and greatest
    cell per axis, rejected).

    A box of cells with extents e and at most 4 cells per point, as a LiDAR
    frame has, is counted over: its index ((i - i0) e1 + j - j0) e2 + k - k0
    runs in key order. A larger box, as one far return makes, would need
    tables that grow with it, so those points sort a key each. Both routes
    give the same keys, counts and inverse, hence the same sums.
    """
    pts = as_points(points)
    rejected = 0
    if not np.isfinite(pts).all():
        finite = np.isfinite(pts).all(axis=1)
        rejected = len(pts) - int(finite.sum())
        pts = pts[finite]
    if not len(pts):
        none, box = np.empty(0, dtype=np.int64), np.array([[np.inf] * 3, [-np.inf] * 3])
        return origin, none, np.empty((0, 10)), box, rejected
    # One (3, N) buffer, a contiguous row per axis, holds the cell indices and
    # then each point's offset from its cell centre. Every frame-sized
    # temporary saved here is memory the allocator need not take from the
    # kernel again on the next frame.
    cells = np.empty((3, len(pts)))
    np.floor(np.divide(pts.T, voxel_size, out=cells), out=cells)
    if origin is None:
        origin = cells[:, 0].copy()
    box = np.stack([cells.min(axis=1), cells.max(axis=1)])
    if (box[0] - origin < -_KEY_BIAS).any() or (box[1] - origin >= _KEY_BIAS).any():
        rel = cells.T - origin
        row = ((rel < -_KEY_BIAS) | (rel >= _KEY_BIAS)).any(axis=1).argmax()
        raise ValueError(
            f"voxel {tuple(int(v) for v in cells[:, row])} is 2^20 or more cells "
            f"from the map origin voxel {tuple(int(v) for v in origin)}")
    extent = box[1] - box[0] + 1.0
    counted = extent.prod() <= 4 * len(pts)
    if counted:  # every term is an integer below 2^53, so exact in float64
        radix = np.array([extent[1] * extent[2], extent[2], 1.0])
        loc = (radix @ (cells - box[0][:, None])).astype(np.intp)
        counts = np.bincount(loc, minlength=int(extent.prod()))
        occupied = np.flatnonzero(counts > 0)  # nonzero runs faster on bools
        rank = np.empty(len(counts), dtype=np.intp)
        rank[occupied] = np.arange(len(occupied))
        inverse, n = rank[loc], counts[occupied]
        ij, k = np.divmod(occupied, int(extent[2]))
        rel = np.stack([*np.divmod(ij, int(extent[1])), k])
        rel += (box[0] - origin).astype(np.int64)[:, None]
    else:
        rel = np.empty((3, len(pts)), dtype=np.int64)
        np.subtract(cells, origin[:, None], out=rel, casting="unsafe")
    rel += _KEY_BIAS
    keys = rel[0] << (2 * _AXIS_BITS)
    keys |= rel[1] << _AXIS_BITS
    keys |= rel[2]
    del rel
    if not counted:
        keys, inverse, n = np.unique(keys, return_inverse=True, return_counts=True)
    d = cells
    d += 0.5
    d *= voxel_size
    np.subtract(pts.T, d, out=d)
    sums = np.empty((len(keys), 10))
    sums[:, 0] = n
    for c in range(3):
        sums[:, 1 + c] = np.bincount(inverse, weights=d[c], minlength=len(keys))
    for c, (i, j) in enumerate(_UPPER_PAIRS, start=4):
        sums[:, c] = np.bincount(inverse, weights=d[i] * d[j], minlength=len(keys))
    return origin, keys, sums, box, rejected


@dataclass
class StagedUpdate:
    """One candidate frame's per-voxel deltas, joined against a base map.

    ``keys``, ``hit``, ``at`` and ``sums`` are aligned: one entry per voxel the
    frame touches, in key order, with ``sums`` rows as a `GmmMap` holds them.
    ``at`` is the join, the base map's `searchsorted` position of each key:
    the base row of a hit voxel, the insertion point of a new one; the base
    version pins it until commit. ``origin`` is the base map's origin, or the
    one this stage chose if the base map had none. ``box`` is as `_group`'s.
    """

    base: "GmmMap"
    base_version: int
    origin: np.ndarray | None
    keys: np.ndarray
    hit: np.ndarray
    at: np.ndarray
    sums: np.ndarray
    box: np.ndarray
    rejected: int

    @property
    def point_count(self) -> int:
        return int(self.sums[:, 0].sum())


class GmmMap:
    """Sorted packed voxel keys with a parallel (M,10) table of count, sum and outer sum."""

    def __init__(self, voxel_size: float = 4.0):
        if not 0.0 < voxel_size < np.inf:
            raise ValueError("voxel_size must be finite and positive")
        self.voxel_size = float(voxel_size)
        self.origin: np.ndarray | None = None
        self._keys = np.empty(0, dtype=np.int64)
        self.sums = np.empty((0, 10))
        self._box = np.array([[np.inf] * 3, [-np.inf] * 3])  # min and max cell
        self.version = 0

    def __len__(self) -> int:
        return len(self._keys)

    @property
    def total_points(self) -> int:
        return int(self.sums[:, 0].sum())

    def cells(self, rows=None) -> np.ndarray:
        """(M,3) float array of each row's cell index (i, j, k), or of ``rows``."""
        if self.origin is None:
            return np.empty((0, 3))
        keys = self._keys if rows is None else self._keys[rows]
        b = np.stack([keys >> (2 * _AXIS_BITS), (keys >> _AXIS_BITS) & _AXIS_MASK,
                      keys & _AXIS_MASK], axis=1)
        return (b - _KEY_BIAS) + self.origin

    def centres(self) -> np.ndarray:
        """(M,3) centre of each row's cell, the anchor of its sums."""
        return (self.cells() + 0.5) * self.voxel_size

    def insert_points(self, points) -> int:
        """Bulk insert; returns the number of accepted points."""
        stage = self.stage_frame(points)
        self.commit(stage)
        return stage.point_count

    def stage_frame(self, points) -> StagedUpdate:
        """Group a frame's points and join them against the map.

        Points must already be in the map frame. The base map is not modified.
        """
        origin, keys, sums, box, rejected = _group(points, self.voxel_size, self.origin)
        at = np.searchsorted(self._keys, keys)
        hit = at < len(self._keys)
        hit[hit] = self._keys[at[hit]] == keys[hit]
        return StagedUpdate(self, self.version, origin, keys, hit, at, sums, box, rejected)

    def commit(self, stage: StagedUpdate) -> None:
        """Adopt a stage's deltas. Rejects stages from another map state."""
        if stage.base is not self or stage.base_version != self.version:
            raise StaleStageError("stage was built against a different map state")
        hit = stage.hit
        self.sums[stage.at[hit]] += stage.sums[hit]
        self.origin = stage.origin  # chosen by the stage when the map had none
        new = ~hit
        if new.any():
            # each new key goes before base row at, its join position; np.insert
            # shifts every position by the new rows inserted ahead of it
            self._keys = np.insert(self._keys, stage.at[new], stage.keys[new])
            self.sums = np.insert(self.sums, stage.at[new], stage.sums[new], axis=0)
            # hit cells already lie inside the box
            self._box = np.stack([np.minimum(self._box[0], stage.box[0]),
                                  np.maximum(self._box[1], stage.box[1])])
        self.version += 1

    def prune_outside(self, center, radius: float) -> int:
        """Drop voxels whose cell center is farther than radius from center."""
        if not radius > 0.0:
            raise ValueError("radius must be positive")
        if not len(self):
            return 0
        center = np.asarray(center, dtype=float).reshape(3)
        # per axis the farthest centre is at a box face; rounding is monotone,
        # so no row's distance, computed as below, exceeds the face's
        far = np.abs((self._box + 0.5) * self.voxel_size - center).max(axis=0)
        if np.linalg.norm(far[None], axis=1)[0] <= radius:
            return 0
        outside = np.linalg.norm(self.centres() - center, axis=1) > radius
        removed = int(outside.sum())
        if removed:
            keep = ~outside
            self._keys, self.sums = self._keys[keep], self.sums[keep]
            self.version += 1
        return removed
