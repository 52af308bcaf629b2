"""The paper's exponential grids (Section 3) and condition (3).

Around each center x_i ∈ X: squares Q_{i,j} of side 2^j·Φ (j = 0 … 2log(αn)),
annuli V_{i,j} = Q_{i,j} \\ Q_{i,j-1}, each gridded with cells of side
ε'·2^j·Φ / (c_g·α·√d), so diam(cell) ≤ ε'·2^j·Φ/(c_g·α). The paper's side
ε'·2^j·Φ/(10·α·d) is smaller still; c_g is a practical constant (2 for
Algorithm 2, 0.3 for Algorithm 1) — see DESIGN.md substitution 3.

A cell is its annulus level j and integer coordinates in the level's grid,
anchored at the lower corner of Q_{i,j}; ``cell_corners`` turns arrays of
them into (m, d) lo/hi corner arrays, the form ``condition3`` takes. Two
enumeration modes:
- ``enumerate_cells``: the corners of all cells of a level intersecting a
  bounding box (Algorithm 1, exact/deterministic path);
- ``candidate_cells_from_points``: only cells containing at least one of the
  given points, found by snapping points to cell coordinates (Algorithm 2's
  pooled path — a cell with no sample can only ever be light).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.geometry.boxes import Box, dist_points_boxes


@dataclass(frozen=True)
class GridParams:
    """Geometry of the exponential grid around one clustering instance.

    phi: the base scale Φ (r/(αn) for k-median, sqrt(r/(αn)) for k-means).
    eps_prime: the ε' grid resolution parameter.
    alpha: approximation factor of the input center set X.
    d: dimension of the clustering (sub)space A_u.
    c_g: grid-divisor constant (paper: 10; practical default smaller).
    """

    phi: float
    eps_prime: float
    alpha: float
    d: int
    c_g: float = 2.0

    def cell_side(self, j):
        """Side length of grid cells in annulus V_{i,j} (j: int or array)."""
        return self.eps_prime * (2.0**j) * self.phi / (self.c_g * self.alpha * np.sqrt(self.d))

    def half_extent(self, j):
        """Half side of Q_{i,j} (side 2^j Φ; j: int or array)."""
        return (2.0**j) * self.phi / 2.0

    def max_level(self, n: int) -> int:
        """2·log2(αn), the paper's outermost annulus index."""
        return max(1, int(np.ceil(2 * np.log2(max(2.0, self.alpha * n)))))

    def level_of(self, dist_inf: np.ndarray) -> np.ndarray:
        """Annulus index of points at L∞ distance ``dist_inf`` from x_i:
        the smallest j with dist_inf ≤ half_extent(j)."""
        with np.errstate(divide="ignore"):
            j = np.ceil(np.log2(np.maximum(dist_inf, 1e-300) / (self.phi / 2.0)))
        return np.maximum(j, 0).astype(np.int64)


def cell_corners(
    x: np.ndarray, levels: np.ndarray, coords: np.ndarray, params: GridParams
) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper corners, (m, d) each, of the cells with annulus levels
    ``levels`` (m,) and integer coordinates ``coords`` (m, d) around x."""
    side = params.cell_side(levels)[:, None]
    lo = np.asarray(x, dtype=float) - params.half_extent(levels)[:, None] + coords * side
    return lo, lo + side


def snap_points(
    x: np.ndarray, P: np.ndarray, params: GridParams, j_cap: int
) -> tuple[np.ndarray, np.ndarray]:
    """Assign each point its annulus level and cell coordinates around x.

    Returns (levels (n,), coords (n, d) int). Levels are capped at ``j_cap``
    (points beyond the outermost annulus land in it — they can only exist when
    r under-estimates v_X, and the cap keeps them covered). Works one column
    of P at a time; the L∞ norm is an ``np.maximum`` chain over columns.
    """
    dist_inf = np.zeros(len(P))
    for c in range(P.shape[1]):
        np.maximum(dist_inf, np.abs(P[:, c] - x[c]), out=dist_inf)
    levels = np.minimum(params.level_of(dist_inf), j_cap)
    js = np.arange(levels.max(initial=0) + 1)  # per-level tables, looked up per point
    half, side = params.half_extent(js)[levels], params.cell_side(js)[levels]
    coords = np.empty(P.shape, dtype=np.int64)
    for c in range(P.shape[1]):
        coords[:, c] = np.floor((P[:, c] - (x[c] - half)) / side)
    return levels, coords


# The packed (level, coords, position) key must fit an int64 to be exact.
_INT64_MAX = int(np.iinfo(np.int64).max)


def candidate_cells_from_points(
    x: np.ndarray, P: np.ndarray, idx: np.ndarray, params: GridParams, j_cap: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Cells of the grid around ``x`` containing ≥1 of the points ``P[idx]``.

    Returns (levels (m,), coords (m, d), order (n,), starts (m,)) with the
    cells ordered by (level, coords) — the processing order of Algorithm 2
    restricted to non-empty cells. ``order`` holds the entries of ``idx``
    grouped by cell, in their ``idx`` order within a cell, and cell c's
    entries are ``order[starts[c]:starts[c + 1]]`` (the last cell's run to
    the end).

    Each point's cell (level, coords) is packed in mixed radix into one
    int64 above the point's position, so one sort of those keys is the
    stable lexicographic order. Where the packed key would overflow int64
    it would not be exact, and the rows are ``lexsort``-ed instead.
    """
    if len(idx) == 0:
        empty = np.zeros(0, np.int64)
        return empty, np.zeros((0, P.shape[1]), np.int64), idx[:0], empty
    levels, coords = snap_points(x, P[idx], params, j_cap)
    cols = [levels, *coords.T]
    lo = [int(c.min()) for c in cols]
    span = [int(c.max()) - m + 1 for c, m in zip(cols, lo)]
    shift = (len(idx) - 1).bit_length()
    if math.prod(span) << shift <= _INT64_MAX:
        key = cols[0] - lo[0]
        for c, m, s in zip(cols[1:], lo[1:], span[1:]):
            key = key * s + (c - m)
        key = np.sort((key << shift) | np.arange(len(idx)))
        order = key & ((1 << shift) - 1)
        key >>= shift
        new = key[1:] != key[:-1]
    else:
        keys = np.column_stack(cols)
        order = np.lexsort(keys.T[::-1])  # stable; level first, then coords
        keys = keys[order]
        new = (keys[1:] != keys[:-1]).any(axis=1)
    # A cell starts wherever the sorted (level, coords) key changes.
    starts = np.flatnonzero(np.r_[True, new])
    first = order[starts]
    return levels[first], coords[first], idx[order], starts


def enumerate_cells(
    x: np.ndarray, j: int, params: GridParams, bbox: Box, max_cells: int = 200_000
) -> tuple[np.ndarray, np.ndarray]:
    """Corners (los, his) of all cells of annulus V_{x,j} intersecting
    ``bbox`` (Algorithm 1 path), first coordinate varying fastest.

    Skips cells entirely inside Q_{x,j-1} (the annulus hole) for j ≥ 1.
    """
    x = np.asarray(x, dtype=float)
    side = params.cell_side(j)
    h = params.half_extent(j)
    anchor = x - h
    b_lo, b_hi = np.asarray(bbox.lo), np.asarray(bbox.hi)
    lo_idx = np.floor((np.maximum(b_lo, anchor) - anchor) / side).astype(int)
    hi_idx = np.ceil((np.minimum(b_hi, anchor + 2 * h) - anchor) / side).astype(int)
    hi_idx = np.minimum(hi_idx, int(np.ceil(2 * h / side)))
    lo_idx = np.maximum(lo_idx, 0)
    if np.any(hi_idx <= lo_idx):
        return np.zeros((0, len(x))), np.zeros((0, len(x)))
    counts = hi_idx - lo_idx
    if int(np.prod(counts)) > max_cells:
        raise RuntimeError(f"level {j}: {int(np.prod(counts))} cells exceeds max_cells")
    coords = np.indices(counts).reshape(len(counts), -1, order="F").T + lo_idx
    los, his = cell_corners(x, np.full(len(coords), j), coords, params)
    keep = (np.maximum(los, b_lo) < np.minimum(his, b_hi)).all(axis=1)
    if j >= 1:
        # Drop cells fully inside the hole Q_{x,j-1}.
        h_prev = params.half_extent(j - 1)
        keep &= ~((los >= x - h_prev) & (his <= x + h_prev)).all(axis=1)
    return los[keep], his[keep]


def condition3(X: np.ndarray, i: int, los: np.ndarray, his: np.ndarray) -> np.ndarray:
    """The paper's condition (3), φ(x_i, □) ≤ φ(X, □) + diam(□), for each
    cell □ given by a row of the (m, d) corner arrays; an (m,) bool mask."""
    dists = dist_points_boxes(X, los, his)  # (|X|, m)
    diams = np.sqrt(((his - los) ** 2).sum(axis=1))
    return dists[i] <= dists.min(axis=0) + diams
