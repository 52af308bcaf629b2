"""The paper's exponential grids (Section 3) and condition (3).

Around each center x_i ∈ X: squares Q_{i,j} of side 2^j·Φ (j = 0 … 2log(αn)),
annuli V_{i,j} = Q_{i,j} \\ Q_{i,j-1}, each gridded with cells of side
ε'·2^j·Φ / (c_g·α·√d). With c_g = 10·... the paper's divisor 10·α·d_u is
recovered (diam(cell) ≤ ε'·2^j·Φ/(c_g·α)); the default c_g is a practical
constant — see DESIGN.md substitution 3.

Two enumeration modes:
- ``enumerate_cells``: all grid cells of a level intersecting a bounding box
  (Algorithm 1, exact/deterministic path);
- ``candidate_cells_from_points``: only cells containing at least one of the
  given points, found by snapping points to cell coordinates (Algorithm 2's
  pooled path — a cell with no sample can only ever be light).
"""
from __future__ import annotations

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

    def cell_side(self, j: int) -> float:
        """Side length of grid cells in annulus V_{i,j}."""
        return self.eps_prime * (2.0**j) * self.phi / (self.c_g * self.alpha * np.sqrt(self.d))

    def half_extent(self, j: int) -> float:
        """Half side of Q_{i,j} (side 2^j Φ)."""
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


def cell_box(x: np.ndarray, j: int, coords: tuple[int, ...], params: GridParams) -> Box:
    """The box of the grid cell with integer ``coords`` in annulus V_{x,j}
    (anchored at the lower corner of Q_{x,j})."""
    side = params.cell_side(j)
    anchor = np.asarray(x, dtype=float) - params.half_extent(j)
    lo = anchor + np.asarray(coords, dtype=float) * side
    return Box(tuple(lo), tuple(lo + side))


def snap_points(
    x: np.ndarray, P: np.ndarray, params: GridParams, j_cap: int
) -> tuple[np.ndarray, np.ndarray]:
    """Assign each point its annulus level and cell coordinates around x.

    Returns (levels (n,), coords (n, d) int). Levels are capped at ``j_cap``
    (points beyond the outermost annulus land in it — they can only exist when
    r under-estimates v_X, and the cap keeps them covered).
    """
    diff = P - x[None, :]
    dist_inf = np.abs(diff).max(axis=1)
    levels = np.minimum(params.level_of(dist_inf), j_cap)
    coords = np.empty_like(P, dtype=np.int64)
    for j in np.unique(levels):
        mask = levels == j
        side = params.cell_side(int(j))
        anchor = x - params.half_extent(int(j))
        coords[mask] = np.floor((P[mask] - anchor[None, :]) / side).astype(np.int64)
    return levels, coords


def candidate_cells_from_points(
    x: np.ndarray, P: np.ndarray, idx: np.ndarray, params: GridParams, j_cap: int
) -> list[tuple[int, tuple[int, ...], np.ndarray]]:
    """Cells of the grid around ``x`` containing ≥1 of the points ``P[idx]``.

    Returns [(level, coords, member_idx)] ordered by (level, coords) — the
    processing order of Algorithm 2 restricted to non-empty cells.
    """
    if len(idx) == 0:
        return []
    levels, coords = snap_points(x, P[idx], params, j_cap)
    keys = np.column_stack([levels, coords])
    order = np.lexsort(keys.T[::-1])  # stable; level first, then coords
    keys = keys[order]
    # A cell starts wherever the sorted (level, coords) key changes.
    starts = np.flatnonzero(np.r_[True, (keys[1:] != keys[:-1]).any(axis=1)])
    members = np.split(idx[order], starts[1:])
    return [
        (int(keys[s, 0]), tuple(keys[s, 1:].tolist()), m)
        for s, m in zip(starts, members)
    ]


def enumerate_cells(
    x: np.ndarray, j: int, params: GridParams, bbox: Box, max_cells: int = 200_000
) -> list[Box]:
    """All cells of annulus V_{x,j} intersecting ``bbox`` (Algorithm 1 path).

    Skips cells entirely inside Q_{x,j-1} (the annulus hole) for j ≥ 1.
    """
    side = params.cell_side(j)
    h = params.half_extent(j)
    anchor = np.asarray(x, dtype=float) - h
    lo_idx = np.floor((np.maximum(np.asarray(bbox.lo), anchor) - anchor) / side).astype(int)
    hi_idx = np.ceil((np.minimum(np.asarray(bbox.hi), anchor + 2 * h) - anchor) / side).astype(int)
    hi_idx = np.minimum(hi_idx, int(np.ceil(2 * h / side)))
    lo_idx = np.maximum(lo_idx, 0)
    if np.any(hi_idx <= lo_idx):
        return []
    counts = hi_idx - lo_idx
    if int(np.prod(counts)) > max_cells:
        raise RuntimeError(f"level {j}: {int(np.prod(counts))} cells exceeds max_cells")
    h_prev = params.half_extent(j - 1) if j >= 1 else None
    cells: list[Box] = []
    for flat in range(int(np.prod(counts))):
        coords = []
        rem = flat
        for c in counts:
            coords.append(rem % int(c))
            rem //= int(c)
        coords = tuple(int(lo_idx[i] + coords[i]) for i in range(len(counts)))
        b = cell_box(np.asarray(x, dtype=float), j, coords, params)
        if h_prev is not None:
            # Drop cells fully inside the hole Q_{x,j-1}.
            inside = all(
                b.lo[i] >= x[i] - h_prev and b.hi[i] <= x[i] + h_prev for i in range(len(x))
            )
            if inside:
                continue
        if b.intersect(bbox) is not None:
            cells.append(b)
    return cells


def condition3(X: np.ndarray, i: int, los: np.ndarray, his: np.ndarray) -> np.ndarray:
    """The paper's condition (3), φ(x_i, □) ≤ φ(X, □) + diam(□), for each
    cell □ given by a row of the (m, d) corner arrays; an (m,) bool mask."""
    dists = dist_points_boxes(X, los, his)  # (|X|, m)
    diams = np.sqrt(((his - los) ** 2).sum(axis=1))
    return dists[i] <= dists.min(axis=0) + diams
