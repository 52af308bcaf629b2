"""Algorithm 1 — RelClusteringSlow: deterministic coreset from many centers.

Two steps. ``processed_cells`` enumerates every grid cell around every
center (not just sampled ones) and keeps those that pass condition (3)
(``grid.condition3``, once per level), in the paper's processing order.
``claim_weights`` then gives each kept cell □ its exact weight
w(□) = |q_u(D) ∩ (□ \\ G)|, G being the union of the cells before it. Per
feature, the sorted cell edges cut the line into elementary intervals, and
one carried counting DP over the interval ids (``subtree_counts``, as for
the Rk-means grid weights) counts every non-empty elementary cell: its
count frames are collected once per relation, and the cells are a pandas
group-by of the root frame. Each elementary cell belongs to the first kept
cell containing it, and one carried ``sample_join`` over the same collected
frames draws a real join result in □ \\ G as □'s representative. The grid
is exponential in d_u by nature, but a node costs one counting DP and one
collect per relation.
"""
from __future__ import annotations

import numpy as np

from repro.core.coreset_fast import Coreset, phi_scale
from repro.geometry.boxes import Box, dist_point_box
from repro.geometry.grid import GridParams, condition3, enumerate_cells
from repro.joins.yannakakis import CNT, RelQuery, collected, sample_join, subtree_counts


def build_coreset_slow(
    Q: RelQuery,
    features_u: list[str],
    X: np.ndarray,
    alpha: float,
    r: float,
    eps_prime: float,
    objective: str,
    *,
    c_g: float = 0.3,
    max_cells: int = 60_000,
    rng: np.random.Generator | None = None,
) -> Coreset:
    """Exact-weight coreset of q_u(D) (Algorithm 1 lines 3–20)."""
    rng = rng or np.random.default_rng(0)
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    n = Q.total_count()
    params = GridParams(
        phi=phi_scale(r, alpha, n, objective),
        eps_prime=eps_prime,
        alpha=alpha,
        d=len(features_u),
        c_g=c_g,
    )
    bounds = Q.feature_bounds()
    pad = 1e-9 + 1e-9 * max(abs(b) for f in features_u for b in bounds[f])
    bbox = Box(
        tuple(bounds[f][0] - pad for f in features_u),
        tuple(bounds[f][1] + pad for f in features_u),
    )
    los, his, n_cells = processed_cells(X, params, bbox, params.max_level(n), max_cells)
    w, pts, n_elementary = claim_weights(Q, features_u, los, his, rng)
    info = {
        "n_cells": n_cells,
        "n_processed": len(los),
        "n_elementary": n_elementary,
        "phi": params.phi,
    }
    return Coreset(pts, w[w > 0].astype(np.float64), info)


def processed_cells(
    X: np.ndarray, params: GridParams, bbox: Box, j_cap: int, max_cells: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """Corners (los, his) of the cells that pass condition (3), in processing
    order (center, level, then ``enumerate_cells`` order), and the number of
    cells enumerated."""
    d = X.shape[1]
    los, his = [np.zeros((0, d))], [np.zeros((0, d))]
    n_cells = 0
    for i in range(len(X)):
        for j in range(j_cap + 1):
            # Annuli strictly outside the data bbox contribute nothing.
            if dist_point_box(X[i], bbox) > params.half_extent(j) * np.sqrt(d):
                continue
            lo, hi = enumerate_cells(X[i], j, params, bbox, max_cells=max_cells)
            n_cells += len(lo)
            if n_cells > max_cells:
                raise RuntimeError(
                    f"Algorithm 1 exceeded max_cells={max_cells}; "
                    "reduce d_u / levels or raise the cap"
                )
            ok = condition3(X, i, lo, hi)
            los.append(lo[ok])
            his.append(hi[ok])
            # Stop once Q_{i,j} covers the whole data bbox — all later
            # annuli are empty of data.
            h = params.half_extent(j)
            if np.all(X[i] - h <= bbox.lo) and np.all(np.asarray(bbox.hi) <= X[i] + h):
                break
    return np.concatenate(los), np.concatenate(his), n_cells


def claim_weights(
    Q: RelQuery,
    features_u: list[str],
    los: np.ndarray,
    his: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Exact weights of the half-open boxes [los[b], his[b]) taken in order:
    w[b] = #join results in box b and in no earlier box (int64, one per box).
    Also returns one join result (the ``features_u`` columns) for each box
    with w[b] > 0, in box order, and the number of non-empty elementary
    cells."""
    eng, tree = Q.engine, Q.tree
    edges = [np.unique(np.r_[los[:, t], his[:, t]]) for t in range(len(features_u))]
    ivs = [f"__iv_{f}" for f in features_u]
    dfs, carry = dict(Q.dfs), {}
    for f, e, iv in zip(features_u, edges, ivs):
        rel = tree.relation_with_attr(f)
        # Half-open intervals [e[i], e[i+1]) get id i, like the boxes.
        dfs[rel] = eng.label_rows(
            dfs[rel], [f], lambda P, e=e: np.searchsorted(e, P[:, 0], side="right") - 1, iv
        )
        carry.setdefault(rel, []).append(iv)
    counts = collected(eng, subtree_counts(eng, tree, dfs, carry))
    cells = counts[tree.root].groupby(ivs, as_index=False)[CNT].sum()  # sorted by ivs
    E = cells[ivs].to_numpy(dtype=np.int64)
    cnt = cells[CNT].to_numpy(dtype=np.int64)
    # Box b spans elementary intervals A[b] ≤ id < B[b] in every feature.
    A = np.column_stack([np.searchsorted(e, los[:, t]) for t, e in enumerate(edges)])
    B = np.column_stack([np.searchsorted(e, his[:, t]) for t, e in enumerate(edges)])
    owner = np.full(len(E), -1)
    free = np.arange(len(E))
    for b in range(len(los)):
        inside = ((E[free] >= A[b]) & (E[free] < B[b])).all(axis=1)
        owner[free[inside]] = b
        free = free[~inside]
    own = owner >= 0
    w = np.zeros(len(los), dtype=np.int64)
    np.add.at(w, owner[own], cnt[own])
    rep = np.flatnonzero(own)[_representatives(E[own], cnt[own], owner[own], edges)]
    pts = sample_join(eng, tree, counts, len(rep), rng, features_u, carry, cells.loc[rep, ivs])
    return w, pts.to_numpy(dtype=np.float64), len(cells)


def _representatives(
    E: np.ndarray, cnt: np.ndarray, owner: np.ndarray, edges: list[np.ndarray]
) -> np.ndarray:
    """For each owning box, in box order, the row of E (elementary cell ids)
    whose midpoint is nearest to the count-weighted mean of the midpoints of
    all the cells that box owns."""
    mid = np.column_stack([(e[:-1] + e[1:])[E[:, t]] / 2 for t, e in enumerate(edges)])
    boxes, box = np.unique(owner, return_inverse=True)
    mean = np.zeros((len(boxes), mid.shape[1]))
    np.add.at(mean, box, cnt[:, None] * mid)
    mean /= np.bincount(box, weights=cnt)[:, None]
    order = np.lexsort((((mid - mean[box]) ** 2).sum(axis=1), box))
    return order[np.unique(box[order], return_index=True)[1]]
