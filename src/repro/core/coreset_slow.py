"""Algorithm 1 — RelClusteringSlow: deterministic coreset from many centers.

Two steps. ``processed_cells`` enumerates every grid cell around every
center (not just sampled ones) and keeps those that pass condition (3)
(``grid.condition3``, once per level), in the paper's processing order.
``claim_weights`` then gives each kept cell □ its exact weight
w(□) = |q_u(D) ∩ (□ \\ G)|, G being the union of the cells before it. Per
feature, the sorted cell edges cut the line into elementary intervals, and
one carried counting DP over the interval ids (``subtree_counts``, as for
the Rk-means grid weights) counts every non-empty elementary cell; the
cells are a pandas group-by of its root frame. Each elementary cell belongs
to the first kept cell containing it, and one carried ``sample_join`` over
the same count frames draws a real join result in □ \\ G as □'s
representative. The DP and the sampler run on the driver over the query's
labelled reduced relations, so a node runs no engine job. The grid is
exponential in d_u by nature, but a node costs one counting DP.
"""
from __future__ import annotations

from itertools import product

import numpy as np

from repro.core.coreset_fast import Coreset, phi_scale
from repro.geometry.boxes import Box, dist_point_box
from repro.geometry.grid import GridParams, condition3, enumerate_cells
from repro.joins.yannakakis import CNT, DRIVER, RelQuery, sample_join, subtree_counts


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
    los, his, n_cells, runs = processed_cells(X, params, bbox, params.max_level(n), max_cells)
    w, pts, n_elementary = claim_weights(Q, features_u, los, his, rng, runs)
    info = {
        "n_cells": n_cells,
        "n_processed": len(los),
        "n_elementary": n_elementary,
        "phi": params.phi,
    }
    return Coreset(pts, w[w > 0].astype(np.float64), info)


def processed_cells(
    X: np.ndarray, params: GridParams, bbox: Box, j_cap: int, max_cells: int
) -> tuple[np.ndarray, np.ndarray, int, np.ndarray]:
    """Corners (los, his) of the cells that pass condition (3), in processing
    order (center, level, then ``enumerate_cells`` order), the number of
    cells enumerated, and the index where each (center, level) grid's run of
    kept cells starts (one run per grid with a kept cell)."""
    d = X.shape[1]
    los, his = [np.zeros((0, d))], [np.zeros((0, d))]
    runs: list[int] = []
    n_cells = n_kept = 0
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
            if ok.any():
                runs.append(n_kept)
                n_kept += int(ok.sum())
            los.append(lo[ok])
            his.append(hi[ok])
            # Stop once Q_{i,j} covers the whole data bbox — all later
            # annuli are empty of data.
            h = params.half_extent(j)
            if np.all(X[i] - h <= bbox.lo) and np.all(np.asarray(bbox.hi) <= X[i] + h):
                break
    return np.concatenate(los), np.concatenate(his), n_cells, np.asarray(runs, dtype=np.int64)


def claim_weights(
    Q: RelQuery,
    features_u: list[str],
    los: np.ndarray,
    his: np.ndarray,
    rng: np.random.Generator,
    runs: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Exact weights of the half-open boxes [los[b], his[b]) taken in order:
    w[b] = #join results in box b and in no earlier box (int64, one per box).
    Also returns one join result (the ``features_u`` columns) for each box
    with w[b] > 0, in box order, and the number of non-empty elementary
    cells.

    ``runs`` (start indices, ascending) cut the box list into runs of
    consecutive boxes, such as the cells of one (center, level) grid, which
    ``_first_boxes`` claims at once; by default every box is its own run.
    Any cut gives the same weights.
    """
    tree = Q.tree
    edges = [np.unique(np.r_[los[:, t], his[:, t]]) for t in range(len(features_u))]
    ivs = [f"__iv_{f}" for f in features_u]
    labels: dict[str, dict] = {}
    for f, e, iv in zip(features_u, edges, ivs):
        # Half-open intervals [e[i], e[i+1]) get id i, like the boxes.
        labels.setdefault(tree.relation_with_attr(f), {})[iv] = (
            lambda t, f=f, e=e: np.searchsorted(e, t[f].to_numpy(np.float64), side="right") - 1
        )
    dfs, carry = Q.labelled(labels)
    counts = subtree_counts(DRIVER, tree, dfs, carry)
    cells = counts[tree.root].groupby(ivs, as_index=False)[CNT].sum()  # sorted by ivs
    E = cells[ivs].to_numpy(dtype=np.int64)
    cnt = cells[CNT].to_numpy(dtype=np.int64)
    # Box b spans elementary intervals A[b] ≤ id < B[b] in every feature.
    A = np.column_stack([np.searchsorted(e, los[:, t]) for t, e in enumerate(edges)])
    B = np.column_stack([np.searchsorted(e, his[:, t]) for t, e in enumerate(edges)])
    owner = _first_boxes(E, A, B, np.arange(len(los)) if runs is None else runs)
    own = owner >= 0
    w = np.zeros(len(los), dtype=np.int64)
    np.add.at(w, owner[own], cnt[own])
    rep = np.flatnonzero(own)[_representatives(E[own], cnt[own], owner[own], edges)]
    pts = sample_join(Q.engine, tree, counts, len(rep), rng, features_u, carry, cells.loc[rep, ivs])
    return w, pts.to_numpy(dtype=np.float64), len(cells)


def _first_boxes(E: np.ndarray, A: np.ndarray, B: np.ndarray, runs: np.ndarray) -> np.ndarray:
    """For each row of E (elementary cell ids), the least b with
    A[b] ≤ E < B[b] in every feature, or -1: the runs are claimed in order,
    each over the cells that no earlier run holds."""
    owner = np.full(len(E), -1)
    free = np.arange(len(E))
    bounds = np.r_[np.minimum(runs, len(A)), len(A)]
    todo = [(s, e) for s, e in zip(bounds[:-1], bounds[1:]) if e > s][::-1]
    while todo and len(free):
        s, e = todo.pop()
        first = _first_in_run(E[free], A[s:e], B[s:e])
        if first is None:  # not one grid: claim its boxes one at a time
            todo.extend((b, b + 1) for b in range(e - 1, s - 1, -1))
            continue
        got = first >= 0
        owner[free[got]] = s + first[got]
        free = free[~got]
    return owner


def _first_in_run(E: np.ndarray, A: np.ndarray, B: np.ndarray) -> np.ndarray | None:
    """``_first_boxes`` within one run of boxes, or None if the run is not
    grid-like: each feature's distinct intervals [A, B), sorted by start,
    must have distinct starts and overlap at most their neighbours (the
    cells of one grid, whose float edges may overlap by an ulp). An id then
    lies in at most the interval k that starts last at or before it, and
    k − 1, so every candidate box of a cell is found exactly, in integers,
    by ``searchsorted`` on the starts and on the run's sorted box keys."""
    first = np.full(len(E), -1)
    boxes = np.flatnonzero((A < B).all(axis=1))  # an empty box holds nothing
    if not len(boxes):
        return first
    a, b = A[boxes], B[boxes]
    near = np.flatnonzero(((E >= a.min(axis=0)) & (E < b.max(axis=0))).all(axis=1))
    cols, dims, ks, in_k, in_prev = [], [], [], [], []
    for t in range(E.shape[1]):
        m = b[:, t].max() + 1
        code, col = np.unique(a[:, t] * m + b[:, t], return_inverse=True)
        start, end = code // m, code % m
        if (np.diff(start) <= 0).any() or (end[:-2] > start[2:]).any():
            return None
        e = E[near, t]
        k = np.searchsorted(start, e, side="right") - 1
        cols.append(col)
        dims.append(len(code))
        ks.append(k)
        in_k.append((k >= 0) & (e < end[np.maximum(k, 0)]))
        in_prev.append((k >= 1) & (e < end[np.maximum(k - 1, 0)]))
    key = np.ravel_multi_index(cols, dims)
    by_key = np.argsort(key, kind="stable")  # equal keys: the least box first
    key, box = key[by_key], boxes[by_key]
    best = np.full(len(near), len(A))
    # Interval k − 1 is a candidate only in features where some id lies in it.
    for pick in product(*[[0, 1] if p.any() else [0] for p in in_prev]):
        ok = np.all([p if back else c for back, c, p in zip(pick, in_k, in_prev)], axis=0)
        q = np.ravel_multi_index([k[ok] - back for k, back in zip(ks, pick)], dims)
        i = np.minimum(np.searchsorted(key, q), len(key) - 1)
        hit = key[i] == q
        cand = np.flatnonzero(ok)[hit]
        best[cand] = np.minimum(best[cand], box[i[hit]])
    first[near] = np.where(best < len(A), best, -1)
    return first


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
