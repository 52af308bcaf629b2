"""Baseline [23] — Curtin et al. "Rk-means: fast clustering for relational data".

Per relation R_j: run k-means on the feature columns of its reduced tuples
(read from the query's kept multiplicity frames) → k_j centers. The grid
coreset is the cross product of the per-relation center sets (≤ k^m points in
the full feature space); the weight of a grid point is the number of join
results whose per-relation projections are assigned to that center
combination. Each tuple's assigned-center id is computed on the driver
(``RelQuery.labelled``); the labelled relations are lifted to the query's
engine, and the weights are computed **relationally** there by the one
counting DP, ``subtree_counts`` with those id columns as ``carry``, grouped
by those ids at the root (``grouped_counts``) — no join materialization. A
standard weighted k-means on the grid gives the final centers, with the
paper-reported γ² + 4γ√γ + 4γ approximation factor.
"""
from __future__ import annotations

import time

import numpy as np

from repro.clustering import check_args, cluster
from repro.clustering.cost import assign
from repro.core.coreset_fast import Coreset
from repro.joins.yannakakis import CNT, RelQuery, grouped_counts

# Most reduced tuples per relation that its k-means sees (a uniform subset).
PER_RELATION_SAMPLE = 100_000


def rkmeans(
    Q: RelQuery,
    k: int,
    objective: str = "means",
    *,
    seed: int = 0,
) -> tuple[np.ndarray, Coreset, dict]:
    """Rk-means grid-coreset clustering. Returns (centers, grid coreset, timings).

    k < 1 and an unknown objective raise ``ValueError`` before any engine work.
    """
    check_args(k, objective)
    rng = np.random.default_rng(seed)
    feats = list(Q.tree.all_features)
    t0 = time.perf_counter()
    rel_centers: dict[str, np.ndarray] = {}
    labels = {}
    for name, rel in Q.tree.relations.items():
        if not rel.features:
            continue
        fs = list(rel.features)
        P = Q.multiplicities()[name][fs].to_numpy(dtype=np.float64)
        if len(P) > PER_RELATION_SAMPLE:
            P = P[rng.choice(len(P), PER_RELATION_SAMPLE, replace=False)]
        C, _ = cluster(P, None, k, objective, rng=rng)
        C = rel_centers[name] = np.atleast_2d(C)
        labels[name] = {
            f"__cid_{name}": lambda t, C=C, fs=fs: assign(t[fs].to_numpy(dtype=np.float64), C)
        }
    dfs, carry = Q.labelled(labels)
    dfs = {name: Q.engine.from_pandas(df) for name, df in dfs.items()}
    t_assign = time.perf_counter() - t0

    t0 = time.perf_counter()
    weights_pdf = grouped_counts(Q.engine, Q.tree, dfs, carry)
    t_weights = time.perf_counter() - t0

    # Build grid points in canonical feature order from the cid combinations.
    pts = np.empty((len(weights_pdf), len(feats)))
    for name, C in rel_centers.items():
        cids = weights_pdf[f"__cid_{name}"].to_numpy(dtype=np.int64)
        rel_feats = Q.tree.relations[name].features
        for fi, f in enumerate(rel_feats):
            pts[:, feats.index(f)] = C[cids, fi]
    w = weights_pdf[CNT].to_numpy(dtype=np.float64)
    grid = Coreset(pts, w, {"grid_points": len(pts)})

    t0 = time.perf_counter()
    S, _ = cluster(grid.points, grid.weights, k, objective, rng=rng)
    t_cluster = time.perf_counter() - t0
    return (
        np.atleast_2d(S),
        grid,
        {"assign": t_assign, "weights": t_weights, "cluster": t_cluster},
    )
