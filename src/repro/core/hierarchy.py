"""Algorithm 3 — Rel-K-Median / Rel-K-Means over the attribute tree.

A balanced binary tree over the feature attributes. At a leaf (one attribute
A_u), the weighted 1-D projection H_u = π_{A_u}(q(D)) with multiplicity
weights is computed *exactly* — one pandas group-by over the call's up–down
multiplicity frames, collected once per relation, which also weight the
sample pool — and clustered
directly (the cost v_S(H_u) is exact, so r_u needs no inflation). At an
inner node u with children v, z: X = S_v × S_z (≤ k² candidates),
r = r_v + r_z, and Algorithm 2 (or 1) reduces back to k centers with
certificate r_u. The root's S is the final (1+ε)γ-approximation
(Theorem 4.2).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np
import pandas as pd

from repro.clustering import cluster
from repro.clustering.cost import weighted_cost
from repro.core import coreset_fast
from repro.core.coreset_slow import build_coreset_slow
from repro.joins.yannakakis import RelQuery

GAMMA = 2.0  # the approximation factor γ assumed of the black-box clusterer


@dataclass
class NodeResult:
    """Per-tree-node output: attribute subset A_u, centers S_u, certificate
    r_u; at an inner node also the coreset's size and its ``info`` dict
    (cell counts, Φ, …)."""

    attrs: tuple[str, ...]
    S: np.ndarray
    r: float
    coreset_size: int = 0
    info: dict = field(default_factory=dict)


@dataclass
class ClusterResult:
    """Final output of the relational clustering pipeline."""

    centers: np.ndarray
    r: float
    features: tuple[str, ...]
    n: int
    nodes: list[NodeResult] = field(default_factory=list)


def cross_product(Sv: np.ndarray, Sz: np.ndarray) -> np.ndarray:
    """X = S_v × S_z: every concatenation of a left and a right center."""
    Sv = np.atleast_2d(Sv)
    Sz = np.atleast_2d(Sz)
    left = np.repeat(Sv, len(Sz), axis=0)
    right = np.tile(Sz, (len(Sv), 1))
    return np.hstack([left, right])


def _alpha(eps: float, objective: str, discrete: bool) -> float:
    """The α certificate for X = S_v × S_z (Lemma 4.1 / Lemma A.9)."""
    if objective == "median":
        return (
            2 * (2 + eps) * GAMMA * np.sqrt(2) if discrete else (1 + eps) * GAMMA * np.sqrt(2)
        )
    return 4 * (1 + eps) * GAMMA if discrete else (1 + eps) * GAMMA


def _leaf(
    Q: RelQuery,
    attr: str,
    k: int,
    objective: str,
    discrete: bool,
    rng: np.random.Generator,
    *,
    counts: Mapping[str, pd.DataFrame] | None = None,
) -> NodeResult:
    """Algorithm 3 lines 1–8: exact weighted 1-D projection, clustered.

    ``counts``: the call's :meth:`RelQuery.multiplicities` (default: fresh).
    """
    H = Q.leaf_weights(attr, counts)
    P = H[attr].to_numpy(dtype=np.float64)[:, None]
    w = H["weight"].to_numpy(dtype=np.float64)
    S, _ = cluster(P, w, k, objective, discrete=discrete, rng=rng)
    r = weighted_cost(P, S, w, objective)  # exact: H_u IS q_u(D)
    return NodeResult((attr,), S, r)


def relational_cluster(
    Q: RelQuery,
    k: int,
    eps: float = 0.5,
    objective: str = "median",
    *,
    method: str = "fast",
    discrete: bool = False,
    pool_size: int = 20_000,
    seed: int = 0,
) -> ClusterResult:
    """End-to-end relational k-median / k-means (Theorems 4.2 / A.10).

    method: "fast" (Algorithm 2 at inner nodes, randomized) or "slow"
    (Algorithm 1, deterministic exact counting: one carried counting DP and
    one sampling pass per inner node, but a full grid, exponential in the
    node's dimension, is enumerated and claimed on the driver).
    Bad arguments raise ``ValueError`` before any engine work.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if objective not in ("median", "means"):
        raise ValueError(f"unknown objective {objective!r}")
    if method not in ("fast", "slow"):
        raise ValueError(f"unknown method {method!r}")
    if method == "fast" and pool_size < 1:
        raise ValueError(f"pool_size must be at least 1, got {pool_size}")
    rng = np.random.default_rng(seed)
    feats = list(Q.tree.all_features)
    if not feats:
        raise ValueError("query has no feature attributes")
    n = Q.total_count()
    if n == 0:
        raise ValueError("the join is empty: q(D) has no results to cluster")
    nodes: list[NodeResult] = []
    pool = None

    def solve(lo: int, hi: int) -> NodeResult:
        if hi - lo == 1:
            res = _leaf(Q, feats[lo], k, objective, discrete, rng, counts=counts)
            nodes.append(res)
            return res
        mid = (lo + hi) // 2
        left = solve(lo, mid)
        right = solve(mid, hi)
        attrs = left.attrs + right.attrs
        X = cross_product(left.S, right.S)
        r = left.r + right.r
        alpha = _alpha(eps, objective, discrete)
        if method == "fast":
            cols = [feats.index(a) for a in attrs]
            # Called through its module, where perfbench/layers.py wraps it.
            C = coreset_fast.build_coreset_fast(pool[:, cols], n, X, alpha, r, eps, objective)
        else:
            C = build_coreset_slow(Q, list(attrs), X, alpha, r, eps, objective, rng=rng)
        S, r_u = coreset_fast.cluster_coreset(C, k, eps, objective, discrete=discrete, rng=rng)
        res = NodeResult(attrs, S, r_u, coreset_size=len(C), info=C.info)
        nodes.append(res)
        return res

    # One up–down pass, collected once, serves the pool and every leaf H_u.
    counts = Q.multiplicities()
    if method == "fast":
        z = min(pool_size, max(10 * n, 1))
        pool = Q.sample(z, rng, attrs=feats, counts=counts).to_numpy(dtype=np.float64)
    root = solve(0, len(feats))
    # Root attrs may be a permutation of feats (balanced split order);
    # reorder center columns to the canonical feature order.
    perm = [root.attrs.index(f) for f in feats]
    centers = np.atleast_2d(root.S)[:, perm]
    return ClusterResult(
        centers=centers,
        r=root.r,
        features=tuple(feats),
        n=n,
        nodes=nodes,
    )
