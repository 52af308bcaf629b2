"""Algorithm 2 — RelClusteringFast: randomized coreset from many centers.

Given X with v_X(q_u(D)) ≤ α·OPT and r ∈ [v_X, α·OPT], build an ε-coreset of
the multiset projection q_u(D) and cluster it. Weights come from sampling:
the paper draws M fresh samples per grid cell (SampleRect); this
implementation estimates every per-cell quantity from ONE shared uniform
sample pool of q(D) (drawn by the same relational sampling substrate) — see
DESIGN.md substitution 2. The estimator w(s_□) = n·|pool ∩ (□\\B)|/|pool| has
the same expectation as the paper's (g_□/M)·n_□.

The grid construction, processing order, condition (3) filter, and the
heavy/light classification follow the paper exactly.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.clustering import cluster
from repro.geometry.grid import GridParams, candidate_cells_from_points, cell_box, condition3


@dataclass
class Coreset:
    """A weighted point set C approximating q_u(D), plus diagnostics."""

    points: np.ndarray
    weights: np.ndarray
    info: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.points)

    @property
    def total_weight(self) -> float:
        return float(self.weights.sum())


def phi_scale(r: float, alpha: float, n: int, objective: str) -> float:
    """Φ — lower-bound estimate of the average (median) / rms (means) radius."""
    base = max(r, 1e-300) / (alpha * max(n, 1))
    return base if objective == "median" else float(np.sqrt(base))


def build_coreset_fast(
    pool: np.ndarray,
    n_total: int,
    X: np.ndarray,
    alpha: float,
    r: float,
    eps_prime: float,
    objective: str,
    *,
    c_g: float = 2.0,
    tau: float = 0.05,
    min_hits: int = 1,
    include_unclaimed: bool = True,
) -> Coreset:
    """The grid/heavy/light pass of Algorithm 2 over a uniform sample pool.

    pool: (P, d) uniform samples of q_u(D);  n_total = |q(D)|;
    X: (m, d) candidate centers;  r: cost certificate for X.
    ``tau`` plays the paper's τ role (heavy iff the unclaimed fraction of the
    cell's samples is ≥ 2τ); ``min_hits`` requires that many pool samples
    before a cell may become heavy. Unclaimed leftovers (light-cell mass,
    which the analysis discards) are optionally appended with weight
    n/|pool| each, which only tightens the coreset.
    """
    pool = np.atleast_2d(np.asarray(pool, dtype=np.float64))
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    d = pool.shape[1]
    params = GridParams(
        phi=phi_scale(r, alpha, n_total, objective),
        eps_prime=eps_prime,
        alpha=alpha,
        d=d,
        c_g=c_g,
    )
    j_cap = params.max_level(n_total)
    claimed = np.zeros(len(pool), dtype=bool)
    pts: list[np.ndarray] = []
    wts: list[float] = []
    n_cells = n_heavy = n_light = n_skipped = 0
    per_point_w = n_total / max(len(pool), 1)
    for i in range(len(X)):
        # Cells around x_i containing at least one pool point, in (level,
        # coords) order. Fully-claimed cells still occur (their points count
        # toward the cell's "all hits" but not toward g_□).
        cells = candidate_cells_from_points(
            X[i], pool, np.arange(len(pool)), params, j_cap
        )
        if not cells:
            continue
        boxes = [cell_box(X[i], j, cc, params) for j, cc, _ in cells]
        los = np.asarray([b.lo for b in boxes])
        his = np.asarray([b.hi for b in boxes])
        ok = condition3(X, i, los, his)
        for c_idx, (j, cc, members) in enumerate(cells):
            n_cells += 1
            if not ok[c_idx]:
                n_skipped += 1
                continue
            un = members[~claimed[members]]
            g, m = len(un), len(members)
            if m >= min_hits and g >= 1 and g / m >= 2 * tau:
                # Heavy: one representative from the unclaimed samples,
                # weight = estimated |q_u(D) ∩ (□ \ B)|.
                pts.append(pool[un[0]])
                wts.append(g * per_point_w)
                claimed[un] = True
                n_heavy += 1
            else:
                n_light += 1
    unclaimed = np.flatnonzero(~claimed)
    if include_unclaimed and len(unclaimed):
        for u in unclaimed:
            pts.append(pool[u])
            wts.append(per_point_w)
    info = {
        "n_cells": n_cells,
        "n_heavy": n_heavy,
        "n_light": n_light,
        "n_skipped_cond3": n_skipped,
        "unclaimed_frac": len(unclaimed) / max(len(pool), 1),
        "phi": params.phi,
        "j_cap": j_cap,
    }
    return Coreset(np.asarray(pts), np.asarray(wts, dtype=np.float64), info)


def rel_clustering_fast(
    pool: np.ndarray,
    n_total: int,
    X: np.ndarray,
    alpha: float,
    r: float,
    eps: float,
    k: int,
    objective: str,
    *,
    discrete: bool = False,
    rng: np.random.Generator | None = None,
    **coreset_kwargs,
) -> tuple[np.ndarray, float, Coreset]:
    """RelClusteringFast(q, D, A_u, X, α, r, ε) → (S, r_u, coreset).

    Builds the coreset, runs the standard weighted γ-approximation algorithm
    on it, and returns the k centers with the inflated cost certificate r_u
    (r_u ≥ v_S(q_u(D)) up to sampling error; paper line 18).
    """
    rng = rng or np.random.default_rng(0)
    C = build_coreset_fast(
        pool, n_total, X, alpha, r, eps, objective, **coreset_kwargs
    )
    S, cost = cluster(C.points, C.weights, k, objective, discrete=discrete, rng=rng)
    r_u = (1.0 + eps) * cost
    return S, float(r_u), C
