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
from repro.geometry.grid import (
    GridParams,
    candidate_cells_from_points,
    cell_corners,
    condition3,
)

TAU = 0.05  # the paper's τ: heavy iff ≥ 2τ of a cell's samples are unclaimed


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
) -> Coreset:
    """The grid/heavy/light pass of Algorithm 2 over a uniform sample pool.

    pool: (P, d) uniform samples of q_u(D);  n_total = |q(D)|;
    X: (m, d) candidate centers;  r: cost certificate for X.
    The grid uses ``GridParams``' default c_g = 2. A cell is heavy iff at
    least a 2τ fraction (``TAU``) of its pool samples is still unclaimed. The
    unclaimed leftovers (light-cell mass, which the analysis discards) are
    appended with weight n/|pool| each, which only tightens the coreset and
    keeps Σw = n.
    """
    pool = np.atleast_2d(np.asarray(pool, dtype=np.float64))
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    d = pool.shape[1]
    params = GridParams(
        phi=phi_scale(r, alpha, n_total, objective),
        eps_prime=eps_prime,
        alpha=alpha,
        d=d,
    )
    j_cap = params.max_level(n_total)
    claimed = np.zeros(len(pool), dtype=bool)
    reps, wts = [np.zeros(0, np.int64)], [np.zeros(0)]
    n_cells = n_light = n_skipped = 0
    per_point_w = n_total / max(len(pool), 1)
    for i in range(len(X)):
        # Cells around x_i containing at least one pool point, in (level,
        # coords) order. Fully-claimed cells still occur (their points count
        # toward the cell's "all hits" but not toward g_□).
        levels, coords, order, starts = candidate_cells_from_points(
            X[i], pool, np.arange(len(pool)), params, j_cap
        )
        ok = condition3(X, i, *cell_corners(X[i], levels, coords, params))
        n_cells += len(starts)
        n_skipped += int((~ok).sum())
        # The cells around x_i are disjoint, so a claim in one cannot change
        # g_□ of another: every cell of x_i is classified at once.
        free = ~claimed[order]
        g = np.add.reduceat(free.astype(np.int64), starts)
        size = np.diff(np.r_[starts, len(order)])
        heavy = ok & (g >= 1) & (g / size >= 2 * TAU)
        n_light += int((ok & ~heavy).sum())
        # Heavy: one representative, the first unclaimed sample (members
        # are in pool order), weight = estimated |q_u(D) ∩ (□ \ B)|.
        first = np.minimum.reduceat(np.where(free, order, len(pool)), starts)
        reps.append(first[heavy])
        wts.append(g[heavy] * per_point_w)
        claimed[order[free & np.repeat(heavy, size)]] = True
    unclaimed = np.flatnonzero(~claimed)
    reps = np.concatenate(reps)
    info = {
        "n_cells": n_cells,
        "n_heavy": len(reps),
        "n_light": n_light,
        "n_skipped_cond3": n_skipped,
        "unclaimed_frac": len(unclaimed) / max(len(pool), 1),
        "phi": params.phi,
        "j_cap": j_cap,
    }
    return Coreset(
        pool[np.r_[reps, unclaimed]],
        np.concatenate([*wts, np.full(len(unclaimed), per_point_w)]),
        info,
    )


def cluster_coreset(
    C: Coreset,
    k: int,
    eps: float,
    objective: str,
    *,
    discrete: bool = False,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, float]:
    """Algorithm 1/2 line 18: run the weighted γ-approximation algorithm on
    the coreset and return its k centers S with the inflated cost certificate
    r_u = (1+ε)·v_S(C) (r_u ≥ v_S(q_u(D)) up to sampling error)."""
    S, cost = cluster(C.points, C.weights, k, objective, discrete=discrete, rng=rng)
    return S, float((1.0 + eps) * cost)
