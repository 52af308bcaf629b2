"""Weighted k-median / k-means (the paper's GkMedianAlg_γ / GkMeansAlg_γ and
their discrete Dk*Alg_γ variants): D^power seeding + alternation.

One loop serves both objectives: assign each point to its nearest center,
then move each center to its cluster's weighted mean (k-means, Lloyd) or
weighted geometric median (k-median, Weiszfeld iterations). The discrete
variant snaps centers to weighted medoids. Runs on the driver over
coreset-sized weighted point sets (O(k² log N) points), which is exactly the
paper's model: the relational machinery shrinks the input so a
standard-setting γ-approximation algorithm finishes the job.
"""
from __future__ import annotations

import numpy as np

from repro.clustering.cost import assign, weighted_cost


def _dedupe(P: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Merge duplicate points, summing weights."""
    uniq, inv = np.unique(P, axis=0, return_inverse=True)
    wu = np.zeros(len(uniq))
    np.add.at(wu, inv, w)
    return uniq, wu


def pp_init(
    P: np.ndarray, w: np.ndarray, k: int, rng: np.random.Generator, power: float = 2.0
) -> np.ndarray:
    """Weighted D^power sampling seeding (power=2: k-means++; power=1: k-median++)."""
    n = len(P)
    first = rng.choice(n, p=w / w.sum())
    centers = [P[first]]
    d = np.sqrt(((P - centers[0]) ** 2).sum(axis=1))
    for _ in range(1, min(k, n)):
        prob = w * d**power
        tot = prob.sum()
        if tot <= 0:
            break
        nxt = rng.choice(n, p=prob / tot)
        centers.append(P[nxt])
        d = np.minimum(d, np.sqrt(((P - P[nxt]) ** 2).sum(axis=1)))
    return np.asarray(centers)


def _mean(Q: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Weighted mean (the k-means center update)."""
    return (Q * w[:, None]).sum(axis=0) / w.sum()


def geometric_median(
    Q: np.ndarray, w: np.ndarray, n_iter: int = 50, tol: float = 1e-9
) -> np.ndarray:
    """Weighted geometric median via Weiszfeld's algorithm."""
    x = _mean(Q, w)
    for _ in range(n_iter):
        d = np.sqrt(((Q - x) ** 2).sum(axis=1))
        hit = d < 1e-12
        if hit.any():
            # Weiszfeld is singular at data points; nudge off the point.
            d = np.maximum(d, 1e-12)
        inv = w / d
        x_new = (Q * inv[:, None]).sum(axis=0) / inv.sum()
        if np.sqrt(((x_new - x) ** 2).sum()) <= tol * (1.0 + np.sqrt((x**2).sum())):
            return x_new
        x = x_new
    return x


# Per objective: D^power seeding, the center update, and the default n_iter.
_POWER = {"median": 1.0, "means": 2.0}
_UPDATE = {"median": geometric_median, "means": _mean}
_N_ITER = {"median": 40, "means": 60}


def _medoids(P: np.ndarray, w: np.ndarray, centers: np.ndarray, objective: str) -> np.ndarray:
    """Snap each center to the best input point of its cluster (discrete)."""
    lab = assign(P, centers)
    out = []
    for i in range(len(centers)):
        m = lab == i
        if not m.any():
            # Empty cluster: snap to the globally nearest input point.
            d = ((P - centers[i]) ** 2).sum(axis=1)
            out.append(P[d.argmin()])
            continue
        Q, wq = P[m], w[m]
        d = np.sqrt(((Q[:, None, :] - Q[None, :, :]) ** 2).sum(axis=2))
        if objective == "means":
            d = d**2
        out.append(Q[(d * wq[None, :]).sum(axis=1).argmin()])
    return np.unique(np.asarray(out), axis=0)


def cluster(
    points,
    weights,
    k: int,
    objective: str,
    *,
    discrete: bool = False,
    rng: np.random.Generator | None = None,
    n_iter: int | None = None,
    n_init: int = 3,
    tol: float = 1e-7,
):
    """γ-approximate weighted clustering for ``objective``.

    objective: "median" (sum of distances) or "means" (sum of squares).
    Returns (centers (k', d), cost on the input) with k' ≤ k (fewer if fewer
    distinct points exist). k < 1 and points with a NaN or infinite
    coordinate are rejected with a ValueError.
    """
    if objective not in _N_ITER:
        raise ValueError(f"unknown objective {objective!r}")
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    rng = rng or np.random.default_rng(0)
    P = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if not np.isfinite(P).all():
        raise ValueError("points have non-finite (NaN or inf) coordinates")
    w = (
        np.full(len(P), 1.0)
        if weights is None
        else np.asarray(weights, dtype=np.float64)
    )
    keep = w > 0
    P, w = _dedupe(P[keep], w[keep])
    if len(P) == 0:
        raise ValueError("empty input")
    if len(P) <= k:
        return P, 0.0
    update = _UPDATE[objective]
    best_c, best_cost = None, np.inf
    for _ in range(n_init):
        C = pp_init(P, w, k, rng, power=_POWER[objective])
        prev = np.inf
        for _ in range(_N_ITER[objective] if n_iter is None else n_iter):
            lab = assign(P, C)
            newC = []
            for i in range(len(C)):
                m = lab == i
                if m.any():
                    newC.append(update(P[m], w[m]))
                else:
                    newC.append(P[rng.choice(len(P), p=w / w.sum())])
            C = np.asarray(newC)
            cost = weighted_cost(P, C, w, objective)
            if prev - cost <= tol * max(prev, 1.0):
                break
            prev = cost
        cost = weighted_cost(P, C, w, objective)
        if cost < best_cost:
            best_c, best_cost = C, cost
    if discrete:
        best_c = _medoids(P, w, best_c, objective)
        best_cost = weighted_cost(P, best_c, w, objective)
    return best_c, float(best_cost)
