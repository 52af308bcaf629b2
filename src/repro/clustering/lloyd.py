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

import math

import numpy as np

from repro.clustering.cost import assign, nearest, sq_dists, weighted_cost


def _dedupe(P: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Merge duplicate points, summing weights in input order; the distinct
    points come out sorted by row (as ``np.unique(P, axis=0)`` gives)."""
    order = np.lexsort(P.T[::-1])  # stable: first column first
    S = P[order]
    new = np.r_[True, (S[1:] != S[:-1]).any(axis=1)][: len(S)]
    inv = np.empty(len(P), dtype=np.int64)
    inv[order] = np.cumsum(new) - 1
    wu = np.zeros(int(new.sum()))
    np.add.at(wu, inv, w)
    return S[new], wu


def pp_init(
    P: np.ndarray, w: np.ndarray, k: int, rng: np.random.Generator, power: float = 2.0
) -> np.ndarray:
    """Weighted D^power sampling seeding (power=2: k-means++; power=1: k-median++)."""
    n = len(P)
    first = rng.choice(n, p=w / w.sum())
    centers = [P[first]]
    d = np.sqrt(sq_dists(P, P[first, None])[:, 0])
    for _ in range(1, min(k, n)):
        prob = w * d**power
        tot = prob.sum()
        if tot <= 0:
            break
        nxt = rng.choice(n, p=prob / tot)
        centers.append(P[nxt])
        d = np.minimum(d, np.sqrt(sq_dists(P, P[nxt, None])[:, 0]))
    return np.asarray(centers)


def _mean(Q: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Weighted mean (the k-means center update), as one matrix-vector
    product."""
    return w @ Q / w.sum()


def geometric_median(
    Q: np.ndarray, w: np.ndarray, n_iter: int = 50, tol: float = 1e-9
) -> np.ndarray:
    """Weighted geometric median via Weiszfeld's algorithm, from the weighted
    mean.

    Each iteration is one distance pass over the columns of a contiguous
    transposed copy of Q and one matrix-vector product, whose extra row of
    ones gives the Σ inv denominator with the Σ inv·q numerator."""
    n, d = Q.shape
    Qt = np.empty((d + 1, n))
    Qt[:d] = Q.T
    Qt[d] = 1.0
    x = _mean(Q, w)
    dist = np.empty(n)
    t = np.empty(n)
    for _ in range(n_iter):
        np.square(np.subtract(Qt[0], x[0], out=dist), out=dist)
        for c in range(1, d):
            dist += np.square(np.subtract(Qt[c], x[c], out=t), out=t)
        # Weiszfeld is singular at data points; nudge off the point.
        inv = w / np.maximum(np.sqrt(dist, out=dist), 1e-12, out=dist)
        num = Qt @ inv
        x_new = num[:d] / num[d]
        step = x_new - x
        if math.sqrt(step @ step) <= tol * (1.0 + math.sqrt(x @ x)):
            return x_new
        x = x_new
    return x


# Per objective: D^power seeding, the center update, and the default n_iter.
_POWER = {"median": 1.0, "means": 2.0}
_UPDATE = {"median": geometric_median, "means": _mean}
_N_ITER = {"median": 40, "means": 60}


# Elements of the (rows, m) distance block in _medoid_costs.
_BLOCK = 1 << 18


def _medoid_costs(Q: np.ndarray, wq: np.ndarray, objective: str) -> np.ndarray:
    """Σ_j wq[j]·dist(Q[i], Q[j])^power for every i, one block of rows at a
    time, so memory is O(block) for m points, never O(m²)."""
    rows = max(1, _BLOCK // len(Q))
    out = np.empty(len(Q))
    for s in range(0, len(Q), rows):
        d = np.sqrt(sq_dists(Q[s : s + rows], Q))
        if objective == "means":
            d = d**2
        out[s : s + rows] = (d * wq[None, :]).sum(axis=1)
    return out


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
        Q = P[m]
        out.append(Q[_medoid_costs(Q, w[m], objective).argmin()])
    return np.unique(np.asarray(out), axis=0)


def _assign_cost(
    P: np.ndarray, C: np.ndarray, w: np.ndarray, objective: str
) -> tuple[np.ndarray, float]:
    """Each point's nearest center and ``weighted_cost(P, C, w, objective)``,
    from one distance pass."""
    lab, d = nearest(P, C)
    return lab, float((w * (d**2 if objective == "means" else d)).sum())


def check_args(k: int, objective: str) -> None:
    """ValueError for an unknown objective or k < 1: the checks every
    clustering entry point makes before any other work."""
    if objective not in _N_ITER:
        raise ValueError(f"unknown objective {objective!r}")
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")


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
    check_args(k, objective)
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
        # One nearest-center pass per step: the labels that price C are the
        # next step's assignment.
        lab, cost = _assign_cost(P, C, w, objective)
        prev = np.inf
        for _ in range(_N_ITER[objective] if n_iter is None else n_iter):
            newC = []
            for i in range(len(C)):
                m = lab == i
                if m.any():
                    newC.append(update(P[m], w[m]))
                else:
                    newC.append(P[rng.choice(len(P), p=w / w.sum())])
            C = np.asarray(newC)
            lab, cost = _assign_cost(P, C, w, objective)
            if prev - cost <= tol * max(prev, 1.0):
                break
            prev = cost
        if cost < best_cost:
            best_c, best_cost = C, cost
    if discrete:
        best_c = _medoids(P, w, best_c, objective)
        best_cost = weighted_cost(P, best_c, w, objective)
    return best_c, float(best_cost)
