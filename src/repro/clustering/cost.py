"""Clustering cost functions v_C(P) (k-median) and μ_C(P) (k-means)."""
from __future__ import annotations

import numpy as np

_CHUNK = 262_144


def sq_dists(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """(n, m) squared Euclidean distances between the rows of A (n, d) and
    of B (m, d).

    Summed one column at a time into the (n, m) result, never through an
    (n, m, d) difference array; for d < 8 numpy sums a last axis that short
    in order, so this gives the same bits as
    ``((A[:, None, :] - B[None, :, :]) ** 2).sum(axis=2)``.
    """
    out = np.zeros((len(A), len(B)))
    t = np.empty_like(out)
    for c in range(A.shape[1]):
        np.subtract(A[:, c, None], B[:, c], out=t)
        out += np.square(t, out=t)
    return out


def nearest(P: np.ndarray, C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index of, and distance to, the nearest center in C (k, d) for each
    point in P (n, d).

    Chunked so n × k distance matrices never exceed a few hundred MB.
    """
    P = np.atleast_2d(np.asarray(P, dtype=np.float64))
    C = np.atleast_2d(np.asarray(C, dtype=np.float64))
    idx = np.empty(len(P), dtype=np.int64)
    dist = np.empty(len(P), dtype=np.float64)
    for s in range(0, len(P), _CHUNK):
        d2 = sq_dists(P[s : s + _CHUNK], C)
        near = d2.argmin(axis=1)
        idx[s : s + _CHUNK] = near
        dist[s : s + _CHUNK] = np.sqrt(np.take_along_axis(d2, near[:, None], axis=1)[:, 0])
    return idx, dist


def assign(P: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Index of the nearest center for each point."""
    return nearest(P, C)[0]


def weighted_cost(P, C, weights=None, objective: str = "median") -> float:
    """v_C(P) = Σ w(p)·φ(p,C) or μ_C(P) = Σ w(p)·φ²(p,C)."""
    P = np.atleast_2d(np.asarray(P, dtype=np.float64))
    if len(P) == 0:
        return 0.0
    d = nearest(P, C)[1]
    if objective == "means":
        d = d**2
    elif objective != "median":
        raise ValueError(f"unknown objective {objective!r}")
    if weights is None:
        return float(d.sum())
    return float((np.asarray(weights, dtype=np.float64) * d).sum())
