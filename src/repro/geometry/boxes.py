"""Axis-parallel boxes in R^d and point–box distances.

``Box`` is the data bounding box the grids are cut from. Cells use half-open
semantics [lo, hi) for point membership so that grid cells partition space
exactly; distance computations treat boxes as closed (the difference is
measure-zero and irrelevant to condition (3)).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Box:
    """Axis-parallel hyper-rectangle: product of intervals [lo_i, hi_i)."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise ValueError("lo/hi dimension mismatch")

    @property
    def diam(self) -> float:
        """Euclidean diameter (corner to corner)."""
        lo, hi = np.asarray(self.lo), np.asarray(self.hi)
        return float(np.sqrt(((hi - lo) ** 2).sum()))


def dist_point_box(p, box: Box) -> float:
    """Euclidean distance from point p to (the closure of) box."""
    p = np.asarray(p, dtype=float)
    lo, hi = np.asarray(box.lo), np.asarray(box.hi)
    d = np.maximum(np.maximum(lo - p, p - hi), 0.0)
    return float(np.sqrt((d**2).sum()))


def dist_points_boxes(P: np.ndarray, los: np.ndarray, his: np.ndarray) -> np.ndarray:
    """Pairwise distances: points (n, d) × boxes given as (m, d) lo/hi arrays
    → (n, m) Euclidean distances.

    The squared per-axis gaps are summed one column at a time into the
    (n, m) result, never through an (n, m, d) array; for d < 8 that is the
    order numpy sums so short a last axis in, so the bits are those of the
    one-expression form."""
    d2 = np.zeros((len(P), len(los)))
    t = np.empty_like(d2)
    for c in range(P.shape[1]):
        p = P[:, c, None]
        np.maximum(np.subtract(los[:, c], p, out=t), p - his[:, c], out=t)
        d2 += np.square(np.maximum(t, 0.0, out=t), out=t)
    return np.sqrt(d2)
