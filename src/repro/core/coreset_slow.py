"""Algorithm 1 — RelClusteringSlow: deterministic coreset from many centers.

The faithful path: enumerate every grid cell (not just sampled ones), check
condition (3) (``grid.condition3``, once per level), decompose □ \\ G into
disjoint hyper-rectangles with the arrangement complement
(``subtract_many``), count each piece *exactly* with
CountRect (the Yannakakis counting DP over the box-filtered database), and
take a representative via SampleRect. Exponential in d_u by nature — used at
small scale and as ground truth for the fast path.
"""
from __future__ import annotations

import numpy as np

from repro.core.coreset_fast import Coreset, phi_scale
from repro.geometry.boxes import Box, dist_point_box, subtract_many
from repro.geometry.grid import GridParams, condition3, enumerate_cells
from repro.joins.yannakakis import RelQuery


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
    d = len(features_u)
    params = GridParams(
        phi=phi_scale(r, alpha, n, objective),
        eps_prime=eps_prime,
        alpha=alpha,
        d=d,
        c_g=c_g,
    )
    bounds = Q.feature_bounds()
    pad = 1e-9 + 1e-9 * max(abs(b) for f in features_u for b in bounds[f])
    bbox = Box(
        tuple(bounds[f][0] - pad for f in features_u),
        tuple(bounds[f][1] + pad for f in features_u),
    )
    j_cap = params.max_level(n)
    G: list[Box] = []
    pts: list[np.ndarray] = []
    wts: list[float] = []
    n_cells = n_processed = 0
    for i in range(len(X)):
        for j in range(j_cap + 1):
            # Annuli strictly outside the data bbox contribute nothing.
            if dist_point_box(X[i], bbox) > params.half_extent(j) * np.sqrt(d):
                continue
            los, his = enumerate_cells(X[i], j, params, bbox, max_cells=max_cells)
            for lo, hi, passes in zip(los, his, condition3(X, i, los, his)):
                n_cells += 1
                if n_cells > max_cells:
                    raise RuntimeError(
                        f"Algorithm 1 exceeded max_cells={max_cells}; "
                        "reduce d_u / levels or raise the cap"
                    )
                if not passes:  # condition (3) fails — skip
                    continue
                box = Box(tuple(lo), tuple(hi))
                n_processed += 1
                overlapping = [g for g in G if box.intersect(g) is not None]
                pieces = subtract_many(box, overlapping)
                K = 0
                first_nonempty: Box | None = None
                for piece in pieces:
                    # Half-open counting: adjacent cells/pieces share
                    # boundaries, so a closed box would double-count them.
                    cnt = Q.count_rect(piece.as_dict(features_u), right_closed=False)
                    if cnt > 0 and first_nonempty is None:
                        first_nonempty = piece
                    K += cnt
                if K > 0:
                    s = Q.sample_rect(
                        first_nonempty.as_dict(features_u), 1, rng,
                        attrs=features_u, right_closed=False,
                    )
                    pts.append(s.to_numpy(dtype=np.float64)[0])
                    wts.append(float(K))
                G.append(box)
            # Stop once Q_{i,j} covers the whole data bbox — all later
            # annuli are empty of data.
            h = params.half_extent(j)
            if all(
                X[i][t] - h <= bbox.lo[t] and bbox.hi[t] <= X[i][t] + h
                for t in range(d)
            ):
                break
    info = {"n_cells": n_cells, "n_processed": n_processed, "phi": params.phi}
    return Coreset(np.asarray(pts), np.asarray(wts, dtype=np.float64), info)
