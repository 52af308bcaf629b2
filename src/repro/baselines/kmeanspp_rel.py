"""Baseline [43] — Moseley et al. style relational k-means++ coreset.

Their algorithm runs k-means++ (adaptive D² sampling) directly over the join
results to pick t = k·⌈log₂ n⌉ centers, then weights each picked center by
(an approximation of) the number of join results closest to it, and clusters
the weighted set — yielding the 320 + 644(1+ε)γ factor of Table 1.

Substitution (DESIGN.md #4): their per-step rejection sampler over joins is
replaced with D² sampling over a uniform pool drawn by this repo's relational
sampling substrate; cluster sizes are estimated from the same pool. The
coreset's shape (k log n adaptively-sampled centers, count weights) — the
object their analysis bounds — is preserved.
"""
from __future__ import annotations

import time

import numpy as np

from repro.clustering import check_args, cluster
from repro.clustering.cost import assign
from repro.clustering.lloyd import pp_init
from repro.core.coreset_fast import Coreset
from repro.joins.yannakakis import RelQuery


def rel_kmeanspp(
    Q: RelQuery,
    k: int,
    objective: str = "means",
    *,
    seed: int = 0,
    pool_size: int = 20_000,
    t: int | None = None,
) -> tuple[np.ndarray, Coreset, dict]:
    """Relational k-means++ coreset clustering. Returns (centers, coreset, timings).

    k < 1, an unknown objective and pool_size < 1 raise ``ValueError`` before
    any engine work.
    """
    check_args(k, objective)
    if pool_size < 1:
        raise ValueError(f"pool_size must be at least 1, got {pool_size}")
    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    n = Q.total_count()
    pool = Q.sample(pool_size, rng).to_numpy(dtype=np.float64)
    t_sample = time.perf_counter() - t0

    t0 = time.perf_counter()
    if t is None:
        t = max(k, k * int(np.ceil(np.log2(max(n, 2)))))
    t = min(t, len(pool))
    power = 2.0 if objective == "means" else 1.0
    picked = pp_init(pool, np.ones(len(pool)), t, rng, power=power)
    lab = assign(pool, picked)
    counts = np.bincount(lab, minlength=len(picked)).astype(np.float64)
    w = counts * (n / len(pool))
    keep = w > 0
    core = Coreset(picked[keep], w[keep], {"t": int(t)})
    t_core = time.perf_counter() - t0

    t0 = time.perf_counter()
    S, _ = cluster(core.points, core.weights, k, objective, rng=rng)
    t_cluster = time.perf_counter() - t0
    return (
        np.atleast_2d(S),
        core,
        {"sample": t_sample, "coreset": t_core, "cluster": t_cluster},
    )
