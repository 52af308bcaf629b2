"""The benchmark's workloads and the instance they share.

Both workloads cluster the Zipf many-to-many chain of
``repro.experiments.build_chain`` (|q(D)| ≫ N, a few large skewed key
groups), drawn from the run's seed. Call i of a run passes seed + i to the
clustering call.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import pandas as pd

CHAIN_N = 1000  # tuples per relation; |q(D)| ≈ 6.3M at seed 0
CHAIN_JOIN = "R1 JOIN R2 USING (k1) JOIN R3 USING (k2)"  # the chain in SQL
POOL = 10_000  # half relational_cluster's default, so a run holds 3 calls


def chain_tables(seed: int) -> dict[str, pd.DataFrame]:
    """The tables of ``build_chain(engine, CHAIN_N, seed)``, in pandas."""
    from repro import synth_data

    return synth_data.clustered_chain_pdfs(n=CHAIN_N, n_keys=max(10, CHAIN_N // 10), seed=seed)


@dataclass(frozen=True)
class Call:
    """What one clustering call returned, in the terms the checks need."""

    centers: np.ndarray
    r: float | None  # NEW's cost certificate; the baseline has none
    facts: dict


@dataclass(frozen=True)
class Workload:
    name: str
    objective: str
    k: int
    call: Callable[[object, int, int], Call]


def _rel_kmedian(Q, k: int, seed: int) -> Call:
    from repro.core.api import rel_kmedian

    res = rel_kmedian(Q, k, pool_size=POOL, seed=seed)
    coresets = {"x".join(n.attrs): n.coreset_size for n in res.nodes if len(n.attrs) > 1}
    return Call(res.centers, res.r, {"pool_size": POOL, "coreset_sizes": coresets})


def _rkmeans(Q, k: int, seed: int) -> Call:
    from repro.baselines.rkmeans import rkmeans

    centers, grid, _ = rkmeans(Q, k, seed=seed)
    return Call(centers, None, {"grid_points": len(grid)})


WORKLOADS = {
    w.name: w
    for w in (
        # NEW in the paper's regime: sampler, leaf DPs, coreset and clusterer.
        Workload("chain-kmedian", "median", 3, _rel_kmedian),
        # Baseline [23]: the carry DP and per-relation collects; no sampling
        # and no coreset, so optimisations of those should not move it.
        Workload("chain-rkmeans", "means", 3, _rkmeans),
    )
}
