"""Experiment harness reproducing Table 1 of the paper (see EXPERIMENTS.md).

The paper's only evaluation artifact is Table 1: approximation factors and
asymptotic running times of NEW vs. Curtin et al. [23] and Moseley et al.
[43]. These harnesses measure the empirical counterparts — exact cost ratios
against the best-known (full-join) solution, and wall-clock times — on the
many-to-many chain workload where |q(D)| ≫ N.

One function per reported table; each returns a pandas frame whose rows are
printed by the corresponding ``jobs/`` entrypoint and asserted on by the
corresponding benchmark.
"""
from __future__ import annotations

import time

import pandas as pd

from repro.baselines.full_join import exact_cost, full_join_cluster, materialized_features
from repro.baselines.kmeanspp_rel import rel_kmeanspp
from repro.baselines.rkmeans import rkmeans
from repro.core.api import rel_kmeans, rel_kmedian
from repro.core.hierarchy import relational_cluster
from repro.joins.engine import Engine
from repro.joins.yannakakis import RelQuery
from repro.workloads import chain_query


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def _scored(P, objective: str, runs, n_ref: int, cost_fj: float, k: int, n: int) -> list[dict]:
    """One table row per (method, centers, seconds) run: its exact cost on
    the materialized join ``P`` and its ratio to the best known cost — the
    least of the full-join clusterer's ``cost_fj`` and the first ``n_ref``
    runs' costs."""
    costs = [exact_cost(P, S, objective) for _, S, _ in runs]
    best = min(cost_fj, *costs[:n_ref])
    return [
        {
            "method": name,
            "k": k,
            "cost": c,
            "ratio_vs_best": c / best,
            "seconds": t,
            "n_per_rel": n,
            "join_size": len(P),
        }
        for (name, _, t), c in zip(runs, costs)
    ]


def build_chain(engine: Engine, n: int, seed: int = 0) -> RelQuery:
    """The standard benchmark instance: N tuples/relation, N/10 keys."""
    return chain_query(engine, n=n, n_keys=max(10, n // 10), seed=seed)


def kmedian_table(
    engine: Engine,
    *,
    n: int = 1000,
    ks=(3, 5),
    eps: float = 0.5,
    pool_size: int = 20_000,
    seed: int = 0,
) -> pd.DataFrame:
    """Table 1, k-median rows: NEW (randomized R; geometric + discrete) vs.
    the two-step full-join baseline. No prior relational k-median baseline
    exists (the paper's algorithms are the first)."""
    Q = build_chain(engine, n, seed)
    P = materialized_features(Q)
    rows = []
    for k in ks:
        res, t_new = _timed(
            lambda: rel_kmedian(Q, k, eps=eps, pool_size=pool_size, seed=seed)
        )
        resd, t_newd = _timed(
            lambda: rel_kmedian(Q, k, eps=eps, pool_size=pool_size, seed=seed, discrete=True)
        )
        (S_fj, cost_fj, info), t_fj = _timed(
            lambda: full_join_cluster(Q, k, "median", seed=seed)
        )
        runs = [
            ("NEW (rand, geometric)", res.centers, t_new),
            ("NEW (rand, discrete)", resd.centers, t_newd),
            ("FullJoin (two-step)", S_fj, t_fj),
        ]
        rows += _scored(P, "median", runs, 1, cost_fj, k, n)
    return pd.DataFrame(rows)


def kmeans_table(
    engine: Engine,
    *,
    n: int = 1000,
    ks=(3, 5),
    eps: float = 0.5,
    pool_size: int = 20_000,
    seed: int = 0,
) -> pd.DataFrame:
    """Table 1, k-means rows: NEW vs. [23] Rk-means grid coreset vs. [43]
    relational k-means++ vs. the full-join baseline."""
    Q = build_chain(engine, n, seed)
    P = materialized_features(Q)
    rows = []
    for k in ks:
        res, t_new = _timed(
            lambda: rel_kmeans(Q, k, eps=eps, pool_size=pool_size, seed=seed)
        )
        (S_23, _, _), t_23 = _timed(lambda: rkmeans(Q, k, seed=seed))
        (S_43, _, _), t_43 = _timed(
            lambda: rel_kmeanspp(Q, k, pool_size=pool_size, seed=seed)
        )
        (S_fj, cost_fj, _), t_fj = _timed(
            lambda: full_join_cluster(Q, k, "means", seed=seed)
        )
        runs = [
            ("NEW (rand)", res.centers, t_new),
            ("Rk-means [23]", S_23, t_23),
            ("k-means++ coreset [43]", S_43, t_43),
            ("FullJoin (two-step)", S_fj, t_fj),
        ]
        rows += _scored(P, "means", runs, 1, cost_fj, k, n)
    return pd.DataFrame(rows)


def deterministic_table(
    engine: Engine,
    *,
    n: int = 80,
    k: int = 2,
    eps: float = 0.8,
    seed: int = 0,
) -> pd.DataFrame:
    """Table 1, deterministic (D) rows: Algorithm 1 inside Algorithm 3.

    Small scale by design — the deterministic path enumerates full grids and
    runs an exact CountRect per arrangement piece (Ω(|X|^{d+1} N) as the
    paper states), so it is measured on a small instance alongside the
    randomized algorithm and the full-join reference on the same instance.
    """
    Q = chain_query(engine, n=n, n_keys=max(6, n // 10), seed=seed)
    P = materialized_features(Q)
    rows = []
    for objective in ("median", "means"):
        res_d, t_d = _timed(
            lambda: relational_cluster(
                Q, k, eps, objective, method="slow", seed=seed
            )
        )
        res_r, t_r = _timed(
            lambda: relational_cluster(
                Q, k, eps, objective, method="fast", pool_size=4000, seed=seed
            )
        )
        (S_fj, cost_fj, _), t_fj = _timed(
            lambda: full_join_cluster(Q, k, objective, seed=seed)
        )
        runs = [
            (f"NEW (det, {objective})", res_d.centers, t_d),
            (f"NEW (rand, {objective})", res_r.centers, t_r),
            (f"FullJoin ({objective})", S_fj, t_fj),
        ]
        rows += _scored(P, objective, runs, 2, cost_fj, k, n)
    return pd.DataFrame(rows)


def scaling_table(
    engine: Engine,
    *,
    ns=(500, 1000, 2000),
    k: int = 3,
    eps: float = 0.5,
    pool_size: int = 20_000,
    seed: int = 0,
) -> pd.DataFrame:
    """Table 1, running-time column: NEW is Õ(k²N) while the two-step
    baseline pays for |q(D)| — on the chain workload the join size grows
    super-linearly in N, so the gap must widen with N."""
    rows = []
    for n in ns:
        Q = build_chain(engine, n, seed)
        n_join = Q.total_count()
        res, t_new = _timed(
            lambda: rel_kmedian(Q, k, eps=eps, pool_size=pool_size, seed=seed)
        )
        (S_fj, _, info), t_fj = _timed(
            lambda: full_join_cluster(Q, k, "median", seed=seed)
        )
        rows.append(
            {
                "n_per_rel": n,
                "join_size": n_join,
                "blowup": n_join / (3 * n),
                "NEW_seconds": t_new,
                "FullJoin_seconds": t_fj,
                "speedup": t_fj / t_new,
            }
        )
    return pd.DataFrame(rows)


def format_md(df: pd.DataFrame, floatfmt: str = "{:.3f}") -> str:
    """Render a result frame as a GitHub markdown table."""
    show = df.copy()
    for c in show.columns:
        if show[c].dtype.kind == "f":
            show[c] = show[c].map(lambda v: floatfmt.format(v))
    header = "| " + " | ".join(show.columns) + " |"
    sep = "|" + "|".join("---" for _ in show.columns) + "|"
    lines = ["| " + " | ".join(str(v) for v in row) + " |" for row in show.to_numpy()]
    return "\n".join([header, sep, *lines])
