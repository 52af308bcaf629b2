"""Benchmark fixtures: one Spark chain instance shared by the Table-1 benches."""
from __future__ import annotations

import pytest

BENCH_N = 1000  # tuples per relation for the quality benches


@pytest.fixture(scope="session")
def bench_q(spark):
    """The Table-1 benchmark instance on the Spark engine, primed with its
    one-time work (|q(D)| and the up–down multiplicities, which the query
    keeps), so every bench times a warm call."""
    from repro.experiments import build_chain
    from repro.joins.engine import SparkEngine

    with build_chain(SparkEngine(spark), BENCH_N, seed=0) as Q:
        Q.total_count()
        Q.multiplicities()
        yield Q


@pytest.fixture(scope="session")
def bench_join(bench_q):
    """Materialized join features — reference-cost evaluation only."""
    from repro.baselines.full_join import materialized_features

    return materialized_features(bench_q)
