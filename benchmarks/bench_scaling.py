"""Table 1, running-time column (measured): NEW is Õ(k²N); two-step pays |q(D)|.

On the Zipf chain the join size grows super-linearly in N, so the full-join
baseline's time must grow faster than NEW's — the crossover/shape claim
behind "without the need for pre-computing the join query results".

Each N gets a fresh query. ``test_scaling_new`` records the query's one-time
work (the collect of the reduced relations and the up–down pass, which
|q(D)| reads) as ``prep_s`` and times the first call after it; a cold call
takes their sum. One untimed query on the first N runs before them, so the
first N's ``prep_s`` does not carry Spark's first-use warm-up.
"""
import time

import pytest

from repro.baselines.full_join import full_join_cluster
from repro.core.api import rel_kmedian
from repro.experiments import build_chain
from repro.joins.engine import SparkEngine

K = 3
NS = [500, 1000, 2000]


@pytest.fixture(scope="module")
def queries(spark):
    eng = SparkEngine(spark)
    with build_chain(eng, NS[0], seed=0) as Q:
        Q.total_count()
        rel_kmedian(Q, K, eps=0.5, pool_size=20_000, seed=0)
    return {n: build_chain(eng, n, seed=0) for n in NS}


@pytest.mark.parametrize("n", NS)
def test_scaling_new(benchmark, queries, n):
    Q = queries[n]
    benchmark.extra_info["n_per_rel"] = n
    t0 = time.perf_counter()
    benchmark.extra_info["join_size"] = Q.total_count()
    benchmark.extra_info["prep_s"] = time.perf_counter() - t0
    benchmark.pedantic(
        lambda: rel_kmedian(Q, K, eps=0.5, pool_size=20_000, seed=0),
        rounds=1,
        iterations=1,
    )


@pytest.mark.parametrize("n", NS)
def test_scaling_fulljoin(benchmark, queries, n):
    Q = queries[n]
    benchmark.extra_info["n_per_rel"] = n
    benchmark.extra_info["join_size"] = Q.total_count()
    benchmark.pedantic(
        lambda: full_join_cluster(Q, K, "median", seed=0), rounds=1, iterations=1
    )
