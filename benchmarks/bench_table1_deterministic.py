"""Table 1, deterministic (D) rows (measured): Algorithm 1 at small scale.

The deterministic path enumerates full grids, Ω(|X|^{d+1}·N·polylog) cells,
and weighs them with one carried counting DP per node. It is benchmarked on
the in-memory engine at small N, next to the randomized algorithm on the
same instance; ``jobs/table1_deterministic.py`` runs the same rows on Spark.
"""
import pytest

from repro.baselines.full_join import exact_cost, full_join_cluster, materialized_features
from repro.core.hierarchy import relational_cluster
from repro.joins.engine import LocalEngine
from repro.workloads import chain_query

K = 2
N = 80


@pytest.fixture(scope="module")
def small_q():
    return chain_query(LocalEngine(), n=N, n_keys=8, seed=0)


@pytest.fixture(scope="module")
def small_join(small_q):
    return materialized_features(small_q)


@pytest.mark.parametrize("objective", ["median", "means"])
def test_deterministic_new(benchmark, small_q, small_join, objective):
    res = benchmark.pedantic(
        lambda: relational_cluster(
            small_q, K, 0.8, objective, method="slow", seed=0
        ),
        rounds=1,
        iterations=1,
    )
    _, cost_fj, _ = full_join_cluster(small_q, K, objective, P=small_join, seed=0)
    ratio = exact_cost(small_join, res.centers, objective) / cost_fj
    benchmark.extra_info["cost_ratio_vs_fulljoin"] = round(ratio, 4)
    assert ratio <= 1.8


@pytest.mark.parametrize("objective", ["median", "means"])
def test_randomized_same_instance(benchmark, small_q, small_join, objective):
    res = benchmark.pedantic(
        lambda: relational_cluster(
            small_q, K, 0.5, objective, method="fast", pool_size=4000, seed=0
        ),
        rounds=1,
        iterations=1,
    )
    _, cost_fj, _ = full_join_cluster(small_q, K, objective, P=small_join, seed=0)
    ratio = exact_cost(small_join, res.centers, objective) / cost_fj
    benchmark.extra_info["cost_ratio_vs_fulljoin"] = round(ratio, 4)
    assert ratio <= 1.6
