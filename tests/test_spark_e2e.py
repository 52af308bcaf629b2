"""End-to-end relational clustering on the Spark engine (the production path)."""
import numpy as np
import pytest

from repro.baselines.full_join import exact_cost, full_join_cluster, materialized_features
from repro.baselines.kmeanspp_rel import rel_kmeanspp
from repro.baselines.rkmeans import rkmeans
from repro.core.api import rel_kmeans, rel_kmedian
from repro.joins.engine import SparkEngine
from repro.workloads import chain_query, cycle4_query, star_query


@pytest.fixture(scope="module")
def sq(spark):
    return chain_query(SparkEngine(spark), n=400, n_keys=50, seed=9)


@pytest.fixture(scope="module")
def sP(sq):
    return materialized_features(sq)


class TestChainOnSpark:
    def test_kmedian_within_bound(self, sq, sP):
        res = rel_kmedian(sq, 3, eps=0.5, pool_size=4000, seed=0)
        _, cost_fj, _ = full_join_cluster(sq, 3, "median", P=sP, seed=0)
        ratio = exact_cost(sP, res.centers, "median") / cost_fj
        assert ratio <= 1.5, ratio

    def test_kmeans_within_bound(self, sq, sP):
        res = rel_kmeans(sq, 3, eps=0.5, pool_size=4000, seed=0)
        _, cost_fj, _ = full_join_cluster(sq, 3, "means", P=sP, seed=0)
        ratio = exact_cost(sP, res.centers, "means") / cost_fj
        assert ratio <= 1.8, ratio

    def test_discrete_kmedian_centers_are_join_results(self, sq, sP):
        res = rel_kmedian(sq, 2, eps=0.5, pool_size=3000, seed=1, discrete=True)
        real = {tuple(p) for p in np.round(sP, 9)}
        for c in np.round(res.centers, 9):
            assert tuple(c) in real

    def test_rkmeans_baseline_on_spark(self, sq, sP):
        S, grid, _ = rkmeans(sq, 3, seed=0)
        assert grid.total_weight == pytest.approx(sq.total_count())
        _, cost_fj, _ = full_join_cluster(sq, 3, "means", P=sP, seed=0)
        assert exact_cost(sP, S, "means") / cost_fj < 5.0

    def test_rkmeans_matches_local_engine(self, sq):
        """The same centers, grid points and weights on Spark as on pandas."""
        from repro.joins.engine import LocalEngine

        lq = chain_query(LocalEngine(), n=400, n_keys=50, seed=9)
        (S, grid, _), (lS, lgrid, _) = rkmeans(sq, 3, seed=0), rkmeans(lq, 3, seed=0)
        assert np.array_equal(S, lS)

        def by_point(g):
            order = np.lexsort(g.points.T[::-1])
            return g.points[order], g.weights[order]

        (P, w), (lP, lw) = by_point(grid), by_point(lgrid)
        assert np.array_equal(P, lP) and np.array_equal(w, lw)
        assert w.sum() == sq.total_count()

    def test_kmeanspp_baseline_on_spark(self, sq, sP):
        S, core, _ = rel_kmeanspp(sq, 3, pool_size=3000, seed=0)
        assert core.total_weight == pytest.approx(sq.total_count())
        _, cost_fj, _ = full_join_cluster(sq, 3, "means", P=sP, seed=0)
        assert exact_cost(sP, S, "means") / cost_fj < 2.5


class TestStarOnSpark:
    def test_kmedian_star(self, spark):
        Q = star_query(SparkEngine(spark), sf=0.002, seed=0)
        P = materialized_features(Q)
        res = rel_kmedian(Q, 3, eps=0.5, pool_size=4000, seed=0)
        _, cost_fj, _ = full_join_cluster(Q, 3, "median", P=P, seed=0)
        assert exact_cost(P, res.centers, "median") / cost_fj <= 1.5


class TestCyclicOnSpark:
    def test_cycle4_clustering(self, spark):
        Q = cycle4_query(SparkEngine(spark), n=200, n_keys=8, seed=1)
        assert Q.total_count() > 0
        P = materialized_features(Q)
        res = rel_kmedian(Q, 2, eps=0.5, pool_size=2000, seed=0)
        _, cost_fj, _ = full_join_cluster(Q, 2, "median", P=P, seed=0)
        assert exact_cost(P, res.centers, "median") / cost_fj <= 1.6


class TestQueryLifetime:
    def test_warm_call_equals_fresh_query(self, spark, sq):
        """Calls on one query share its kept multiplicities; a warm call
        returns what the same seed returns on a fresh query, bit for bit."""
        rel_kmedian(sq, 3, pool_size=3000, seed=5)
        warm = rel_kmedian(sq, 3, pool_size=3000, seed=0)
        with chain_query(SparkEngine(spark), n=400, n_keys=50, seed=9) as fresh:
            cold = rel_kmedian(fresh, 3, pool_size=3000, seed=0)
        assert np.array_equal(warm.centers, cold.centers)
        assert warm.r == cold.r

    def test_close_unpersists_reduced_frames(self, spark):
        from pyspark import StorageLevel

        Q = chain_query(SparkEngine(spark), n=100, n_keys=10, seed=2)
        Q.total_count()
        kept = Q.multiplicities()
        assert all(df.storageLevel != StorageLevel.NONE for df in Q.dfs.values())
        Q.close()
        assert all(df.storageLevel == StorageLevel.NONE for df in Q.dfs.values())
        Q.close()  # a second close does nothing
        assert Q.multiplicities() is not kept
