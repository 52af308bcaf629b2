"""Baselines: full-join, Rk-means grid coreset [23], relational k-means++ [43]."""
import numpy as np
import pytest

from repro.baselines.full_join import exact_cost, full_join_cluster, materialized_features
from repro.baselines.kmeanspp_rel import rel_kmeanspp
from repro.baselines.rkmeans import rkmeans
from repro.core.api import rel_kmeans
from tests.conftest import brute_force_join
from repro.joins.yannakakis import RelQuery
from tests.test_yannakakis_local import random_instance


class TestFullJoin:
    def test_materialized_matches_brute_force_size(self, chain_small, chain_small_join):
        assert len(chain_small_join) == chain_small.total_count()

    def test_cluster_returns_k(self, chain_small, chain_small_join):
        S, cost, info = full_join_cluster(chain_small, 3, "means", P=chain_small_join)
        assert S.shape == (3, 3)
        assert info["join_size"] == len(chain_small_join)
        assert cost == pytest.approx(exact_cost(chain_small_join, S, "means"))

    def test_materializes_when_not_given(self, local):
        tree, tables = random_instance(30, n=30, n_keys=4)
        Q = RelQuery(local, tree, tables)
        S, cost, info = full_join_cluster(Q, 2, "median", seed=0)
        assert info["join_size"] == len(brute_force_join(tree, tables))


class TestRkMeans:
    def test_grid_weights_sum_to_join_size(self, chain_small):
        S, grid, _ = rkmeans(chain_small, 3)
        assert grid.total_weight == pytest.approx(chain_small.total_count())

    def test_grid_size_at_most_k_pow_m(self, chain_small):
        k = 3
        S, grid, _ = rkmeans(chain_small, k)
        assert len(grid) <= k ** len(chain_small.tree.relations)

    def test_grid_weights_match_brute_force(self, local):
        """Grid-cell weights from the relational DP equal brute-force counts."""
        tree, tables = random_instance(31, n=40, n_keys=5)
        Q = RelQuery(local, tree, tables)
        k = 2
        S, grid, _ = rkmeans(Q, k)
        joined = brute_force_join(tree, tables)
        # Re-derive weights: assign each joined row's per-relation features to
        # the same per-relation centers is hard without exposing them, so we
        # check the aggregate invariants instead: total mass and count bounds.
        assert grid.total_weight == pytest.approx(len(joined))
        assert (grid.weights > 0).all()

    def test_reasonable_quality_on_clustered_data(self, chain_small, chain_small_join):
        P = chain_small_join
        S, _, _ = rkmeans(chain_small, 3, seed=0)
        _, cost_fj, _ = full_join_cluster(chain_small, 3, "means", P=P, seed=0)
        ratio = exact_cost(P, S, "means") / cost_fj
        # [23]'s worst case is γ²+4γ√γ+4γ; in practice the grid coreset
        # should stay within a small constant of the direct solution.
        assert ratio < 5.0

    def test_centers_shape(self, chain_small):
        S, _, _ = rkmeans(chain_small, 4)
        assert S.shape[1] == 3
        assert S.shape[0] <= 4


class TestRelKMeansPP:
    def test_coreset_size_k_log_n(self, chain_small):
        k = 3
        S, core, _ = rel_kmeanspp(chain_small, k, pool_size=2000, seed=0)
        n = chain_small.total_count()
        assert len(core) <= k * int(np.ceil(np.log2(n)))

    def test_weights_sum_to_n(self, chain_small):
        S, core, _ = rel_kmeanspp(chain_small, 3, pool_size=2000, seed=1)
        assert core.total_weight == pytest.approx(chain_small.total_count())

    def test_quality_close_to_full_join(self, chain_small, chain_small_join):
        P = chain_small_join
        S, _, _ = rel_kmeanspp(chain_small, 3, pool_size=3000, seed=0)
        _, cost_fj, _ = full_join_cluster(chain_small, 3, "means", P=P, seed=0)
        ratio = exact_cost(P, S, "means") / cost_fj
        assert ratio < 2.0  # far below the 320+644γ worst-case bound

    def test_explicit_t(self, chain_small):
        S, core, _ = rel_kmeanspp(chain_small, 2, pool_size=1000, t=10, seed=0)
        assert len(core) <= 10


class TestTable1Shape:
    """The qualitative claim of Table 1: NEW ≤ baselines on k-means cost."""

    def test_new_not_worse_than_grid_baseline(self, chain_small, chain_small_join):
        P = chain_small_join
        res = rel_kmeans(chain_small, 3, eps=0.5, pool_size=4000, seed=0)
        S_grid, _, _ = rkmeans(chain_small, 3, seed=0)
        c_new = exact_cost(P, res.centers, "means")
        c_grid = exact_cost(P, S_grid, "means")
        assert c_new <= c_grid * 1.1  # NEW wins (small slack for randomness)


class TestBadArguments:
    """Every baseline rejects k < 1 (through ``cluster``), and the
    k-means++ baseline rejects an empty pool before it samples."""

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one(self, chain_small, chain_small_join, k):
        with pytest.raises(ValueError, match="k must be at least 1"):
            rkmeans(chain_small, k)
        with pytest.raises(ValueError, match="k must be at least 1"):
            rel_kmeanspp(chain_small, k, pool_size=500)
        with pytest.raises(ValueError, match="k must be at least 1"):
            full_join_cluster(chain_small, k, "means", P=chain_small_join)

    @pytest.mark.parametrize("pool_size", [0, -5])
    def test_pool_size_below_one(self, chain_small, pool_size, monkeypatch):
        def no_sampling(*a, **kw):
            raise AssertionError("sampled before checking pool_size")

        monkeypatch.setattr(chain_small, "sample", no_sampling)
        with pytest.raises(ValueError, match="pool_size must be at least 1"):
            rel_kmeanspp(chain_small, 3, pool_size=pool_size)
