"""Algorithm 1 (RelClusteringSlow): exact deterministic coreset, local engine."""
import numpy as np
import pytest

from repro.clustering.cost import weighted_cost
from repro.core.coreset_fast import build_coreset_fast, cluster_coreset
from repro.core.coreset_slow import build_coreset_slow
from repro.joins.engine import LocalEngine
from repro.joins.yannakakis import RelQuery
from tests.conftest import brute_force_join
from tests.test_yannakakis_local import random_instance


@pytest.fixture(scope="module")
def inst():
    eng = LocalEngine()
    tree, tables = random_instance(21, n=40, n_keys=5)
    Q = RelQuery(eng, tree, tables)
    joined = brute_force_join(tree, tables)
    return Q, joined


def setup_X(Q, joined, feats, k=2, seed=0):
    """A crude center set X with a valid certificate r = v_X(q_u(D))."""
    g = np.random.default_rng(seed)
    P = joined[feats].to_numpy(dtype=np.float64)
    X = P[g.choice(len(P), k * k, replace=False)]
    r = weighted_cost(P, X, None, "median")
    return X, r, P


class TestBuildCoresetSlow:
    def test_total_weight_exactly_n(self, inst):
        """Every join result is counted exactly once (Lemma 3.1)."""
        Q, joined = inst
        feats = ["fa", "fb"]
        X, r, P = setup_X(Q, joined, feats)
        C = build_coreset_slow(Q, feats, X, 2.0, r, 0.8, "median", c_g=0.5, max_cells=4000)
        assert C.total_weight == pytest.approx(len(joined), abs=1e-9)

    def test_representatives_are_join_results(self, inst):
        Q, joined = inst
        feats = ["fa", "fb"]
        X, r, P = setup_X(Q, joined, feats, seed=1)
        C = build_coreset_slow(Q, feats, X, 2.0, r, 0.8, "median", c_g=0.5, max_cells=4000)
        real = {tuple(p) for p in np.round(joined[feats].to_numpy(float), 9)}
        for p in np.round(C.points, 9):
            assert tuple(p) in real

    def test_eps_coreset_property(self, inst):
        """Cost on C approximates cost on q_u(D) for arbitrary Y (Lemma 3.2)."""
        Q, joined = inst
        feats = ["fa", "fb"]
        X, r, P = setup_X(Q, joined, feats, seed=2)
        C = build_coreset_slow(Q, feats, X, 2.0, r, 0.4, "median", c_g=1.0, max_cells=6000)
        g = np.random.default_rng(3)
        for _ in range(4):
            Y = g.random((2, 2))
            exact = weighted_cost(P, Y, None, "median")
            approx = weighted_cost(C.points, Y, C.weights, "median")
            assert abs(approx - exact) <= 0.4 * exact

    def test_one_dim(self, inst):
        Q, joined = inst
        feats = ["fc"]
        X, r, _ = setup_X(Q, joined, feats, seed=3)
        C = build_coreset_slow(Q, feats, X, 2.0, r, 0.5, "median", c_g=0.5, max_cells=4000)
        assert C.total_weight == pytest.approx(len(joined))

    def test_means_objective(self, inst):
        Q, joined = inst
        feats = ["fa", "fb"]
        g = np.random.default_rng(4)
        P = joined[feats].to_numpy(float)
        X = P[g.choice(len(P), 4, replace=False)]
        r = weighted_cost(P, X, None, "means")
        C = build_coreset_slow(Q, feats, X, 2.0, r, 0.8, "means", c_g=0.5, max_cells=4000)
        assert C.total_weight == pytest.approx(len(joined))

    def test_max_cells_guard(self, inst):
        Q, joined = inst
        feats = ["fa", "fb"]
        X, r, _ = setup_X(Q, joined, feats, seed=5)
        with pytest.raises(RuntimeError):
            build_coreset_slow(Q, feats, X, 2.0, r, 0.05, "median", c_g=10.0, max_cells=50)


class TestSlowVsFast:
    def test_agree_on_cluster_cost(self, inst):
        """The deterministic and sampled coresets certify similar costs."""
        Q, joined = inst
        feats = ["fa", "fb"]
        X, r, P = setup_X(Q, joined, feats, seed=6)
        rng = np.random.default_rng(0)
        C_slow = build_coreset_slow(
            Q, feats, X, 2.0, r, 0.5, "median", c_g=0.5, max_cells=4000, rng=rng
        )
        S_slow, _ = cluster_coreset(C_slow, 2, 0.5, "median", rng=rng)
        C_fast = build_coreset_fast(P, len(P), X, 2.0, r, 0.5, "median")
        from repro.clustering import cluster

        S_fast, _ = cluster(C_fast.points, C_fast.weights, 2, "median", rng=np.random.default_rng(0))
        cost_slow = weighted_cost(P, S_slow, None, "median")
        cost_fast = weighted_cost(P, S_fast, None, "median")
        assert cost_slow == pytest.approx(cost_fast, rel=0.3)

    def test_slow_solution_near_direct(self, inst):
        Q, joined = inst
        feats = ["fa", "fb"]
        X, r, P = setup_X(Q, joined, feats, seed=7)
        from repro.clustering import cluster

        S_direct, cost_direct = cluster(P, None, 2, "median", rng=np.random.default_rng(0))
        rng = np.random.default_rng(0)
        C_slow = build_coreset_slow(
            Q, feats, X, 2.0, r, 0.4, "median", c_g=1.0, max_cells=6000, rng=rng
        )
        S_slow, _ = cluster_coreset(C_slow, 2, 0.4, "median", rng=rng)
        cost_slow = weighted_cost(P, S_slow, None, "median")
        assert cost_slow <= 1.4 * cost_direct
