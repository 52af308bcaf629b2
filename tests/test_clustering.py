"""Standard-setting clustering black boxes (GkMedianAlg / GkMeansAlg / discrete)."""
import numpy as np
import pytest

from repro.clustering import cluster
from repro.clustering.cost import assign, weighted_cost
from repro.clustering.lloyd import geometric_median, pp_init


def planted(k=3, n_per=200, d=2, sep=10.0, sigma=0.3, seed=0):
    g = np.random.default_rng(seed)
    centers = g.normal(scale=sep, size=(k, d))
    P = np.vstack([c + g.normal(scale=sigma, size=(n_per, d)) for c in centers])
    return P, centers


class TestCost:
    def test_zero_at_points(self):
        P = np.array([[0.0, 0.0], [1.0, 1.0]])
        assert weighted_cost(P, P, None, "median") == 0.0
        assert weighted_cost(P, P, None, "means") == 0.0

    def test_known_values(self):
        P = np.array([[0.0], [3.0]])
        C = np.array([[0.0]])
        assert weighted_cost(P, C, None, "median") == pytest.approx(3.0)
        assert weighted_cost(P, C, None, "means") == pytest.approx(9.0)

    def test_weights_scale_linearly(self):
        P = np.array([[0.0], [2.0]])
        C = np.array([[1.0]])
        w = np.array([2.0, 5.0])
        assert weighted_cost(P, C, w, "median") == pytest.approx(7.0)

    def test_nearest_center_used(self):
        P = np.array([[0.0], [10.0]])
        C = np.array([[0.0], [10.0]])
        assert weighted_cost(P, C, None, "median") == 0.0

    def test_unknown_objective(self):
        with pytest.raises(ValueError):
            weighted_cost(np.zeros((1, 1)), np.zeros((1, 1)), None, "mode")

    def test_assign(self):
        P = np.array([[0.0], [9.0], [5.1]])
        C = np.array([[0.0], [10.0]])
        assert assign(P, C).tolist() == [0, 1, 1]


class TestGeometricMedian:
    def test_collinear_is_weighted_median_point(self):
        Q = np.array([[0.0], [1.0], [10.0]])
        w = np.array([1.0, 1.0, 1.0])
        m = geometric_median(Q, w)
        assert abs(m[0] - 1.0) < 1e-6  # 1-D geometric median = middle point

    def test_heavy_weight_dominates(self):
        Q = np.array([[0.0, 0.0], [5.0, 5.0]])
        w = np.array([100.0, 1.0])
        m = geometric_median(Q, w)
        assert np.linalg.norm(m - Q[0]) < 0.01

    def test_symmetric_square_center(self):
        Q = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
        m = geometric_median(Q, np.ones(4))
        assert np.allclose(m, [0.5, 0.5], atol=1e-6)


class TestPPInit:
    @pytest.mark.parametrize("power", [1.0, 2.0])
    def test_spreads_over_planted_clusters(self, power):
        P, centers = planted(k=4, sep=30.0, sigma=0.1, seed=1)
        C = pp_init(P, np.ones(len(P)), 4, np.random.default_rng(1), power=power)
        # Each seeded center is near a distinct planted center.
        lab = assign(C, centers)
        assert len(set(lab.tolist())) == 4

    def test_returns_at_most_n(self):
        P = np.array([[0.0], [1.0]])
        C = pp_init(P, np.ones(2), 5, np.random.default_rng(0))
        assert len(C) <= 2


@pytest.mark.parametrize("objective", ["median", "means"])
class TestClusterDispatch:
    def test_recovers_planted_clusters(self, objective):
        P, centers = planted(k=3, sep=15.0, seed=2)
        S, cost = cluster(P, None, 3, objective, rng=np.random.default_rng(0))
        assert len(S) == 3
        # Every planted center has a found center within sigma-scale distance.
        d = np.sqrt(((centers[:, None, :] - S[None]) ** 2).sum(-1)).min(axis=1)
        assert (d < 1.0).all()

    def test_cost_matches_weighted_cost(self, objective):
        P, _ = planted(seed=3)
        S, cost = cluster(P, None, 3, objective, rng=np.random.default_rng(0))
        assert cost == pytest.approx(weighted_cost(P, S, None, objective))

    def test_weighted_equals_duplicated(self, objective):
        g = np.random.default_rng(4)
        P = g.random((40, 2))
        w = g.integers(1, 4, 40).astype(float)
        Pdup = np.repeat(P, w.astype(int), axis=0)
        Sw, cw = cluster(P, w, 2, objective, rng=np.random.default_rng(0))
        Sd, cd = cluster(Pdup, None, 2, objective, rng=np.random.default_rng(0))
        # Same optimum value (not necessarily same local path): compare costs loosely.
        assert cw == pytest.approx(cd, rel=0.15)

    def test_discrete_centers_subset_of_input(self, objective):
        P, _ = planted(k=2, n_per=50, seed=5)
        S, _ = cluster(P, None, 2, objective, discrete=True, rng=np.random.default_rng(0))
        Pset = {tuple(p) for p in np.round(P, 9)}
        for s in np.round(S, 9):
            assert tuple(s) in Pset

    def test_fewer_points_than_k(self, objective):
        P = np.array([[0.0, 0.0], [1.0, 1.0]])
        S, cost = cluster(P, None, 5, objective)
        assert cost == 0.0
        assert len(S) == 2

    def test_zero_weights_dropped(self, objective):
        P = np.array([[0.0], [100.0], [1.0]])
        w = np.array([1.0, 0.0, 1.0])
        S, cost = cluster(P, w, 1, objective, rng=np.random.default_rng(0))
        assert abs(S[0][0]) < 2.0  # the far point had zero weight


class TestEdgeCases:
    def test_unknown_objective_raises(self):
        with pytest.raises(ValueError):
            cluster(np.zeros((3, 1)), None, 1, "mode")

    def test_empty_input_raises(self):
        with pytest.raises(ValueError):
            cluster(np.zeros((0, 2)), None, 2, "means")
        with pytest.raises(ValueError):
            cluster(np.zeros((0, 2)), None, 2, "median")

    def test_duplicate_points_merged(self):
        P = np.array([[1.0, 1.0]] * 10 + [[5.0, 5.0]] * 10)
        S, cost = cluster(P, None, 2, "means", rng=np.random.default_rng(0))
        assert cost == pytest.approx(0.0, abs=1e-9)

    def test_discrete_cost_at_least_geometric(self):
        P, _ = planted(k=2, n_per=60, seed=7)
        _, cg = cluster(P, None, 2, "median", rng=np.random.default_rng(0))
        _, cd = cluster(P, None, 2, "median", discrete=True, rng=np.random.default_rng(0))
        assert cd >= cg - 1e-9

    @pytest.mark.parametrize("objective", ["median", "means"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected(self, objective, bad):
        P = np.array([[0.0, 0.0], [1.0, bad], [5.0, 5.0], [6.0, 6.0]])
        with pytest.raises(ValueError, match="non-finite"):
            cluster(P, None, 2, objective)

    @pytest.mark.parametrize("objective", ["median", "means"])
    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, objective, k):
        with pytest.raises(ValueError, match="k must be at least 1"):
            cluster(np.zeros((3, 2)), None, k, objective)

    @pytest.mark.parametrize("objective", ["median", "means"])
    def test_default_n_iter_per_objective(self, objective):
        # n_iter=None picks the objective's default (40 / 60 iterations).
        P, _ = planted(k=3, seed=8)
        default = cluster(P, None, 3, objective, rng=np.random.default_rng(0))
        explicit = cluster(
            P, None, 3, objective, rng=np.random.default_rng(0),
            n_iter={"median": 40, "means": 60}[objective],
        )
        assert np.array_equal(default[0], explicit[0]) and default[1] == explicit[1]
