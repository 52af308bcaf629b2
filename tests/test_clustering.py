"""Standard-setting clustering black boxes (GkMedianAlg / GkMeansAlg / discrete)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering import cluster
from repro.clustering.cost import assign, weighted_cost
from repro.clustering import lloyd
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


def dense_medoid_costs(Q, wq, objective):
    """Σ_j wq[j]·dist(Q[i], Q[j])^power from the full (m, m, d) difference array."""
    d = np.sqrt(((Q[:, None, :] - Q[None, :, :]) ** 2).sum(axis=2))
    if objective == "means":
        d = d**2
    return (d * wq[None, :]).sum(axis=1)


@pytest.mark.parametrize("objective", ["median", "means"])
class TestMedoids:
    """The discrete snap sums distances one row block at a time."""

    @pytest.mark.parametrize("block, m", [(7 * 50 * 3, 50), (7 * 50 * 3, 600), (None, 700)])
    def test_blocks_equal_dense_formula(self, objective, block, m, monkeypatch):
        if block is not None:
            monkeypatch.setattr(lloyd, "_BLOCK", block)
        g = np.random.default_rng(11)
        Q, wq = g.normal(size=(m, 3)), g.integers(1, 9, m).astype(float)
        assert lloyd._BLOCK // Q.size < m  # the rows span more than one block
        assert np.array_equal(lloyd._medoid_costs(Q, wq, objective),
                              dense_medoid_costs(Q, wq, objective))
        P, w = g.normal(size=(m, 3)), g.random(m)
        C = P[:3] + 0.1
        lab = assign(P, C)
        want = np.unique(np.asarray(
            [P[lab == i][dense_medoid_costs(P[lab == i], w[lab == i], objective).argmin()]
             for i in range(3)]), axis=0)
        assert np.array_equal(lloyd._medoids(P, w, C, objective), want)

    def test_large_cluster_memory_is_not_quadratic(self, objective):
        import tracemalloc

        m = 2000  # a dense (m, m, 2) difference array alone is 64 MB
        P = np.random.default_rng(12).normal(size=(m, 2))
        tracemalloc.start()
        try:
            S, _ = cluster(P, None, 1, objective, discrete=True, rng=np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(S) == 1
        assert peak < 40 * 2**20, peak


def reference_cluster(P, w, k, objective, rng, n_init=3, tol=1e-7):
    """``cluster``'s loop with two distance passes per step (assign, then
    price the new centers), a final re-pricing and ``np.unique`` merging:
    the loop ``cluster`` runs with one pass per step."""
    P, inv = np.unique(P, axis=0, return_inverse=True)
    wu = np.zeros(len(P))
    np.add.at(wu, inv.ravel(), w)
    w = wu
    if len(P) <= k:
        return P, 0.0
    update = lloyd._UPDATE[objective]
    best_c, best_cost = None, np.inf
    for _ in range(n_init):
        C = pp_init(P, w, k, rng, power=lloyd._POWER[objective])
        prev = np.inf
        for _ in range(lloyd._N_ITER[objective]):
            lab = assign(P, C)
            newC = []
            for i in range(len(C)):
                m = lab == i
                newC.append(update(P[m], w[m]) if m.any() else P[rng.choice(len(P), p=w / w.sum())])
            C = np.asarray(newC)
            cost = weighted_cost(P, C, w, objective)
            if prev - cost <= tol * max(prev, 1.0):
                break
            prev = cost
        cost = weighted_cost(P, C, w, objective)
        if cost < best_cost:
            best_c, best_cost = C, cost
    return best_c, float(best_cost)


class TestMatchesReferenceLoop:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        d=st.integers(1, 3),
        n=st.integers(1, 300),
        k=st.integers(1, 6),
        dup=st.booleans(),
        objective=st.sampled_from(["median", "means"]),
    )
    def test_bit_identical(self, seed, d, n, k, dup, objective):
        """Same centers and cost as two distance passes per step, with
        duplicate points merged."""
        g = np.random.default_rng(seed)
        P = g.normal(scale=4.0, size=(n, d)).round(0 if dup else 12)
        w = g.integers(1, 9, n).astype(np.float64)
        got = cluster(P, w, k, objective, rng=np.random.default_rng(seed))
        want = reference_cluster(P, w, k, objective, np.random.default_rng(seed))
        assert np.array_equal(got[0], want[0])
        assert got[1] == want[1]


@pytest.mark.parametrize("objective", ["median", "means"])
@pytest.mark.xfail(
    strict=True,
    reason="cluster's stopping test starts from prev = inf, so `inf <= inf` "
    "ends every run after its first update step",
)
def test_cluster_stops_only_on_a_converged_step(objective, monkeypatch):
    """Each restart stops once a step improves the cost by at most
    ``tol`` (relative), or after ``n_iter`` steps. Here seeding leaves the
    cost well above a local optimum, yet the loop makes one update step."""
    costs = []
    orig = lloyd._assign_cost

    def spy(*args):
        lab, c = orig(*args)
        costs.append(c)
        return lab, c

    monkeypatch.setattr(lloyd, "_assign_cost", spy)
    g = np.random.default_rng(0)
    P = g.normal(size=(400, 2)) + np.repeat(g.normal(scale=6.0, size=(4, 2)), 100, axis=0)
    lloyd.cluster(P, None, 4, objective, rng=np.random.default_rng(1), n_init=1, n_iter=30)
    steps = costs[1:]
    assert costs[0] - costs[1] > 1e-7 * costs[0]  # the first step improved
    last_gain = (costs[-2] - costs[-1]) / max(costs[-2], 1.0)
    assert len(steps) == 30 or last_gain <= 1e-7, costs
