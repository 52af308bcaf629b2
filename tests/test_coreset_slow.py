"""Algorithm 1 (RelClusteringSlow): exact deterministic coreset, local engine
(and one Spark parity check)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering.cost import weighted_cost
from repro.core import coreset_slow
from repro.core.coreset_fast import build_coreset_fast, cluster_coreset, phi_scale
from repro.core.coreset_slow import build_coreset_slow, claim_weights, processed_cells
from repro.geometry.boxes import Box
from repro.geometry.grid import GridParams
from repro.joins import yannakakis
from repro.joins.engine import LocalEngine, SparkEngine
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


def first_box_weights(P, los, his):
    """Brute force: each point belongs to the first half-open box holding it."""
    owner = np.full(len(P), -1)
    for b in range(len(los)):
        inside = ((P >= los[b]) & (P < his[b])).all(axis=1) & (owner < 0)
        owner[inside] = b
    return np.bincount(owner[owner >= 0], minlength=len(los))


def assert_representatives(P, pts, w, los, his):
    """Row i of pts is a join result in the i-th box with weight > 0, and in
    no box before it (□ \\ G)."""
    real = {tuple(p) for p in P}
    assert len(pts) == int((w > 0).sum())
    for p, b in zip(pts, np.flatnonzero(w > 0)):
        assert tuple(p) in real
        assert ((p >= los[b]) & (p < his[b])).all()
        assert not ((p >= los[:b]) & (p < his[:b])).all(axis=1).any()


class TestClaimWeights:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_first_box_brute_force(self, data):
        """Random instances and random ordered box lists, d ∈ {1, 2, 3}."""
        seed = data.draw(st.integers(0, 10_000), label="seed")
        tree, tables = random_instance(
            seed, n=data.draw(st.integers(5, 40)), n_keys=data.draw(st.integers(1, 5))
        )
        Q = RelQuery(LocalEngine(), tree, tables)
        joined = brute_force_join(tree, tables)
        d = data.draw(st.integers(1, 3), label="d")
        feats = data.draw(st.permutations(["fa", "fb", "fc"]), label="feats")[:d]
        P = joined[feats].to_numpy(dtype=np.float64)
        # Edges from a coarse grid plus actual data values, so boxes share
        # faces, nest, and put points exactly on their lo and hi edges.
        cand = np.unique(np.r_[np.linspace(-0.25, 1.25, 13), P.ravel()[:10]])
        pair = st.lists(st.integers(0, len(cand) - 1), min_size=2, max_size=2, unique=True)
        boxes = data.draw(st.lists(st.lists(pair.map(sorted), min_size=d, max_size=d), max_size=8))
        ends = np.array(boxes, dtype=np.int64).reshape(-1, d, 2)
        los, his = cand[ends[:, :, 0]], cand[ends[:, :, 1]]
        w, pts, n_elementary = claim_weights(Q, feats, los, his, np.random.default_rng(seed))
        assert np.array_equal(w, first_box_weights(P, los, his))
        assert n_elementary <= len(np.unique(P, axis=0))
        assert_representatives(P, pts, w, los, his)

    def test_representatives_in_own_cell(self, inst):
        """On Algorithm 1's own cells: each representative lies in □ \\ G."""
        Q, joined = inst
        feats = ["fa", "fb"]
        X, r, P = setup_X(Q, joined, feats, seed=1)
        params = GridParams(phi_scale(r, 2.0, len(P), "median"), 0.8, 2.0, 2, c_g=0.5)
        bbox = Box(tuple(P.min(axis=0) - 1e-9), tuple(P.max(axis=0) + 1e-9))
        los, his, _ = processed_cells(X, params, bbox, params.max_level(len(P)), 4000)
        w, pts, _ = claim_weights(Q, feats, los, his, np.random.default_rng(0))
        assert w.sum() == len(P)
        assert np.array_equal(w, first_box_weights(P, los, his))
        assert_representatives(P, pts, w, los, his)

    def test_one_counting_dp_per_call(self, inst, monkeypatch):
        """One carried DP per node, and no engine collect per cell."""
        Q, joined = inst
        Q.total_count()  # |q(D)| is cached on the query, as in relational_cluster
        feats = ["fa", "fb"]
        X, r, _ = setup_X(Q, joined, feats, seed=2)
        dps, collects = [], []
        orig_dp, orig_collect = yannakakis.subtree_counts, Q.engine.to_pandas

        def dp(*a, **kw):
            dps.append(1)
            return orig_dp(*a, **kw)

        def collect(df):
            collects.append(1)
            return orig_collect(df)

        monkeypatch.setattr(yannakakis, "subtree_counts", dp)
        monkeypatch.setattr(coreset_slow, "subtree_counts", dp)
        monkeypatch.setattr(Q.engine, "to_pandas", collect)
        C = build_coreset_slow(Q, feats, X, 2.0, r, 0.8, "median", c_g=0.5, max_cells=4000)
        assert len(dps) == 1
        assert C.info["n_processed"] > len(Q.tree.relations) + 1
        assert len(collects) == len(Q.tree.relations)  # each count frame, once


class TestSparkParity:
    def test_same_weights_and_points(self, spark):
        tree, tables = random_instance(21, n=40, n_keys=5)
        se = SparkEngine(spark)
        lq = RelQuery(LocalEngine(), tree, tables)
        sq = RelQuery(se, tree, {u: se.from_pandas(t) for u, t in tables.items()})
        feats = ["fa", "fb"]
        X, r, _ = setup_X(lq, brute_force_join(tree, tables), feats)
        a, b = (
            build_coreset_slow(q, feats, X, 2.0, r, 0.8, "median", c_g=0.5, max_cells=4000,
                               rng=np.random.default_rng(0))
            for q in (lq, sq)
        )
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.points, b.points)
        assert a.info == b.info
