"""Algorithm 3 (attribute tree) and the end-to-end pipeline, local engine."""
import numpy as np
import pandas as pd
import pytest

from repro.baselines.full_join import exact_cost, full_join_cluster
from repro.clustering.cost import weighted_cost
from repro.core.api import rel_kmeans, rel_kmedian
from repro.core.hierarchy import _alpha, cross_product, relational_cluster


class TestCrossProduct:
    def test_shape(self):
        Sv = np.array([[1.0], [2.0]])
        Sz = np.array([[10.0, 20.0], [30.0, 40.0], [50.0, 60.0]])
        X = cross_product(Sv, Sz)
        assert X.shape == (6, 3)

    def test_contains_all_pairs(self):
        Sv = np.array([[1.0], [2.0]])
        Sz = np.array([[3.0], [4.0]])
        X = {tuple(r) for r in cross_product(Sv, Sz)}
        assert X == {(1, 3), (1, 4), (2, 3), (2, 4)}

    def test_single_row_inputs(self):
        X = cross_product(np.array([[1.0, 2.0]]), np.array([[3.0]]))
        assert X.tolist() == [[1.0, 2.0, 3.0]]


class TestAlpha:
    def test_median_geometric(self):
        # Lemma 4.1: α = (1+ε)γ√2.
        assert _alpha(0.5, "median", False) == pytest.approx(1.5 * 2 * np.sqrt(2))

    def test_median_discrete(self):
        assert _alpha(0.5, "median", True) == pytest.approx(2 * 2.5 * 2 * np.sqrt(2))

    def test_means_geometric(self):
        # Lemma A.9: α = (1+ε)γ.
        assert _alpha(0.5, "means", False) == pytest.approx(3.0)

    def test_ordering(self):
        assert _alpha(0.1, "median", False) < _alpha(0.1, "median", True)


@pytest.mark.parametrize("objective", ["median", "means"])
class TestEndToEnd:
    def test_within_approximation_of_full_join(
        self, chain_small, chain_small_join, objective
    ):
        """The headline guarantee: cost(S) ≤ (1+ε)·γ̂·OPT, with the full-join
        solution standing in for OPT (Theorem 4.2 / A.10 shape)."""
        P = chain_small_join
        res = relational_cluster(
            chain_small, k=3, eps=0.5, objective=objective, pool_size=4000, seed=0
        )
        _, cost_fj, _ = full_join_cluster(chain_small, 3, objective, P=P, seed=0)
        cost = exact_cost(P, res.centers, objective)
        assert cost <= (1 + 0.5) * 1.6 * cost_fj  # (1+ε)·slack on γ̂

    def test_k_centers_returned(self, chain_small, objective):
        res = relational_cluster(
            chain_small, k=4, eps=0.5, objective=objective, pool_size=3000, seed=1
        )
        assert res.centers.shape == (4, 3)
        assert res.features == ("x1", "x2", "x3")

    def test_r_certificate_bounds_cost(self, chain_small, chain_small_join, objective):
        """v_S(q(D)) ≤ r_u (Equation (5)/(8) left inequality, up to sampling)."""
        res = relational_cluster(
            chain_small, k=3, eps=0.5, objective=objective, pool_size=4000, seed=2
        )
        cost = exact_cost(chain_small_join, res.centers, objective)
        assert cost <= 1.35 * res.r

    def test_node_count(self, chain_small, objective):
        # 3 features → 3 leaves + 2 inner nodes.
        res = relational_cluster(
            chain_small, k=2, eps=0.5, objective=objective, pool_size=2000, seed=3
        )
        assert len(res.nodes) == 5
        assert sum(1 for nd in res.nodes if len(nd.attrs) == 1) == 3

    def test_discrete_centers_are_join_projections(
        self, chain_small, chain_small_join, objective
    ):
        res = relational_cluster(
            chain_small, k=2, eps=0.5, objective=objective, discrete=True,
            pool_size=3000, seed=4,
        )
        real = {tuple(p) for p in np.round(chain_small_join, 9)}
        for c in np.round(res.centers, 9):
            assert tuple(c) in real

    def test_deterministic_in_seed(self, chain_small, objective):
        a = relational_cluster(chain_small, 2, 0.5, objective, pool_size=1500, seed=7)
        b = relational_cluster(chain_small, 2, 0.5, objective, pool_size=1500, seed=7)
        assert np.allclose(a.centers, b.centers)
        assert a.r == pytest.approx(b.r)


class TestLeaves:
    def test_leaf_cost_is_exact_projection_cost(self, chain_small, chain_small_join):
        res = relational_cluster(chain_small, 2, 0.5, "median", pool_size=1500, seed=0)
        leaf = next(nd for nd in res.nodes if nd.attrs == ("x1",))
        P1 = chain_small_join[:, 0][:, None]
        assert leaf.r == pytest.approx(
            weighted_cost(P1, leaf.S, None, "median"), rel=1e-9
        )

    def test_single_feature_query(self, local):
        """d=1: the tree is a single leaf; result comes from the exact DP."""
        import pandas as pd

        from repro.joins.join_tree import JoinTree, Relation
        from repro.joins.yannakakis import RelQuery

        g = np.random.default_rng(0)
        tree = JoinTree(
            [Relation("A", ("x", "f"), ("f",)), Relation("B", ("x",))],
            [("A", "B", ["x"])],
            root="A",
        )
        tables = {
            "A": pd.DataFrame({"x": g.integers(0, 5, 40), "f": g.random(40)}),
            "B": pd.DataFrame({"x": g.integers(0, 5, 40)}),
        }
        Q = RelQuery(local, tree, tables)
        res = relational_cluster(Q, 2, 0.5, "median", pool_size=500, seed=0)
        assert res.centers.shape == (2, 1)


class TestCallStructure:
    def test_one_dp_and_one_collect_per_relation(self, local, monkeypatch):
        """Building a query collects each reduced relation once; its first
        fast call runs one counting DP (the up–down pass, which |q(D)|
        reads) and collects nothing, as the leaves and picks read the
        pass's frames. A second call on the same query runs neither."""
        from repro.joins import yannakakis
        from repro.workloads import chain_query

        dps, collects = [], []
        orig_dp, orig_collect = yannakakis.subtree_counts, local.to_pandas

        def dp(*a, **kw):
            dps.append(1)
            return orig_dp(*a, **kw)

        def collect(df):
            collects.append(1)
            return orig_collect(df)

        monkeypatch.setattr(yannakakis, "subtree_counts", dp)
        monkeypatch.setattr(local, "to_pandas", collect)
        Q = chain_query(local, n=300, n_keys=40, seed=5)
        assert (len(dps), len(collects)) == (0, len(Q.tree.relations))
        for want_dps in (1, 0):
            dps.clear()
            collects.clear()
            res = relational_cluster(Q, 3, 0.5, "median", method="fast", pool_size=1500, seed=0)
            assert len(res.nodes) == 2 * len(Q.tree.all_features) - 1
            assert len(dps) == want_dps
            assert len(collects) == 0


class TestQueryCache:
    """The multiplicities a query keeps are shared by every later call, so
    no call may change them, and a warm call equals a cold one bit for bit."""

    def test_calls_leave_kept_frames_unchanged(self, local):
        from repro.baselines.kmeanspp_rel import rel_kmeanspp
        from repro.baselines.rkmeans import rkmeans
        from repro.workloads import chain_query

        Q = chain_query(local, n=300, n_keys=40, seed=5)
        kept = Q.multiplicities()
        before = {name: df.copy(deep=True) for name, df in kept.items()}
        rel_kmedian(Q, 3, pool_size=1500, seed=0)
        rel_kmeans(Q, 3, pool_size=1500, seed=1, discrete=True)
        rel_kmeanspp(Q, 3, pool_size=1500, seed=2)
        rkmeans(Q, 3, seed=4)
        relational_cluster(Q, 2, 0.8, "median", method="slow", pool_size=500, seed=5)
        Q.sample(500, np.random.default_rng(3))
        for f in Q.tree.all_features:
            Q.leaf_weights(f)
        assert Q.multiplicities() is kept
        assert kept.keys() == before.keys()
        for name, df in before.items():
            pd.testing.assert_frame_equal(kept[name], df)

    @pytest.mark.parametrize("objective, discrete, method", [
        ("median", False, "fast"),
        ("means", True, "fast"),
        ("median", False, "slow"),
    ])
    def test_warm_call_equals_fresh_query(self, local, objective, discrete, method):
        from repro.workloads import chain_query

        def call(Q):
            return relational_cluster(Q, 2, 0.8, objective, method=method,
                                      discrete=discrete, pool_size=1000, seed=4)

        warm = chain_query(local, n=80, n_keys=8, seed=5)
        relational_cluster(warm, 3, 0.5, "means", pool_size=800, seed=9)
        a = call(warm)
        b = call(chain_query(local, n=80, n_keys=8, seed=5))
        assert np.array_equal(a.centers, b.centers)
        assert a.r == b.r


def chain_with_bad_x1(engine, value):
    """The chain_small instance with ``value`` in every tenth x1 of R1."""
    from repro import synth_data
    from repro.joins.yannakakis import RelQuery
    from repro.workloads import chain_tree

    tables = synth_data.clustered_chain_pdfs(n=300, n_keys=40, seed=5)
    tables["R1"].loc[::10, "x1"] = value
    return RelQuery(engine, chain_tree(), tables)


@pytest.mark.parametrize("value", [np.nan, np.inf])
class TestNonFiniteFeatures:
    def test_rel_kmedian_rejects(self, local, value):
        Q = chain_with_bad_x1(local, value)
        with pytest.raises(ValueError, match="non-finite"):
            rel_kmedian(Q, 3, pool_size=1500, seed=0)

    def test_rkmeans_rejects(self, local, value):
        from repro.baselines.rkmeans import rkmeans

        Q = chain_with_bad_x1(local, value)
        with pytest.raises(ValueError, match="non-finite"):
            rkmeans(Q, 3, seed=0)


class TestApi:
    def test_rel_kmedian_objective(self, chain_small):
        res = rel_kmedian(chain_small, 2, pool_size=1500, seed=0)
        assert res.centers.shape[0] == 2

    def test_rel_kmeans_objective(self, chain_small):
        res = rel_kmeans(chain_small, 2, pool_size=1500, seed=0)
        assert res.centers.shape[0] == 2

    @pytest.mark.parametrize("api", [rel_kmedian, rel_kmeans])
    def test_empty_join_is_a_defined_error(self, local, api):
        from repro.joins.yannakakis import RelQuery
        from tests.test_yannakakis_local import random_instance

        tree, tables = random_instance(0)
        tables["C"] = tables["C"].assign(y=999_999)  # no C tuple joins
        Q = RelQuery(local, tree, tables)
        with pytest.raises(ValueError, match="join is empty"):
            api(Q, 2, seed=0)

    def test_invalid_method(self, chain_small):
        with pytest.raises(ValueError):
            relational_cluster(chain_small, 2, method="nope")

    def test_slow_method_end_to_end(self, two_features):
        """Algorithm 1 inside Algorithm 3 on a tiny 2-feature instance."""
        Q, P = two_features
        res = relational_cluster(Q, 2, 0.5, "median", method="slow", seed=0)
        assert res.centers.shape == (2, 2)
        _, cost_fj, _ = full_join_cluster(Q, 2, "median", P=P)
        assert exact_cost(P, res.centers, "median") <= 1.6 * cost_fj


@pytest.fixture(scope="module")
def two_features(local):
    """A tiny 2-feature join A(x, f1) ⋈ B(x, f2) and its materialized features."""
    import pandas as pd

    from repro.joins.join_tree import JoinTree, Relation
    from repro.joins.yannakakis import RelQuery
    from tests.conftest import brute_force_join

    g = np.random.default_rng(1)
    tree = JoinTree(
        [Relation("A", ("x", "f1"), ("f1",)), Relation("B", ("x", "f2"), ("f2",))],
        [("A", "B", ["x"])],
        root="A",
    )
    tables = {
        "A": pd.DataFrame({"x": g.integers(0, 4, 30), "f1": g.random(30)}),
        "B": pd.DataFrame({"x": g.integers(0, 4, 30), "f2": g.random(30)}),
    }
    P = brute_force_join(tree, tables)[["f1", "f2"]].to_numpy(float)
    return RelQuery(local, tree, tables), P


class NoEngineWork:
    """A query that only exposes its join tree: any engine call fails, so a
    ValueError from it shows the arguments were checked first."""

    def __init__(self, Q):
        self.tree = Q.tree

    def __getattr__(self, name):
        raise AssertionError(f"engine work ({name}) before the argument checks")


class TestBadArguments:
    @pytest.mark.parametrize(
        "kw, match",
        [
            ({"k": 0}, "k must be at least 1"),
            ({"k": -1}, "k must be at least 1"),
            ({"eps": -1.0}, "eps must be positive"),
            ({"eps": 0.0}, "eps must be positive"),
            ({"pool_size": 0}, "pool_size must be at least 1"),
            ({"objective": "medain"}, "unknown objective"),
            ({"method": "nope"}, "unknown method"),
        ],
    )
    def test_rejected_before_engine_work(self, chain_small, kw, match):
        args = {"k": 2, "eps": 0.5, "objective": "median", **kw}
        with pytest.raises(ValueError, match=match):
            relational_cluster(NoEngineWork(chain_small), **args)

    @pytest.mark.parametrize(
        "kw, match",
        [
            ({"k": 0}, "k must be at least 1"),
            ({"eps": -1.0}, "eps must be positive"),
            ({"pool_size": 0}, "pool_size must be at least 1"),
        ],
    )
    def test_rejected_on_a_real_query(self, chain_small, kw, match):
        args = {"k": 2, "eps": 0.5, "pool_size": 1500, **kw}
        with pytest.raises(ValueError, match=match):
            rel_kmedian(chain_small, **args)

    def test_slow_method_ignores_pool_size(self, two_features):
        Q, _ = two_features
        res = relational_cluster(Q, 2, 0.5, "median", method="slow", pool_size=0, seed=0)
        assert res.centers.shape == (2, 2)


class TestNodeInfo:
    def test_fast_root_info(self, chain_small):
        res = relational_cluster(chain_small, 2, 0.5, "median", pool_size=1500, seed=0)
        root = res.nodes[-1]
        assert len(root.attrs) == 3
        info = root.info
        assert info["n_cells"] == info["n_heavy"] + info["n_light"] + info["n_skipped_cond3"]
        assert root.coreset_size == info["n_heavy"] + round(info["unclaimed_frac"] * 1500)
        assert all(nd.info == {} for nd in res.nodes if len(nd.attrs) == 1)

    def test_slow_root_info(self, two_features):
        Q, _ = two_features
        res = relational_cluster(Q, 2, 0.5, "means", method="slow", seed=0)
        root = res.nodes[-1]
        assert root.attrs == ("f1", "f2")
        assert 0 < root.info["n_processed"] <= root.info["n_cells"]
        assert root.info["n_elementary"] > 0
        assert root.coreset_size > 0
