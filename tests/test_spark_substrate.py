"""Spark engine: substrate correctness against the DuckDB oracle and the
local (pandas) engine. These exercise the real DataFrame/Catalyst path —
shuffle joins (broadcast disabled in conftest), groupBy aggregations, the
up–down multiplicity pass and the collect-then-pick sampler."""
import numpy as np
import pandas as pd
import pytest

from repro import synth_data
from repro.joins.engine import LocalEngine, SparkEngine
from repro.joins.yannakakis import CNT, RelQuery, collected, sample_join, subtree_counts
from repro.oracle import assert_equivalent
from repro.workloads import chain_query, chain_tree, star_query
from tests.conftest import brute_box_counts, dp_box_counts, label_box

CHAIN_SQL_FROM = "FROM R1 JOIN R2 USING (k1) JOIN R3 USING (k2)"


@pytest.fixture(scope="module")
def chain_tables():
    return synth_data.clustered_chain_pdfs(n=300, n_keys=40, seed=5)


@pytest.fixture(scope="module")
def sq(spark):
    return chain_query(SparkEngine(spark), n=300, n_keys=40, seed=5)


@pytest.fixture(scope="module")
def lq():
    return chain_query(LocalEngine(), n=300, n_keys=40, seed=5)


class TestCountsVsOracle:
    def test_total_count_matches_duckdb(self, sq, chain_tables):
        import duckdb

        con = duckdb.connect()
        for name, t in chain_tables.items():
            con.register(name, t)
        expect = con.execute(f"SELECT COUNT(*) {CHAIN_SQL_FROM}").fetchone()[0]
        con.close()
        assert sq.total_count() == expect

    def test_leaf_weights_vs_oracle(self, sq, chain_tables):
        assert_equivalent(
            sq.engine.from_pandas(sq.leaf_weights("x1")),
            f"SELECT x1, COUNT(*) AS weight {CHAIN_SQL_FROM} GROUP BY x1",
            **chain_tables,
        )

    def test_leaf_weights_non_root_attr_vs_oracle(self, sq, chain_tables):
        assert_equivalent(
            sq.engine.from_pandas(sq.leaf_weights("x3")),
            f"SELECT x3, COUNT(*) AS weight {CHAIN_SQL_FROM} GROUP BY x3",
            **chain_tables,
        )

    def test_materialize_vs_oracle(self, sq, chain_tables):
        assert_equivalent(
            sq.materialize(),
            f"SELECT x1, x2, x3 {CHAIN_SQL_FROM}",
            **chain_tables,
        )

    def test_count_rect_matches_duckdb(self, sq, chain_tables):
        """Every cell of a box's grid, counted by one carried DP on Spark."""
        box = {"x1": (0.2, 0.8), "x3": (0.0, 0.5)}
        dfs, carry = label_box(sq, box)
        root = subtree_counts(sq.engine, sq.tree, dfs, carry)[sq.tree.root]
        assert_equivalent(
            sq.engine.groupby_sum(root, ["__iv_x1", "__iv_x3"], CNT, "n"),
            'SELECT (x1 >= 0.2)::INT + (x1 >= 0.8)::INT - 1 AS "__iv_x1", '
            '(x3 >= 0.0)::INT + (x3 >= 0.5)::INT - 1 AS "__iv_x3", COUNT(*) AS n '
            f"{CHAIN_SQL_FROM} GROUP BY ALL",
            **chain_tables,
        )


class TestExactCounts:
    @pytest.mark.parametrize("engine", ["local", "spark"])
    def test_total_count_above_2_53(self, engine, request):
        """One shared key per edge: |q(D)| = N³ = 9 007 351 116 674 625 > 2⁵³,
        which a float sum rounds to ...624."""
        n = 208_065
        eng = LocalEngine() if engine == "local" else SparkEngine(request.getfixturevalue("spark"))
        x = np.zeros(n)
        zeros = np.zeros(n, dtype=np.int64)
        tables = {
            "R1": pd.DataFrame({"k1": zeros, "x1": x}),
            "R2": pd.DataFrame({"k1": zeros, "k2": zeros, "x2": x}),
            "R3": pd.DataFrame({"k2": zeros, "x3": x}),
        }
        Q = RelQuery(eng, chain_tree(), {u: eng.from_pandas(t) for u, t in tables.items()})
        assert Q.total_count() == 9_007_351_116_674_625


class TestSparkLocalParity:
    def test_total_count(self, sq, lq):
        assert sq.total_count() == lq.total_count()

    def test_leaf_weights(self, sq, lq):
        a = sq.leaf_weights("x2").sort_values("x2").reset_index(drop=True)
        b = lq.leaf_weights("x2").sort_values("x2").reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b, check_dtype=False)

    def test_multiplicities(self, sq, lq):
        """Per-tuple up–down counts agree; each relation sums to |q(D)|."""
        n = lq.total_count()
        sc, lc = sq.multiplicities(), lq.multiplicities()
        for name, rel in lq.tree.relations.items():
            cols = [*rel.attrs, CNT]
            a = sc[name][cols].sort_values(cols, ignore_index=True)
            b = lc[name][cols].sort_values(cols, ignore_index=True)
            pd.testing.assert_frame_equal(a, b, check_dtype=False)
            assert a[CNT].sum() == n

    def test_feature_bounds(self, sq, lq):
        a, b = sq.feature_bounds(), lq.feature_bounds()
        for f in ["x1", "x2", "x3"]:
            assert a[f][0] == pytest.approx(b[f][0])
            assert a[f][1] == pytest.approx(b[f][1])

    @pytest.mark.parametrize("box", [
        {"x1": (0.0, 0.4)},
        {"x2": (0.3, 0.9), "x3": (0.1, 0.6)},
        {"x1": (0.5, 0.5001)},
    ])
    def test_count_rect(self, sq, lq, box):
        assert dp_box_counts(sq, box) == dp_box_counts(lq, box)

    def test_count_rect_half_open(self, sq, lq, chain_tables):
        """Edges on data values: lo is inside the box, hi is not, on both engines."""
        x1 = np.sort(chain_tables["R1"]["x1"].to_numpy())
        box = {"x1": (float(x1[10]), float(x1[50]))}
        joined = (
            chain_tables["R1"].merge(chain_tables["R2"], on="k1").merge(chain_tables["R3"], on="k2")
        )
        assert dp_box_counts(sq, box) == dp_box_counts(lq, box) == brute_box_counts(joined, box)


class TestSparkSampling:
    def test_samples_are_join_results(self, sq, chain_tables):
        s = sq.sample(40, np.random.default_rng(0))
        joined = (
            chain_tables["R1"]
            .merge(chain_tables["R2"], on="k1")
            .merge(chain_tables["R3"], on="k2")
        )
        real = joined[["x1", "x2", "x3"]].drop_duplicates()
        merged = s.drop_duplicates().merge(real, on=["x1", "x2", "x3"], how="left", indicator=True)
        assert (merged["_merge"] == "both").all()

    def test_same_seed_same_pool(self, sq):
        a = sq.sample(500, np.random.default_rng(7))
        b = sq.sample(500, np.random.default_rng(7))
        pd.testing.assert_frame_equal(a, b)

    def test_pool_matches_local_engine(self, sq, lq):
        """The pool depends only on the seed, not on the engine's row order."""
        a = sq.sample(500, np.random.default_rng(3), counts=sq.multiplicities())
        b = lq.sample(500, np.random.default_rng(3), counts=lq.multiplicities())
        pd.testing.assert_frame_equal(a, b, check_dtype=False)
        pd.testing.assert_frame_equal(
            sq.sample(300, np.random.default_rng(4)),
            lq.sample(300, np.random.default_rng(4)),
            check_dtype=False,
        )

    def test_sample_rect_respects_box(self, sq):
        box = {"x1": (0.2, 0.8), "x3": (0.0, 0.5)}
        dfs, carry = label_box(sq, box)
        counts = collected(sq.engine, subtree_counts(sq.engine, sq.tree, dfs, carry))
        groups = pd.DataFrame({"__iv_x1": [0] * 30, "__iv_x3": [0] * 30})
        s = sample_join(
            sq.engine, sq.tree, counts, 30, np.random.default_rng(1), ["x1", "x3"], carry, groups
        )
        assert len(s) == 30
        assert ((s["x1"] >= 0.2) & (s["x1"] < 0.8)).all()
        assert ((s["x3"] >= 0.0) & (s["x3"] < 0.5)).all()

    def test_sampling_approx_uniform_over_x1_halves(self, sq, chain_tables):
        """Coarse uniformity check: mass of x1 ≤ median matches the join."""
        joined = (
            chain_tables["R1"]
            .merge(chain_tables["R2"], on="k1")
            .merge(chain_tables["R3"], on="k2")
        )
        thr = joined["x1"].median()
        p_true = (joined["x1"] <= thr).mean()
        s = sq.sample(2000, np.random.default_rng(2))
        p_got = (s["x1"] <= thr).mean()
        assert abs(p_got - p_true) < 0.05


class TestSparkStar:
    def test_star_count_is_lineitem_size(self, spark):
        Q = star_query(SparkEngine(spark), sf=0.001, seed=0)
        # Star schema with complete FKs: every lineitem row joins exactly once.
        assert Q.total_count() == 6000

    def test_star_leaf_weights_vs_oracle(self, spark):
        from repro.workloads import star_tables

        Q = star_query(SparkEngine(spark), sf=0.001, seed=0)
        t = star_tables(sf=0.001, seed=0)
        t["orders"] = t["orders"].rename(columns={"o_orderkey": "l_orderkey"})
        t["customer"] = t["customer"].rename(columns={"c_custkey": "o_custkey"})
        assert_equivalent(
            Q.engine.from_pandas(Q.leaf_weights("c_acctbal_s")),
            "SELECT c_acctbal_s, COUNT(*) AS weight "
            "FROM lineitem JOIN orders USING (l_orderkey) "
            "JOIN customer USING (o_custkey) GROUP BY c_acctbal_s",
            lineitem=t["lineitem"][["l_orderkey", "l_quantity_s", "l_price_s"]],
            orders=t["orders"][["l_orderkey", "o_custkey", "o_price_s"]],
            customer=t["customer"][["o_custkey", "c_acctbal_s"]],
        )
