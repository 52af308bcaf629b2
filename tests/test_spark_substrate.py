"""Spark engine: substrate correctness against the DuckDB oracle and the
local (pandas) engine. These exercise the real DataFrame/Catalyst path —
the semi-join reduction (broadcast left-semi joins, which ask for their
broadcast with a hint), shuffle joins (automatic broadcasts disabled in
conftest) and groupBy aggregations of materialize and Rk-means — and the
driver's counts over the collected reduced relations: the up–down pass, the
carried DP and the collect-then-pick sampler."""
import sys
import threading
from functools import partial

import numpy as np
import pandas as pd
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import synth_data
from repro.joins.engine import LocalEngine, SparkEngine
from repro.joins.join_tree import JoinTree, Relation
from repro.joins.yannakakis import CNT, DRIVER, RelQuery, sample_join, subtree_counts
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


def duckdb_rows(sql: str, tables: dict) -> pd.DataFrame:
    import duckdb

    con = duckdb.connect()
    try:
        for name, t in tables.items():
            con.register(name, t)
        return con.execute(sql).fetchdf()
    finally:
        con.close()


class TestCountsVsOracle:
    def test_total_count_matches_duckdb(self, sq, chain_tables):
        expect = duckdb_rows(f"SELECT COUNT(*) AS n {CHAIN_SQL_FROM}", chain_tables)["n"][0]
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
        """Every cell of a box's grid, counted by one carried DP over the
        Spark query's collected relations."""
        box = {"x1": (0.2, 0.8), "x3": (0.0, 0.5)}
        dfs, carry = label_box(sq, box)
        root = subtree_counts(DRIVER, sq.tree, dfs, carry)[sq.tree.root]
        assert_equivalent(
            sq.engine.from_pandas(DRIVER.groupby_sum(root, ["__iv_x1", "__iv_x3"], CNT, "n")),
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
    def test_total_count(self, sq, lq, chain_tables):
        expect = duckdb_rows(f"SELECT COUNT(*) AS n {CHAIN_SQL_FROM}", chain_tables)["n"][0]
        assert sq.total_count() == lq.total_count() == expect

    def test_leaf_weights(self, sq, lq):
        a = sq.leaf_weights("x2").sort_values("x2").reset_index(drop=True)
        b = lq.leaf_weights("x2").sort_values("x2").reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b, check_dtype=False)

    def test_multiplicities(self, sq, lq, chain_tables):
        """Up–down counts on both engines equal DuckDB's join counts per
        distinct tuple; each relation sums to |q(D)|."""
        for Q in (sq, lq):
            n = Q.total_count()
            for name, rel in Q.tree.relations.items():
                cols = list(rel.attrs)
                got = Q.multiplicities()[name].groupby(cols, as_index=False)[CNT].sum()
                # A tuple appearing c times in R takes part in c·m results.
                want = duckdb_rows(
                    f'SELECT {", ".join(cols)}, COUNT(*) AS "{CNT}" {CHAIN_SQL_FROM} '
                    f"GROUP BY ALL",
                    chain_tables,
                )
                pd.testing.assert_frame_equal(
                    got.sort_values(cols, ignore_index=True),
                    want[got.columns].sort_values(cols, ignore_index=True),
                    check_dtype=False,
                )
                assert got[CNT].sum() == n

    def test_feature_bounds(self, sq, lq):
        a, b = sq.feature_bounds(), lq.feature_bounds()
        for f in ["x1", "x2", "x3"]:
            assert a[f][0] == pytest.approx(b[f][0])
            assert a[f][1] == pytest.approx(b[f][1])

    def test_labelled(self, sq, lq):
        """The same labelled frames on both engines."""
        from repro.clustering.cost import assign

        centers = np.array([[0.1, 0.2], [0.9, 0.7], [0.5, 0.5]])
        labels = {"R2": {"cid": lambda t: assign(t[["x2", "k1"]].to_numpy(np.float64), centers)}}
        (sd, sc), (ld, lc) = sq.labelled(labels), lq.labelled(labels)
        assert sc == lc == {"R2": ["cid"]}
        for name in sq.tree.relations:
            cols = sorted(ld[name].columns)
            a = sd[name][cols].sort_values(cols, ignore_index=True)
            b = ld[name][cols].sort_values(cols, ignore_index=True)
            pd.testing.assert_frame_equal(a, b, check_dtype=False)
        assert set(sd["R1"].columns) == {"k1", "x1"}  # unlabelled: its reduced tuples

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
        a = sample_join(sq.engine, sq.tree, sq.multiplicities(), 500, np.random.default_rng(3))
        b = sample_join(lq.engine, lq.tree, lq.multiplicities(), 500, np.random.default_rng(3))
        pd.testing.assert_frame_equal(a, b, check_dtype=False)
        pd.testing.assert_frame_equal(
            sq.sample(300, np.random.default_rng(4)),
            lq.sample(300, np.random.default_rng(4)),
            check_dtype=False,
        )

    def test_sample_rect_respects_box(self, sq):
        box = {"x1": (0.2, 0.8), "x3": (0.0, 0.5)}
        dfs, carry = label_box(sq, box)
        counts = subtree_counts(DRIVER, sq.tree, dfs, carry)
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


class TestCountsOnDriver:
    def test_no_spark_dp_outside_rkmeans(self, spark, monkeypatch):
        """A Spark query's count pass and an Algorithm 1 node run no Spark
        join or group-by; Rk-means still runs its one carried DP on Spark."""
        from repro.baselines.rkmeans import rkmeans
        from repro.core import coreset_slow
        from repro.joins import yannakakis

        Q = chain_query(SparkEngine(spark), n=200, n_keys=20, seed=3)
        ops, dps = [], []
        for op in ("join", "groupby_sum"):
            def counted(self, *a, _op=op, _orig=getattr(SparkEngine, op), **kw):
                ops.append(_op)
                return _orig(self, *a, **kw)

            monkeypatch.setattr(SparkEngine, op, counted)

        def dp(engine, *a, _orig=yannakakis.subtree_counts, **kw):
            dps.append(type(engine).__name__)
            return _orig(engine, *a, **kw)

        monkeypatch.setattr(yannakakis, "subtree_counts", dp)
        monkeypatch.setattr(coreset_slow, "subtree_counts", dp)

        assert Q.total_count() > 0
        Q.multiplicities()
        X = Q.sample(4, np.random.default_rng(0), attrs=["x1", "x2"]).to_numpy(np.float64)
        C = coreset_slow.build_coreset_slow(Q, ["x1", "x2"], X, 2.0, 1.0, 0.8, "median",
                                            c_g=0.5, max_cells=4000)
        assert C.total_weight == Q.total_count()
        assert ops == [] and dps == ["LocalEngine", "LocalEngine"]  # the pass, the node

        rkmeans(Q, 3, seed=0)
        assert dps.count("SparkEngine") == 1 and "groupby_sum" in ops


class TestSetupJobs:
    def test_setup_job_count(self, spark, chain_tables):
        """The reduction and the one collect per relation, counted: broadcast
        left-semi joins on key projections bottom-up; top-down, each child
        semi-joined against its parent's collected keys; nothing cached."""
        sc, eng, group = spark.sparkContext, SparkEngine(spark), "test-setup-jobs"
        sc.setJobGroup(group, "RelQuery setup")
        try:
            Q = RelQuery(eng, chain_tree(), {u: eng.from_pandas(t) for u, t in chain_tables.items()})
            Q.total_count()
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
        Q.close()
        assert len(sc.statusTracker().getJobIdsForGroup(group)) <= 7

    def test_collect_jobs_stay_in_callers_job_group(self, spark, chain_tables):
        """The concurrent collects run in worker threads; their jobs carry
        the caller's job group, and none runs without a group."""
        sc, eng, group = spark.sparkContext, SparkEngine(spark), "test-collect-group"
        tables = {u: eng.from_pandas(t) for u, t in chain_tables.items()}
        ungrouped = set(sc.statusTracker().getJobIdsForGroup(None))
        sc.setJobGroup(group, "RelQuery setup")
        try:
            frames = eng.to_pandas_all([partial(eng.groupby_sum, tables["R2"], [k], "x2", "s")
                                        for k in ("k1", "k2")])
            RelQuery(eng, chain_tree(), tables)
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
        assert [len(f) for f in frames] == [chain_tables["R2"][k].nunique() for k in ("k1", "k2")]
        assert len(sc.statusTracker().getJobIdsForGroup(group)) >= 2 + len(tables)
        assert set(sc.statusTracker().getJobIdsForGroup(None)) <= ungrouped


class TestSetupCollects:
    def test_one_collect_per_relation(self, spark, chain_tables, monkeypatch):
        """Setup collects each reduced relation once, and nothing after it
        (counts, leaves, samples, labels) collects again."""
        eng = SparkEngine(spark)
        tables = {u: eng.from_pandas(t) for u, t in chain_tables.items()}
        frame_type = type(tables["R1"])
        collected = []
        orig = frame_type.toPandas

        def to_pandas(df):
            collected.append(tuple(sorted(df.columns)))  # a semi-join moves its keys first
            return orig(df)

        monkeypatch.setattr(frame_type, "toPandas", to_pandas)
        Q = RelQuery(eng, chain_tree(), tables)
        Q.total_count()
        Q.leaf_weights("x3")
        Q.sample(50, np.random.default_rng(0))
        Q.labelled({"R1": {"one": lambda t: np.ones(len(t))}})
        assert sorted(collected) == sorted(tuple(sorted(rel.attrs)) for rel in Q.tree.relations.values())

    @pytest.mark.parametrize("engine", ["local", "spark"])
    def test_empty_relation(self, engine, request, chain_tables):
        """A query with an empty input relation builds on both engines, and
        its join is empty."""
        eng = LocalEngine() if engine == "local" else SparkEngine(request.getfixturevalue("spark"))
        tables = {**chain_tables, "R3": chain_tables["R3"].iloc[:0]}
        Q = RelQuery(eng, chain_tree(), {u: eng.from_pandas(t) for u, t in tables.items()})
        assert Q.total_count() == 0
        assert all(len(df) == 0 for df in Q.multiplicities().values())


CHAIN_SCHEMA = {"R1": (["k1"], ["x1"]), "R2": (["k1", "k2"], ["x2"]), "R3": (["k2"], ["x3"])}
STAR_SCHEMA = {"F": (["a", "b", "c"], ["y"]), "A": (["a"], ["xa"]),
               "B": (["b"], ["xb"]), "C": (["c"], ["xc"])}


def star_tree4() -> JoinTree:
    """A fact table F with three dimensions, rooted at dimension A."""
    return JoinTree(
        [Relation("F", ("a", "b", "c", "y"), ("y",)), Relation("A", ("a", "xa"), ("xa",)),
         Relation("B", ("b", "xb"), ("xb",)), Relation("C", ("c", "xc"), ("xc",))],
        [("F", "A", ["a"]), ("F", "B", ["b"]), ("F", "C", ["c"])],
        root="A",
    )


def typed(schema, tables: dict[str, dict]) -> dict[str, pd.DataFrame]:
    """Tables from column lists; ``schema[rel]`` = (key columns, cast to
    int64; feature columns, cast to float64)."""
    return {
        rel: pd.DataFrame(tables[rel]).astype({**{c: np.int64 for c in kc}, **{c: np.float64 for c in fc}})
        for rel, (kc, fc) in schema.items()
    }


@st.composite
def random_tables(draw, schema) -> dict[str, pd.DataFrame]:
    """Small tables over few key and feature values, so duplicate tuples,
    dangling keys, empty tables and empty joins are all likely."""
    tables = {}
    for rel, (kc, fc) in schema.items():
        n = draw(st.integers(0, 6))
        values = {**{c: st.integers(0, 3) for c in kc}, **{c: st.integers(0, 2) for c in fc}}
        tables[rel] = {c: draw(st.lists(v, min_size=n, max_size=n)) for c, v in values.items()}
    return typed(schema, tables)


def brute_reduction(tree: JoinTree, tables) -> tuple[dict[str, pd.DataFrame], int]:
    """Per relation, its rows that take part in the materialized join, with
    ``__cnt`` = the number of join results each takes part in; and |q(D)|."""
    cur = None
    for u in reversed(tree.postorder()):
        df = tables[u].assign(**{f"__rid_{u}": np.arange(len(tables[u]))})
        cur = df if cur is None else cur.merge(df, on=list(tree.join_attrs(u, tree.parent[u])))
    out = {}
    for u in tree.relations:
        cnt = cur[f"__rid_{u}"].value_counts()
        out[u] = tables[u].iloc[cnt.index.to_numpy()].assign(**{CNT: cnt.to_numpy()})
    return out, len(cur)


def assert_reduction_parity(spark, tree: JoinTree, tables) -> None:
    """Spark's reduction and the driver's pass give the same sorted reduced
    relations, multiplicities and |q(D)| as LocalEngine and brute force."""
    def rows(df, cols):
        return df[cols].sort_values(cols, ignore_index=True)

    expect, n = brute_reduction(tree, tables)
    se = SparkEngine(spark)
    with RelQuery(se, tree, {u: se.from_pandas(t) for u, t in tables.items()}) as sq:
        lq = RelQuery(LocalEngine(), tree, tables)
        assert sq.total_count() == lq.total_count() == n
        for u, rel in tree.relations.items():
            cols = list(rel.attrs)
            for got in (se.to_pandas(sq.dfs[u]), lq.dfs[u]):
                pd.testing.assert_frame_equal(rows(got, cols), rows(expect[u], cols),
                                              check_dtype=False)
            for got in (sq.multiplicities()[u], lq.multiplicities()[u]):
                pd.testing.assert_frame_equal(rows(got, [*cols, CNT]),
                                              rows(expect[u], [*cols, CNT]), check_dtype=False)


PARITY = settings(max_examples=5, deadline=None,
                  suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestReductionParity:
    """Random small chain and star instances, plus one fixed case each."""

    @given(tables=random_tables(CHAIN_SCHEMA))
    @example(tables=typed(CHAIN_SCHEMA, {  # an empty join: R2 meets R1 on k1 = 0, but no R3 tuple
        "R1": {"k1": [0, 0, 1], "x1": [1, 1, 2]},
        "R2": {"k1": [0, 0, 2], "k2": [1, 1, 3], "x2": [0, 0, 1]},
        "R3": {"k2": [2, 2], "x3": [1, 2]},
    }))
    @PARITY
    def test_chain(self, spark, tables):
        assert_reduction_parity(spark, chain_tree(), tables)

    @given(tables=random_tables(STAR_SCHEMA))
    @example(tables=typed(STAR_SCHEMA, {  # duplicate tuples and dangling keys in every relation
        "F": {"a": [0, 0, 1, 3], "b": [1, 1, 1, 0], "c": [2, 2, 0, 2], "y": [1, 1, 0, 2]},
        "A": {"a": [0, 0, 1, 2], "xa": [1, 1, 0, 0]},
        "B": {"b": [1, 1, 2], "xb": [2, 2, 0]},
        "C": {"c": [2, 2, 2, 3], "xc": [0, 0, 1, 1]},
    }))
    @PARITY
    def test_star(self, spark, tables):
        assert_reduction_parity(spark, star_tree4(), tables)


class TestConcurrentLevels:
    def test_wide_level_with_fast_thread_switches(self, spark):
        """Six dimensions under the fact table: one level of six concurrent
        builds and collects, more threads than cores, with the interpreter
        switching threads every microsecond. The reduction still equals
        brute force, and the setup ends within its time bound."""
        dims = "abcdef"
        tree = JoinTree(
            [Relation("F", (*dims, "y"), ("y",)),
             *[Relation(f"D{d}", (d, f"x{d}"), (f"x{d}",)) for d in dims]],
            [("F", f"D{d}", [d]) for d in dims],
            root="F",
        )
        rng = np.random.default_rng(0)
        tables = {"F": pd.DataFrame({**{d: rng.integers(0, 4, 40) for d in dims}, "y": rng.random(40)}),
                  **{f"D{d}": pd.DataFrame({d: rng.integers(0, 5, 8), f"x{d}": rng.random(8)})
                     for d in dims}}
        outcome = []

        def run():
            try:
                assert_reduction_parity(spark, tree, tables)
                outcome.append(None)
            except Exception as e:  # re-raised in the test's thread
                outcome.append(e)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            t = threading.Thread(target=run, daemon=True)
            t.start()
            t.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not t.is_alive(), "setup did not finish within 300 s"
        if outcome[0] is not None:
            raise outcome[0]
