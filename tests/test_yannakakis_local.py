"""Yannakakis DPs on the local engine vs. brute-force pandas joins."""
import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.joins.engine import LocalEngine
from repro.joins.join_tree import JoinTree, Relation
from repro.joins.yannakakis import (
    CNT,
    RelQuery,
    full_reduce,
    grouped_counts,
    multiplicities,
    subtree_counts,
)
from tests.conftest import brute_force_join


def total_count(eng, tree: JoinTree, dfs: dict) -> int:
    """|q(D)| from the counting DP: the sum of the root's subtree counts."""
    return int(subtree_counts(eng, tree, dfs)[tree.root][CNT].sum())


def random_instance(seed, n=60, n_keys=8):
    """A random 3-chain A(x,fa) ⋈ B(x,y,fb) ⋈ C(y,fc) with dangling tuples."""
    g = np.random.default_rng(seed)
    tree = JoinTree(
        [
            Relation("A", ("x", "fa"), ("fa",)),
            Relation("B", ("x", "y", "fb"), ("fb",)),
            Relation("C", ("y", "fc"), ("fc",)),
        ],
        [("A", "B", ["x"]), ("B", "C", ["y"])],
        root="B",
    )
    tables = {
        "A": pd.DataFrame({"x": g.integers(0, n_keys, n), "fa": g.random(n)}),
        "B": pd.DataFrame(
            {"x": g.integers(0, n_keys * 2, n), "y": g.integers(0, n_keys * 2, n), "fb": g.random(n)}
        ),
        "C": pd.DataFrame({"y": g.integers(0, n_keys, n), "fc": g.random(n)}),
    }
    return tree, tables


@pytest.fixture(scope="module")
def eng():
    return LocalEngine()


class TestFullReduce:
    @pytest.mark.parametrize("seed", range(6))
    def test_reduced_tuples_are_exactly_participating(self, eng, seed):
        tree, tables = random_instance(seed)
        joined = brute_force_join(tree, tables)
        reduced = full_reduce(eng, tree, tables)
        for name in tree.relations:
            attrs = list(tree.relations[name].attrs)
            surviving = reduced[name][attrs].drop_duplicates()
            participating = joined[attrs].drop_duplicates()
            merged = surviving.merge(participating, on=attrs, how="outer", indicator=True)
            assert (merged["_merge"] == "both").all(), name

    def test_multiplicity_preserved(self, eng):
        # Duplicate rows in a relation must survive as duplicates.
        tree, tables = random_instance(0)
        tables["A"] = pd.concat([tables["A"], tables["A"].iloc[:5]], ignore_index=True)
        reduced = full_reduce(eng, tree, tables)
        n_before = len(
            tables["A"].merge(tables["B"][["x"]].drop_duplicates(), on="x")
        )
        # After reduce on B side only (C may prune further) count is <=; but
        # duplicates of a surviving tuple must both survive.
        a = reduced["A"]
        dup_keys = tables["A"].iloc[:5]
        for _, row in dup_keys.iterrows():
            m = (a["x"] == row["x"]) & (a["fa"] == row["fa"])
            assert m.sum() in (0, 2)
        del n_before


class TestCounting:
    @pytest.mark.parametrize("seed", range(8))
    def test_total_count_matches_brute_force(self, eng, seed):
        tree, tables = random_instance(seed)
        reduced = full_reduce(eng, tree, tables)
        assert total_count(eng, tree, reduced) == len(brute_force_join(tree, tables))

    @pytest.mark.parametrize("root", ["A", "B", "C"])
    def test_count_independent_of_root(self, eng, root):
        tree, tables = random_instance(3)
        t2 = tree.rerooted(root)
        reduced = full_reduce(eng, t2, tables)
        assert total_count(eng, t2, reduced) == len(brute_force_join(tree, tables))

    @pytest.mark.parametrize("seed", range(4))
    def test_root_tuple_counts(self, eng, seed):
        """c(h) per root tuple equals the brute-force group size."""
        tree, tables = random_instance(seed)
        reduced = full_reduce(eng, tree, tables)
        counts = subtree_counts(eng, tree, reduced)["B"]
        joined = brute_force_join(tree, tables)
        expect = joined.groupby(["x", "y", "fb"]).size()
        for _, row in counts.iterrows():
            assert row[CNT] == expect.get((row["x"], row["y"], row["fb"]), 0)

    def test_empty_join(self, eng):
        tree, tables = random_instance(0)
        tables["C"] = tables["C"].assign(y=999_999)  # no matches
        reduced = full_reduce(eng, tree, tables)
        assert total_count(eng, tree, reduced) == 0


def with_rids(dfs: dict) -> dict:
    """Each frame with a test-side tuple id column ``rid`` (the DPs keep
    extra columns, so it rides along and identifies tuples in their output)."""
    return {u: df.assign(rid=np.arange(len(df))) for u, df in dfs.items()}


def join_with_rids(tree: JoinTree, dfs: dict) -> pd.DataFrame:
    """Brute force: q(D) over every column, each ``rid`` as ``rid_<rel>``."""
    cur = None
    for u in reversed(tree.postorder()):
        df = dfs[u].rename(columns={"rid": f"rid_{u}"})
        if cur is None:
            cur = df
        else:
            jk = list(tree.join_attrs(u, tree.parent[u]))
            new = [c for c in df.columns if c in jk or c not in cur.columns]
            cur = cur.merge(df[new], on=jk, how="inner")
    return cur


def per_tuple_join_counts(tree: JoinTree, dfs: dict) -> dict[str, pd.Series]:
    """Brute force: #join results each tuple (by ``rid``) takes part in."""
    joined = join_with_rids(tree, dfs)
    return {u: joined.groupby(f"rid_{u}").size() for u in tree.relations}


def assert_multiplicities_exact(eng, tree: JoinTree, dfs: dict) -> None:
    """``multiplicities`` of the reduced ``dfs`` (with ids) vs brute force."""
    dfs = full_reduce(eng, tree, with_rids(dfs))
    expect = per_tuple_join_counts(tree, dfs)
    counts = multiplicities(eng, tree, dfs)
    n = total_count(eng, tree, dfs)
    for name in tree.relations:
        got = eng.to_pandas(counts[name]).set_index("rid")[CNT].sort_index()
        # Every reduced tuple joins, so brute force sees every rid.
        pd.testing.assert_series_equal(
            got, expect[name].sort_index(), check_names=False, check_dtype=False
        )
        assert got.sum() == n


class TestMultiplicities:
    @pytest.mark.parametrize("root", ["A", "B", "C"])
    @pytest.mark.parametrize("seed", range(4))
    def test_per_tuple_matches_brute_force(self, eng, seed, root):
        tree, tables = random_instance(seed)
        assert_multiplicities_exact(eng, tree.rerooted(root), tables)

    def test_duplicate_tuples_counted_separately(self, eng):
        tree, tables = random_instance(1)
        tables["A"] = pd.concat([tables["A"], tables["A"].iloc[:10]], ignore_index=True)
        assert_multiplicities_exact(eng, tree, tables)

    def test_ghd_cycle4(self, eng):
        from repro.workloads import cycle4_query

        # Bags are multisets: duplicate bag tuples get ids of their own.
        Q = cycle4_query(eng, n=150, n_keys=8, seed=3)
        assert_multiplicities_exact(eng, Q.tree, Q.dfs)

    def test_empty_join(self, eng):
        tree, tables = random_instance(0)
        tables["C"] = tables["C"].assign(y=999_999)
        Q = RelQuery(eng, tree, tables)
        assert all(len(df) == 0 for df in Q.multiplicities().values())


class TestRelQuery:
    @pytest.mark.parametrize("seed", range(4))
    def test_total_count(self, eng, seed):
        tree, tables = random_instance(seed)
        Q = RelQuery(eng, tree, tables)
        assert Q.total_count() == len(brute_force_join(tree, tables))

    @pytest.mark.parametrize("attr", ["fa", "fb", "fc"])
    def test_leaf_weights_match_brute_force(self, eng, attr):
        tree, tables = random_instance(2)
        Q = RelQuery(eng, tree, tables)
        H = Q.leaf_weights(attr)
        joined = brute_force_join(tree, tables)
        expect = (
            joined.groupby(attr).size().rename("weight").reset_index()
            .sort_values(attr).reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(H, expect, check_dtype=False)

    def test_leaf_weights_total_is_join_size(self, eng):
        tree, tables = random_instance(4)
        Q = RelQuery(eng, tree, tables)
        H = Q.leaf_weights("fa")
        assert H["weight"].sum() == Q.total_count()

    def test_multiplicities_kept_until_close(self, eng):
        tree, tables = random_instance(6)
        with RelQuery(eng, tree, tables) as Q:
            kept = Q.multiplicities()
            assert Q.multiplicities() is kept
        Q.close()  # a second close does nothing
        assert Q.multiplicities() is not kept

    def test_feature_bounds_exact(self, eng):
        tree, tables = random_instance(5)
        Q = RelQuery(eng, tree, tables)
        joined = brute_force_join(tree, tables)
        b = Q.feature_bounds()
        for f in ["fa", "fb", "fc"]:
            assert b[f][0] == pytest.approx(joined[f].min())
            assert b[f][1] == pytest.approx(joined[f].max())

    def test_feature_bounds_empty_join_are_nan(self, eng):
        tree, tables = random_instance(0)
        tables["C"] = tables["C"].assign(y=999_999)
        b = RelQuery(eng, tree, tables).feature_bounds()
        assert set(b) == {"fa", "fb", "fc"}
        assert all(np.isnan(lo) and np.isnan(hi) for lo, hi in b.values())

    @pytest.mark.parametrize("seed", range(4))
    def test_materialize_matches_brute_force(self, eng, seed):
        tree, tables = random_instance(seed)
        Q = RelQuery(eng, tree, tables)
        got = (
            eng.to_pandas(Q.materialize())
            .sort_values(["fa", "fb", "fc"])
            .reset_index(drop=True)
        )
        expect = (
            brute_force_join(tree, tables)[["fa", "fb", "fc"]]
            .sort_values(["fa", "fb", "fc"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got, expect, check_dtype=False)

    def test_missing_table_rejected(self, eng):
        tree, tables = random_instance(0)
        del tables["C"]
        with pytest.raises(ValueError):
            RelQuery(eng, tree, tables)


def sorted_rows(df: pd.DataFrame) -> pd.DataFrame:
    cols = sorted(df.columns)
    return df[cols].sort_values(cols, ignore_index=True)


class TestLabelled:
    """``RelQuery.labelled``: label columns computed on the driver from the
    kept multiplicity frames, as the carried counting DP's inputs."""

    def test_nearest_center_labels(self, eng):
        from repro.clustering.cost import assign

        Q = RelQuery(eng, *random_instance(7))
        centers = np.array([[0.2], [0.8]])
        dfs, carry = Q.labelled(
            {"A": {"cid": lambda t: assign(t[["fa"]].to_numpy(dtype=np.float64), centers)}})
        assert carry == {"A": ["cid"]}
        for name in ("B", "C"):  # unlabelled: the reduced tuples as they are
            pd.testing.assert_frame_equal(dfs[name], Q.multiplicities()[name].drop(columns=CNT))
        got = dfs["A"]
        assert got["cid"].dtype == np.int64
        assert got["cid"].tolist() == np.where(got["fa"] < 0.5, 0, 1).tolist()
        pd.testing.assert_frame_equal(
            sorted_rows(got.drop(columns="cid")),
            sorted_rows(Q.multiplicities()["A"].drop(columns=CNT)),
        )
        pd.testing.assert_frame_equal(
            sorted_rows(got.drop(columns="cid")), sorted_rows(Q.dfs["A"]), check_dtype=False)

    def test_two_labels_on_one_relation(self, eng):
        Q = RelQuery(eng, *random_instance(8))
        dfs, carry = Q.labelled({"B": {
            "big": lambda t: (t["x"] + t["fb"]).to_numpy() > 5,
            "half": lambda t: t["fb"].to_numpy() >= 0.5,
        }})
        assert carry == {"B": ["big", "half"]}
        b = dfs["B"]
        assert b["big"].tolist() == (b["x"] + b["fb"] > 5).astype(int).tolist()
        assert b["half"].tolist() == (b["fb"] >= 0.5).astype(int).tolist()

    def test_empty_join(self, eng):
        tree, tables = random_instance(0)
        tables["C"] = tables["C"].assign(y=999_999)
        Q = RelQuery(eng, tree, tables)
        dfs, _ = Q.labelled({"C": {"cid": lambda t: np.zeros(len(t))}})
        assert len(dfs["C"]) == 0 and "cid" in dfs["C"].columns

    def test_kept_frames_unchanged(self, eng):
        Q = RelQuery(eng, *random_instance(9))
        kept = Q.multiplicities()
        before = {name: df.copy(deep=True) for name, df in kept.items()}
        Q.labelled({"A": {"a": lambda t: np.ones(len(t))}, "B": {"b": lambda t: t["x"].to_numpy()}})
        for name, df in before.items():
            pd.testing.assert_frame_equal(kept[name], df)


class TestGroupedCounts:
    def test_matches_brute_force_groupby(self, eng):
        tree, tables = random_instance(6)
        g = np.random.default_rng(0)
        tagged = dict(full_reduce(eng, tree, tables))
        tagged["A"] = tagged["A"].assign(__cid_A=g.integers(0, 3, len(tagged["A"])))
        tagged["C"] = tagged["C"].assign(__cid_C=g.integers(0, 2, len(tagged["C"])))
        got = grouped_counts(eng, tree, tagged, {"A": ["__cid_A"], "C": ["__cid_C"]})
        joined = brute_force_join(
            tree,
            {
                "A": tagged["A"].rename(columns={"__cid_A": "fa2"}).assign(fa2b=1),
                "B": tagged["B"],
                "C": tagged["C"],
            },
        )
        # Brute force: join tagged tables directly.
        jt = JoinTree(
            [
                Relation("A", ("x", "fa", "__cid_A")),
                Relation("B", ("x", "y", "fb")),
                Relation("C", ("y", "fc", "__cid_C")),
            ],
            [("A", "B", ["x"]), ("B", "C", ["y"])],
            root="B",
        )
        full = brute_force_join(jt, tagged)
        expect = full.groupby(["__cid_A", "__cid_C"]).size().rename(CNT).reset_index()
        merged = got.merge(expect, on=["__cid_A", "__cid_C"], suffixes=("_got", "_exp"))
        assert len(merged) == len(expect) == len(got)
        assert (merged[f"{CNT}_got"] == merged[f"{CNT}_exp"]).all()
        del joined

    def test_no_carry_gives_total(self, eng):
        tree, tables = random_instance(7)
        reduced = full_reduce(eng, tree, tables)
        got = grouped_counts(eng, tree, reduced, {})
        assert got[CNT].sum() == total_count(eng, tree, reduced)


class TestCarriedCounts:
    """``subtree_counts`` with a random ``carry``: the root frame splits each
    root tuple's count by the carried values of its join results."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        root=st.sampled_from("ABC"),
        carriers=st.lists(st.sampled_from("ABC"), unique=True),
        n_ids=st.integers(1, 4),
    )
    def test_matches_brute_force_groupby(self, eng, seed, root, carriers, n_ids):
        tree, tables = random_instance(seed)
        tree = tree.rerooted(root)
        reduced = full_reduce(eng, tree, with_rids(tables))
        g = np.random.default_rng(seed)
        dfs = dict(reduced)
        carry = {}
        for rel in carriers:
            dfs[rel] = dfs[rel].assign(**{f"__cid_{rel}": g.integers(0, n_ids, len(dfs[rel]))})
            carry[rel] = [f"__cid_{rel}"]
        cols = [c for rel in carriers for c in carry[rel]]
        keys = [f"rid_{root}", *cols]

        frame = subtree_counts(eng, tree, dfs, carry)[root].rename(columns={"rid": f"rid_{root}"})
        got = frame.groupby(keys)[CNT].sum().sort_index()
        joined = join_with_rids(tree, dfs)
        expect = joined.groupby(keys).size().sort_index()
        pd.testing.assert_series_equal(got, expect, check_names=False, check_dtype=False)

        n = total_count(eng, tree, reduced)
        assert n == len(joined) == frame[CNT].sum()
        no_carry = subtree_counts(eng, tree, reduced)[root]
        assert no_carry[CNT].sum() == n
        if cols:
            grouped = grouped_counts(eng, tree, dfs, carry).set_index(cols)[CNT].sort_index()
            pd.testing.assert_series_equal(
                grouped, joined.groupby(cols).size().sort_index(),
                check_names=False, check_dtype=False,
            )
