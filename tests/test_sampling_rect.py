"""Uniform join sampling, the Lemma 2.1 rectangle queries as carried counts
and carried samples, and the driver-side weighted pick (local engine)."""
import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.joins.engine import LocalEngine, PickTable
from repro.joins.yannakakis import CNT, RelQuery, _carried, sample_join, subtree_counts
from tests.conftest import brute_box_counts, brute_force_join, dp_box_counts, label_box
from tests.test_yannakakis_local import random_instance


@pytest.fixture(scope="module")
def eng():
    return LocalEngine()


@pytest.fixture(scope="module")
def inst(eng):
    tree, tables = random_instance(11, n=50, n_keys=6)
    Q = RelQuery(eng, tree, tables)
    joined = brute_force_join(tree, tables)
    return Q, joined


class TestSampleJoin:
    def test_sample_columns_and_size(self, inst):
        Q, _ = inst
        s = Q.sample(25, np.random.default_rng(0))
        assert list(s.columns) == ["fa", "fb", "fc"]
        assert len(s) == 25

    def test_samples_are_real_join_results(self, inst):
        Q, joined = inst
        s = Q.sample(40, np.random.default_rng(1))
        real = joined[["fa", "fb", "fc"]].drop_duplicates()
        merged = s.drop_duplicates().merge(real, on=["fa", "fb", "fc"], how="left", indicator=True)
        assert (merged["_merge"] == "both").all()

    def test_zero_samples(self, inst):
        Q, _ = inst
        assert len(Q.sample(0, np.random.default_rng(0))) == 0

    def test_uniformity_chi_square(self, inst):
        """Each distinct join result appears proportionally to its multiplicity."""
        Q, joined = inst
        n = len(joined)
        z = 4000
        s = Q.sample(z, np.random.default_rng(2))
        got = s.groupby(["fa", "fb", "fc"]).size()
        expect = joined.groupby(["fa", "fb", "fc"]).size() * (z / n)
        # Pearson chi-square against the exact multiplicities.
        chi2 = 0.0
        for key, e in expect.items():
            o = got.get(key, 0)
            chi2 += (o - e) ** 2 / e
        dof = len(expect) - 1
        # Very loose bound: mean=dof, sd=sqrt(2 dof); 6 sigma.
        assert chi2 < dof + 6 * np.sqrt(2 * dof), (chi2, dof)

    def test_custom_attrs(self, inst):
        Q, _ = inst
        s = Q.sample(5, np.random.default_rng(3), attrs=["x", "fb"])
        assert list(s.columns) == ["x", "fb"]

    def test_empty_join_returns_empty(self, eng):
        tree, tables = random_instance(0)
        tables["C"] = tables["C"].assign(y=999_999)
        Q = RelQuery(eng, tree, tables)
        assert len(Q.sample(10, np.random.default_rng(0))) == 0

    @pytest.mark.parametrize("seed", range(4))
    def test_unreduced_tables(self, eng, seed):
        """Counting and sampling need no semi-join reduction first:
        ``random_instance`` has dangling tuples in every relation."""
        tree, tables = random_instance(seed)
        joined = brute_force_join(tree, tables)
        counts = subtree_counts(eng, tree, tables)
        assert counts[tree.root][CNT].sum() == len(joined)
        cols = ["x", "y", "fa", "fb", "fc"]
        s = sample_join(eng, tree, counts, 200, np.random.default_rng(seed), cols)
        assert len(s) == 200
        merged = s.merge(joined[cols].drop_duplicates(), on=cols, how="left", indicator=True)
        assert (merged["_merge"] == "both").all()

    def test_pool_independent_of_column_order(self, eng, inst):
        """The root frame is ordered by the declared attributes, so permuting
        the frames' columns (as Spark's joins do) leaves the pool unchanged."""
        Q, _ = inst
        permuted = {u: df[df.columns[::-1]] for u, df in Q.dfs.items()}
        a, b = (
            sample_join(eng, Q.tree, subtree_counts(eng, Q.tree, dfs), 300,
                        np.random.default_rng(5), ["fa", "fb", "fc"])
            for dfs in (Q.dfs, permuted)
        )
        pd.testing.assert_frame_equal(a, b)


def random_box(seed, dims=("fa", "fb")):
    g = np.random.default_rng(seed)
    return {d: tuple(float(v) for v in np.sort(g.random(2))) for d in dims}


class TestCountRect:
    """Lemma 2.1's CountRect as one carried counting DP: every cell of a
    box's grid (each attribute below / in / above [lo, hi)) counted at once."""

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_brute_force(self, inst, seed):
        Q, joined = inst
        box = random_box(seed)
        assert dp_box_counts(Q, box) == brute_box_counts(joined, box)

    def test_full_box_is_total(self, inst):
        Q, joined = inst
        box = {"fa": (0.0, 1.0), "fb": (0.0, 1.0), "fc": (0.0, 1.0)}
        assert dp_box_counts(Q, box) == {(0, 0, 0): len(joined)}

    def test_empty_box(self, inst):
        Q, joined = inst
        assert dp_box_counts(Q, {"fa": (2.0, 3.0)}) == {(-1,): len(joined)}

    def test_box_on_join_key(self, inst):
        """Boxes may constrain any attribute, including join keys."""
        Q, joined = inst
        box = {"x": (0.0, 3.0)}
        got = dp_box_counts(Q, box)
        assert got == brute_box_counts(joined, box)
        assert got[(0,)] == int(((joined["x"] >= 0) & (joined["x"] < 3)).sum())


def sample_in_cells(Q, box, ids, rng):
    """One uniform join result (features fa, fb, fc) per row of ``ids``
    (interval ids per box attribute), through the carried sampler."""
    dfs, carry = label_box(Q, box)
    counts = subtree_counts(Q.engine, Q.tree, dfs, carry)
    groups = pd.DataFrame(np.atleast_2d(ids), columns=[f"__iv_{a}" for a in box])
    return sample_join(
        Q.engine, Q.tree, counts, len(groups), rng, ["fa", "fb", "fc"], carry, groups
    )


class TestSampleRect:
    """Lemma 2.1's SampleRect as the carried sampler: each sample is uniform
    over the join results in its requested cell."""

    @pytest.mark.parametrize("seed", range(5))
    def test_samples_inside_box(self, inst, seed):
        Q, joined = inst
        box = random_box(seed + 100, dims=("fa",))
        if brute_box_counts(joined, box).get((0,), 0) == 0:
            pytest.skip("empty box")
        s = sample_in_cells(Q, box, [[0]] * 20, np.random.default_rng(seed))
        lo, hi = box["fa"]
        assert len(s) == 20
        assert ((s["fa"] >= lo) & (s["fa"] < hi)).all()

    def test_samples_are_join_results_in_box(self, inst):
        Q, joined = inst
        s = sample_in_cells(Q, {"fb": (0.0, 0.5)}, [[0]] * 30, np.random.default_rng(9))
        sub = joined[(joined["fb"] >= 0) & (joined["fb"] < 0.5)]
        real = sub[["fa", "fb", "fc"]].drop_duplicates()
        merged = s.drop_duplicates().merge(real, on=["fa", "fb", "fc"], how="left", indicator=True)
        assert len(s) == 30 and (merged["_merge"] == "both").all()

    def test_conditional_uniformity(self, inst):
        """Sampling within a box is uniform over the box's join results."""
        Q, joined = inst
        sub = joined[(joined["fa"] >= 0) & (joined["fa"] < 0.6)]
        z = 3000
        s = sample_in_cells(Q, {"fa": (0.0, 0.6)}, [[0]] * z, np.random.default_rng(4))
        got = s.groupby(["fa", "fb", "fc"]).size()
        expect = sub.groupby(["fa", "fb", "fc"]).size() * (z / len(sub))
        chi2 = sum((got.get(k, 0) - e) ** 2 / e for k, e in expect.items())
        dof = len(expect) - 1
        assert chi2 < dof + 6 * np.sqrt(2 * dof), (chi2, dof)

    def test_each_sample_in_its_own_cell(self, inst):
        """One call serves many cells: sample i lands in the cell row i asks for."""
        Q, joined = inst
        box = random_box(3)
        cells = [k for k, v in brute_box_counts(joined, box).items() if v > 0]
        ids = np.repeat(np.array(cells), 5, axis=0)
        np.random.default_rng(0).shuffle(ids)
        s = sample_in_cells(Q, box, ids, np.random.default_rng(1))
        assert np.array_equal(np.array(list(brute_box_counts(s, box))), np.array(sorted(cells)))
        for a, col in zip(box, ids.T):
            lo, hi = box[a]
            assert np.array_equal((s[a] >= lo).astype(int) + (s[a] >= hi).astype(int) - 1, col)


class TestWeightedPickEngineOp:
    def test_respects_weights(self, eng):
        tuples = pd.DataFrame(
            {"k": [1, 1, 1], "v": [10.0, 20.0, 30.0], "w": [8.0, 1.0, 1.0]}
        )
        g = np.random.default_rng(0)
        reqs = pd.DataFrame(
            {"k": [1] * 2000, "__sid": np.arange(2000), "__u": g.random(2000)}
        )
        out = eng.weighted_pick(tuples, ["k"], "w", reqs, ["v"])
        frac = (out["v"] == 10.0).mean()
        assert abs(frac - 0.8) < 0.04

    def test_unmatched_keys_dropped(self, eng):
        tuples = pd.DataFrame({"k": [1], "v": [1.0], "w": [1.0]})
        reqs = pd.DataFrame({"k": [2], "__sid": [0], "__u": [0.5]})
        out = eng.weighted_pick(tuples, ["k"], "w", reqs, ["v"])
        assert len(out) == 0

    def test_empty_inputs(self, eng):
        tuples = pd.DataFrame({"k": [], "v": [], "w": []})
        reqs = pd.DataFrame({"k": [], "__sid": [], "__u": []})
        assert len(eng.weighted_pick(tuples, ["k"], "w", reqs, ["v"])) == 0
        reqs = pd.DataFrame({"k": [1], "__sid": [0], "__u": [0.5]})
        assert len(eng.weighted_pick(tuples, ["k"], "w", reqs, ["v"])) == 0
        # No key columns: the root pick of an empty join.
        reqs = pd.DataFrame({"__sid": [0, 1], "__u": [0.1, 0.9]})
        out = eng.weighted_pick(tuples, [], "w", reqs, ["k", "v"])
        assert len(out) == 0 and list(out.columns) == ["__sid", "k", "v"]

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("dup", [False, True])
    def test_no_keys_draws_what_rng_choice_draws(self, eng, seed, dup):
        """With no key columns (the root pick), the pick takes the draws of
        ``rng.choice(p=w / w.sum())`` over the tuples sorted by their columns."""
        g = np.random.default_rng(100 + seed)
        tuples = pd.DataFrame(
            {"a": g.integers(0, 4, 60), "v": g.random(60).round(1), "w": g.integers(1, 50, 60)}
        )
        if dup:  # duplicate rows, as duplicate root tuples give
            tuples = pd.concat([tuples, tuples.iloc[::3]], ignore_index=True)
        z = 500
        reqs = pd.DataFrame(
            {"__sid": np.arange(z), "__u": np.random.default_rng(seed).random(z)}
        )
        got = eng.weighted_pick(tuples.sample(frac=1, random_state=seed), [], "w", reqs, ["a", "v"])
        t = tuples.sort_values(["a", "v", "w"], kind="mergesort", ignore_index=True)
        w = t["w"].to_numpy(dtype=np.float64)
        idx = np.random.default_rng(seed).choice(len(t), z, p=w / w.sum())
        pd.testing.assert_frame_equal(got[["a", "v"]], t.loc[idx, ["a", "v"]].reset_index(drop=True))
        assert np.array_equal(got["__sid"], np.arange(z))

    def test_matches_per_group_loop(self, eng):
        """The vectorized pick equals an inverse-CDF loop over key groups,
        whatever order the tuples arrive in."""
        g = np.random.default_rng(5)
        tuples = pd.DataFrame(
            {"k": g.integers(0, 5, 200), "v": g.random(200), "w": g.integers(1, 9, 200)}
        )
        reqs = pd.DataFrame(
            {"k": g.integers(0, 6, 300), "__sid": np.arange(300), "__u": g.random(300)}
        )
        expect = []
        ordered = tuples.sort_values(["k", "v", "w"], ignore_index=True)
        for sid, k, u in zip(reqs["__sid"], reqs["k"], reqs["__u"]):
            grp = ordered[ordered["k"] == k]
            if len(grp):
                cum = np.cumsum(grp["w"].to_numpy())
                i = min(np.searchsorted(cum, u * cum[-1], side="right"), len(grp) - 1)
                expect.append((sid, grp["v"].iloc[i]))
        got = eng.weighted_pick(tuples.sample(frac=1, random_state=1), ["k"], "w", reqs, ["v"])
        assert list(zip(got["__sid"], got["v"])) == expect


def reference_weighted_pick(tuples, key_cols, weight_col, requests, out_cols):
    """The pick as one pandas sort, ``ngroup`` and merge per call (what the
    per-query ``PickTable`` replaces)."""
    key_cols, out_cols = list(key_cols), list(out_cols)
    if len(requests) == 0 or len(tuples) == 0:
        return pd.DataFrame(columns=["__sid", *out_cols])
    if not key_cols:  # one group
        key_cols, tuples, requests = ["__one"], tuples.assign(__one=0), requests.assign(__one=0)
    cols = list(dict.fromkeys([*key_cols, *out_cols, weight_col]))
    t = tuples[cols].sort_values(cols, kind="mergesort", ignore_index=True)
    starts = np.flatnonzero(np.diff(t.groupby(key_cols, sort=False).ngroup(), prepend=-1))
    ends = np.append(starts[1:], len(t))
    cum = np.cumsum(t[weight_col].to_numpy())
    groups = t.loc[starts, key_cols].assign(__g=np.arange(len(starts)))
    reqs = requests[[*key_cols, "__sid", "__u"]].merge(groups, on=key_cols, how="inner")
    g = reqs["__g"].to_numpy()
    lo = np.where(starts > 0, cum[starts - 1], 0)[g]
    target = lo + reqs["__u"].to_numpy(dtype=np.float64) * (cum[ends - 1][g] - lo)
    idx = np.clip(np.searchsorted(cum, target, side="right"), starts[g], ends[g] - 1)
    out = t.loc[idx, out_cols].reset_index(drop=True)
    out.insert(0, "__sid", reqs["__sid"].to_numpy())
    return out


def reference_sample_join(tree, counts, z, rng, attrs=None, carry=None, groups=None):
    """The sampler as a chain of merges on ``__sid`` over
    ``reference_weighted_pick``."""
    carry = carry or {}
    keys = _carried(tree, carry, tree.root)
    reqs = pd.DataFrame(index=range(z)) if groups is None else groups[keys].reset_index(drop=True)
    reqs["__sid"] = np.arange(len(reqs), dtype=np.int64)
    reqs["__u"] = rng.random(len(reqs))
    picked = reference_weighted_pick(
        counts[tree.root], keys, CNT, reqs, tree.relations[tree.root].attrs
    )
    cur = reqs.drop(columns="__u").merge(picked, on="__sid")

    def descend(node, cur):
        for c in tree.children[node]:
            jk = [*tree.join_attrs(c, node), *_carried(tree, carry, c)]
            reqs = cur[[*jk, "__sid"]].copy()
            reqs["__u"] = rng.random(len(reqs))
            new_cols = [x for x in tree.relations[c].attrs if x not in cur.columns]
            cur = cur.merge(reference_weighted_pick(counts[c], jk, CNT, reqs, new_cols), on="__sid")
            cur = descend(c, cur)
        return cur

    cur = descend(tree.root, cur).sort_values("__sid").reset_index(drop=True)
    keep = list(attrs) if attrs is not None else [c for c in cur.columns if c != "__sid"]
    return cur[keep]


class TestMatchesReferencePick:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_keys=st.integers(0, 2),
        n_tuples=st.integers(0, 60),
        n_reqs=st.integers(0, 80),
        dup=st.booleans(),
    )
    def test_pick_equals_reference(self, eng, seed, n_keys, n_tuples, n_reqs, dup):
        """Same frame as the per-call pandas pick, for 0–2 key columns,
        duplicate rows, unmatched keys and empty tuples or requests; a
        prebuilt table gives it again."""
        g = np.random.default_rng(seed)
        keys = [f"k{i}" for i in range(n_keys)]
        tuples = pd.DataFrame({k: g.integers(0, 4, n_tuples) for k in keys})
        tuples["v"] = g.random(n_tuples).round(1)
        tuples["w"] = g.integers(1, 20, n_tuples)
        if dup and n_tuples:
            tuples = tuples.iloc[g.integers(0, n_tuples, n_tuples)].reset_index(drop=True)
        reqs = pd.DataFrame({k: g.integers(0, 5, n_reqs) for k in keys})
        reqs["__sid"] = np.arange(n_reqs, dtype=np.int64)
        reqs["__u"] = g.random(n_reqs)
        want = reference_weighted_pick(tuples, keys, "w", reqs, ["v"])
        pd.testing.assert_frame_equal(eng.weighted_pick(tuples, keys, "w", reqs, ["v"]), want)
        table = PickTable.build(tuples, keys, "w", ["v"])
        for _ in range(2):
            pd.testing.assert_frame_equal(eng.weighted_pick(table, keys, "w", reqs, ["v"]), want)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), z=st.integers(0, 300), carried=st.booleans())
    def test_pool_equals_reference(self, eng, seed, z, carried):
        """Same pool as the merge-based sampler, with and without carried
        keys (some requesting a cell with no join result); a query's kept
        pick tables give it again on a second call."""
        tree, tables = random_instance(seed, n=40, n_keys=5)
        Q = RelQuery(eng, tree, tables)
        if not carried:
            want = reference_sample_join(tree, Q.multiplicities(), z, np.random.default_rng(seed))
            for _ in range(2):
                got = Q.sample(z, np.random.default_rng(seed), attrs=list(want.columns))
                pd.testing.assert_frame_equal(got, want)
            return
        box = random_box(seed, dims=("fa", "fc"))
        dfs, carry = label_box(Q, box)
        counts = subtree_counts(eng, tree, dfs, carry)
        ivs = [f"__iv_{a}" for a in box]
        cells = counts[tree.root].groupby(ivs, as_index=False)[CNT].sum()
        groups = cells.iloc[np.random.default_rng(seed).integers(0, max(len(cells), 1), z)]
        groups = groups[ivs] if len(cells) else cells[ivs]
        # Interval id 7 is in no cell: those requests get no sample.
        groups = groups.where(np.random.default_rng(seed).random(groups.shape) > 0.1, 7)
        want = reference_sample_join(
            tree, counts, len(groups), np.random.default_rng(seed), None, carry, groups
        )
        got = sample_join(eng, tree, counts, len(groups), np.random.default_rng(seed), None,
                          carry, groups)
        pd.testing.assert_frame_equal(got, want)
