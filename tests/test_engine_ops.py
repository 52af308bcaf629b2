"""Engine primitive operations: LocalEngine exhaustively, SparkEngine spot-checked."""
import re

import numpy as np
import pandas as pd
import pytest

from repro.joins.engine import LocalEngine, SparkEngine


@pytest.fixture(scope="module")
def eng():
    return LocalEngine()


def sample_df():
    return pd.DataFrame(
        {"k": [1, 1, 2, 3], "v": [10.0, 20.0, 30.0, 40.0], "w": [1.0, 2.0, 3.0, 4.0]}
    )


class TestLocalOps:
    def test_project(self, eng):
        out = eng.project(sample_df(), ["k"])
        assert list(out.columns) == ["k"]
        assert len(out) == 4

    def test_join(self, eng):
        b = pd.DataFrame({"k": [1, 2], "extra": ["a", "b"]})
        out = eng.join(sample_df(), b, ["k"])
        assert len(out) == 3
        assert "extra" in out.columns

    def test_semijoin(self, eng):
        b = pd.DataFrame({"k": [1, 1, 9]})
        out = eng.semijoin(sample_df(), b, ["k"])
        assert len(out) == 2  # duplicates in b must not duplicate a's rows

    def test_groupby_sum(self, eng):
        out = eng.groupby_sum(sample_df(), ["k"], "w", "total")
        got = dict(zip(out["k"], out["total"]))
        assert got == {1: 3.0, 2: 3.0, 3: 4.0}

    def test_groupby_sum_empty(self, eng):
        out = eng.groupby_sum(sample_df().iloc[:0], ["k"], "w", "total")
        assert len(out) == 0
        assert list(out.columns) == ["k", "total"]

    def test_with_lit_multiply_into(self, eng):
        df = eng.with_lit(sample_df(), "c", 2.0)
        out = eng.multiply_into(df, "w", "c")
        assert out["w"].tolist() == [2.0, 4.0, 6.0, 8.0]
        assert "c" not in out.columns

    def test_multiply_into_exact_division(self, eng):
        df = pd.DataFrame({"t": [3, 5], "f": [12, 20], "d": [4, 5]})
        out = eng.multiply_into(df, "t", "f", "d")
        assert out["t"].tolist() == [9, 20]
        assert list(out.columns) == ["t"]


class TestSparkOps:
    @pytest.fixture(scope="class")
    def se(self, spark):
        return SparkEngine(spark)

    @pytest.fixture(scope="class")
    def sdf(self, se):
        return se.from_pandas(sample_df())

    def test_roundtrip(self, se, sdf):
        back = se.to_pandas(sdf).sort_values(["k", "v"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(back, sample_df(), check_dtype=False)

    def test_groupby_sum(self, se, sdf):
        out = se.to_pandas(se.groupby_sum(sdf, ["k"], "w", "total"))
        got = dict(zip(out["k"], out["total"]))
        assert got == {1: 3.0, 2: 3.0, 3: 4.0}

    def test_multiply_into_exact_division(self, se):
        df = se.from_pandas(pd.DataFrame({"t": [3, 5], "f": [12, 20], "d": [4, 5]}))
        out = se.to_pandas(se.multiply_into(df, "t", "f", "d")).sort_values("t")
        assert out["t"].tolist() == [9, 20]
        assert list(out.columns) == ["t"]

    def test_semijoin_no_duplication(self, se, sdf):
        b = se.from_pandas(pd.DataFrame({"k": [1, 1, 9]}))
        assert len(se.to_pandas(se.semijoin(sdf, b, ["k"]))) == 2

    def test_semijoin_is_a_broadcast_left_semi_join(self, se, sdf):
        """The test session disables automatic broadcasts, so the broadcast
        comes from the semi-join's own hint, and no side is shuffled."""
        b = se.from_pandas(pd.DataFrame({"k": [1, 1, 9]}))
        out = se.semijoin(sdf, b, ["k"])
        out.collect()
        plan = out._jdf.queryExecution().executedPlan().toString()
        assert re.search(r"BroadcastHashJoin .*LeftSemi", plan), plan
        assert "Exchange hashpartitioning" not in plan, plan

    @pytest.mark.parametrize("a, b, on, empty_b", [
        (  # an empty right side keeps nothing
            pd.DataFrame({"k": [1, 2], "v": [1.0, 2.0]}),
            pd.DataFrame({"k": [1]}),
            ["k"],
            True,
        ),
        (  # duplicate keys on both sides: each row of a once, as often as in a
            pd.DataFrame({"k": [1, 1, 1, 2, 3], "v": [1.0, 1.0, 2.0, 3.0, 4.0]}),
            pd.DataFrame({"k": [1, 1, 3, 3, 7], "w": [0.0, 1.0, 2.0, 3.0, 4.0]}),
            ["k"],
            False,
        ),
        (  # a two-column key, as on the 4-cycle GHD's edge (a, c)
            pd.DataFrame({"a": [0, 0, 1, 1, 1], "c": [0, 1, 0, 1, 1], "b": [5, 6, 7, 8, 8]}),
            pd.DataFrame({"c": [1, 1, 0, 2], "d": [0, 1, 2, 3], "a": [0, 0, 1, 1]}),
            ["a", "c"],
            False,
        ),
    ], ids=["empty-right", "duplicate-keys", "two-column-key"])
    def test_semijoin_matches_local(self, se, a, b, on, empty_b):
        def rows(df):
            return df.sort_values(list(df.columns), ignore_index=True)

        sb = se.from_pandas(b)  # Spark infers no schema from an empty pandas frame
        got = se.to_pandas(se.semijoin(se.from_pandas(a), sb.limit(0) if empty_b else sb, on))
        expect = LocalEngine().semijoin(a, b.iloc[:0] if empty_b else b, on)
        pd.testing.assert_frame_equal(rows(got[list(a.columns)]), rows(expect), check_dtype=False)
