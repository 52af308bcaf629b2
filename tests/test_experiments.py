"""Experiment harness: table shapes and invariants (local engine, tiny N)."""
import numpy as np
import pytest

from repro import experiments
from repro.experiments import (
    build_chain,
    deterministic_table,
    format_md,
    kmeans_table,
    kmedian_table,
    scaling_table,
)
from repro.joins.engine import LocalEngine


@pytest.fixture(scope="module")
def eng():
    return LocalEngine()


class TestKMedianTable:
    @pytest.fixture(scope="class")
    def table(self, eng):
        return kmedian_table(eng, n=150, ks=(2,), pool_size=3000, seed=0)

    def test_methods_present(self, table):
        assert set(table["method"]) == {
            "NEW (rand, geometric)",
            "NEW (rand, discrete)",
            "FullJoin (two-step)",
        }

    def test_ratios_at_least_one(self, table):
        assert (table["ratio_vs_best"] >= 1.0 - 1e-9).all()

    def test_new_within_guarantee_shape(self, table):
        new = table[table["method"] == "NEW (rand, geometric)"]
        assert (new["ratio_vs_best"] <= 1.5).all()

    def test_join_size_consistent(self, table, eng):
        Q = build_chain(eng, 150, 0)
        assert (table["join_size"] == Q.total_count()).all()

    def test_prep_time_reported(self, table):
        assert (table["prep_s"] > 0).all()


class TestKMeansTable:
    @pytest.fixture(scope="class")
    def table(self, eng):
        return kmeans_table(eng, n=150, ks=(2,), pool_size=3000, seed=0)

    def test_all_four_methods(self, table):
        assert len(table) == 4

    def test_new_not_worse_than_grid(self, table):
        c_new = table.loc[table["method"] == "NEW (rand)", "cost"].iloc[0]
        c_23 = table.loc[table["method"] == "Rk-means [23]", "cost"].iloc[0]
        assert c_new <= 1.15 * c_23

    def test_positive_times(self, table):
        assert (table["seconds"] > 0).all()
        assert (table["prep_s"] > 0).all()


class TestScalingTable:
    def test_columns_and_growth(self, eng):
        t = scaling_table(eng, ns=(80, 160), k=2, pool_size=1500, seed=0)
        assert list(t["n_per_rel"]) == [80, 160]
        assert t["join_size"].iloc[1] > t["join_size"].iloc[0]
        assert (t["blowup"] > 1).all()

    def test_untimed_warm_up_query_first(self, eng, monkeypatch):
        """Before the first row, one query on the first N is built, primed
        and called outside ``_timed``; every row then builds its own."""
        events = []

        def logged(name, fn, tag=None):
            def wrapper(*args, **kwargs):
                events.append(tag(*args) if tag else name)
                return fn(*args, **kwargs)

            monkeypatch.setattr(experiments, name, wrapper)

        logged("build_chain", experiments.build_chain, lambda _eng, n, _seed: ("build_chain", n))
        for name in ("_prime", "_timed", "rel_kmedian"):
            logged(name, getattr(experiments, name))
        scaling_table(eng, ns=(80, 160), k=2, pool_size=1500, seed=0)
        row = ["_prime", "_timed", "rel_kmedian", "_timed"]
        assert events == [
            ("build_chain", 80), "_prime", "rel_kmedian",
            ("build_chain", 80), *row,
            ("build_chain", 160), *row,
        ]


class TestDeterministicTable:
    def test_runs_and_bounded(self, eng):
        t = deterministic_table(eng, n=50, k=2, seed=0)
        assert len(t) == 6
        assert (t["prep_s"] > 0).all()
        det = t[t["method"].str.contains("det")]
        assert (det["ratio_vs_best"] <= 2.0).all()


class TestFormatMd:
    def test_markdown_shape(self, eng):
        t = scaling_table(eng, ns=(60,), k=2, pool_size=800, seed=0)
        md = format_md(t)
        lines = md.splitlines()
        assert lines[0].startswith("| n_per_rel")
        assert lines[1].startswith("|---")
        assert len(lines) == 3
