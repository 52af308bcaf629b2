"""Cyclic queries via GHD (Section 4.2): the 4-cycle workload."""
import numpy as np
import pandas as pd
import pytest

from repro.baselines.full_join import exact_cost, full_join_cluster, materialized_features
from repro.core.api import rel_kmedian
from repro.joins.ghd import GHD, Bag, ghd_to_acyclic, materialize_bag
from repro.workloads import CYCLE4_GHD, CYCLE4_SCHEMAS, cycle4_query
from repro import synth_data
from tests.conftest import brute_box_counts, dp_box_counts


def brute_force_cycle4(tables: dict[str, pd.DataFrame]) -> pd.DataFrame:
    out = (
        tables["R1"]
        .merge(tables["R2"], on="b")
        .merge(tables["R3"], on="c")
        .merge(tables["R4"], on=["d", "a"])
    )
    return out[["a", "b", "c", "d"]]


@pytest.fixture(scope="module")
def cyc(local):
    tables = synth_data.cycle4_pdfs(n=200, n_keys=8, seed=1)
    Q = ghd_to_acyclic(local, CYCLE4_GHD, tables, CYCLE4_SCHEMAS)
    joined = brute_force_cycle4(tables)
    return Q, joined, tables


class TestBagMaterialization:
    def test_bag_is_subjoin_multiset(self, local):
        tables = synth_data.cycle4_pdfs(n=100, n_keys=6, seed=2)
        bag = Bag("B1", ("R1", "R2"), ("a", "b", "c"))
        got = materialize_bag(local, bag, tables, CYCLE4_SCHEMAS)
        expect = tables["R1"].merge(tables["R2"], on="b")[["a", "b", "c"]]
        got_s = got.sort_values(["a", "b", "c"]).reset_index(drop=True)
        exp_s = expect.sort_values(["a", "b", "c"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(got_s, exp_s, check_dtype=False)

    def test_disjoint_bag_relations_rejected(self, local):
        tables = synth_data.cycle4_pdfs(n=10, n_keys=3, seed=0)
        bag = Bag("B", ("R1", "R3"), ("a", "b", "c", "d"))  # R1(a,b), R3(c,d) share nothing
        with pytest.raises(ValueError):
            materialize_bag(local, bag, tables, CYCLE4_SCHEMAS)

    @pytest.mark.parametrize("bags", [
        (("R1", "R2"), ("R2", "R3", "R4")),  # R2 in two bags
        (("R1", "R2"), ("R3",)),  # R4 in none
    ])
    def test_relation_in_exactly_one_bag(self, local, bags):
        tables = synth_data.cycle4_pdfs(n=10, n_keys=3, seed=0)
        ghd = GHD(
            bags=(Bag("B1", bags[0], ("a", "b", "c")), Bag("B2", bags[1], ("c", "d", "a"))),
            edges=(("B1", "B2", ("a", "c")),),
        )
        with pytest.raises(ValueError, match="exactly one"):
            ghd_to_acyclic(local, ghd, tables, CYCLE4_SCHEMAS)


class TestCycle4Query:
    def test_count_matches_brute_force(self, cyc):
        Q, joined, _ = cyc
        assert Q.total_count() == len(joined)

    def test_duplicate_tuple_counted(self, local):
        """One R1 tuple twice: the cycle has two results, as on the acyclic path."""
        one = {"R1": [(1, 2)], "R2": [(2, 3)], "R3": [(3, 4)], "R4": [(4, 1)]}
        tables = {r: pd.DataFrame(rows * (2 if r == "R1" else 1), columns=CYCLE4_SCHEMAS[r])
                  for r, rows in one.items()}
        assert len(brute_force_cycle4(tables)) == 2
        assert ghd_to_acyclic(local, CYCLE4_GHD, tables, CYCLE4_SCHEMAS).total_count() == 2

    def test_materialize_matches_brute_force(self, cyc):
        Q, joined, _ = cyc
        got = (
            Q.engine.to_pandas(Q.materialize(["a", "b", "c", "d"]))
            .sort_values(["a", "b", "c", "d"])
            .reset_index(drop=True)
        )
        exp = (
            joined.sort_values(["a", "b", "c", "d"])
            .reset_index(drop=True)[got.columns]
        )
        pd.testing.assert_frame_equal(
            got.astype("int64"), exp.astype("int64"), check_dtype=False
        )

    def test_count_rect(self, cyc):
        """Carried box counts over the GHD's bags, cell by cell."""
        Q, joined, _ = cyc
        box = {"a": (1.0, 4.0), "c": (2.0, 6.0)}
        assert dp_box_counts(Q, box) == brute_box_counts(joined, box)

    def test_sampling_yields_cycle_results(self, cyc):
        Q, joined, _ = cyc
        s = Q.sample(30, np.random.default_rng(0), attrs=["a", "b", "c", "d"])
        real = {tuple(r) for r in joined.to_numpy()}
        for row in s.to_numpy():
            assert tuple(int(v) for v in row) in real

    def test_clustering_on_cyclic_query(self, cyc):
        Q, joined, _ = cyc
        res = rel_kmedian(Q, 2, eps=0.5, pool_size=2000, seed=0)
        P = materialized_features(Q)
        _, cost_fj, _ = full_join_cluster(Q, 2, "median", P=P, seed=0)
        assert exact_cost(P, res.centers, "median") <= 1.6 * cost_fj

    def test_workload_builder(self, local):
        Q = cycle4_query(local, n=150, n_keys=8, seed=3)
        assert Q.total_count() > 0
        assert set(Q.tree.relations) == {"B1", "B2"}
