"""Data generators: determinism, schema, skew, and planted cluster structure."""
import numpy as np
import pandas as pd
import pytest

from repro import synth_data


class TestTpchLite:
    def test_lineitem_size_scales(self):
        assert len(synth_data.lineitem_pdf(sf=0.001)) == 6000
        assert len(synth_data.lineitem_pdf(sf=0.002)) == 12000

    def test_orders_keys_dense(self):
        o = synth_data.orders_pdf(sf=0.001)
        assert o["o_orderkey"].is_unique
        assert o["o_orderkey"].min() == 1

    def test_lineitem_fk_range(self):
        li = synth_data.lineitem_pdf(sf=0.001)
        o = synth_data.orders_pdf(sf=0.001)
        assert li["l_orderkey"].max() <= o["o_orderkey"].max()

    def test_deterministic_in_seed(self):
        a = synth_data.lineitem_pdf(sf=0.001, seed=3)
        b = synth_data.lineitem_pdf(sf=0.001, seed=3)
        pd.testing.assert_frame_equal(a, b)

    def test_different_seed_differs(self):
        a = synth_data.lineitem_pdf(sf=0.001, seed=1)
        b = synth_data.lineitem_pdf(sf=0.001, seed=2)
        assert not a.equals(b)

    def test_customer_part_pdf(self):
        c = synth_data.customer_pdf(sf=0.01)
        assert c["c_custkey"].is_unique


class TestClusteredChain:
    def test_schema(self):
        t = synth_data.clustered_chain_pdfs(n=100, n_keys=10, seed=0)
        assert list(t["R1"].columns) == ["k1", "x1"]
        assert list(t["R2"].columns) == ["k1", "k2", "x2"]
        assert list(t["R3"].columns) == ["k2", "x3"]

    def test_deterministic(self):
        a = synth_data.clustered_chain_pdfs(n=100, n_keys=10, seed=4)
        b = synth_data.clustered_chain_pdfs(n=100, n_keys=10, seed=4)
        for k in a:
            pd.testing.assert_frame_equal(a[k], b[k])

    def test_zipf_skew(self):
        t = synth_data.clustered_chain_pdfs(n=5000, n_keys=100, zipf_alpha=1.3, seed=0)
        counts = t["R1"]["k1"].value_counts()
        # Top key should dominate an average key heavily under Zipf(1.3).
        assert counts.iloc[0] > 5 * counts.mean()

    def test_join_blowup(self):
        """|q(D)| ≫ N — the regime motivating relational clustering."""
        t = synth_data.clustered_chain_pdfs(n=1000, n_keys=60, seed=1)
        join = t["R1"].merge(t["R2"], on="k1").merge(t["R3"], on="k2")
        assert len(join) > 20 * 1000

    def test_feature_values_clustered(self):
        """x-values concentrate near the k_true planted centers."""
        k_true, sigma = 4, 0.03
        t = synth_data.clustered_chain_pdfs(
            n=4000, n_keys=50, k_true=k_true, sigma=sigma, seed=2
        )
        centers = np.linspace(0.0, 1.0, k_true)
        x = t["R1"]["x1"].to_numpy()
        d = np.abs(x[:, None] - centers[None]).min(axis=1)
        assert (d < 3 * sigma).mean() > 0.95

    def test_keys_carry_consistent_cluster(self):
        """All rows sharing a key draw from the same planted center."""
        t = synth_data.clustered_chain_pdfs(n=3000, n_keys=20, sigma=0.01, seed=3)
        spread = t["R1"].groupby("k1")["x1"].std().dropna()
        assert (spread < 0.05).all()


class TestCycle4:
    def test_schema(self):
        t = synth_data.cycle4_pdfs(n=50, n_keys=5, seed=0)
        assert set(t) == {"R1", "R2", "R3", "R4"}
        assert list(t["R1"].columns) == ["a", "b"]
        assert list(t["R4"].columns) == ["d", "a"]

    def test_nonempty_cycle_join(self):
        t = synth_data.cycle4_pdfs(n=200, n_keys=8, seed=1)
        j = (
            t["R1"].merge(t["R2"], on="b").merge(t["R3"], on="c").merge(t["R4"], on=["d", "a"])
        )
        assert len(j) > 0

    def test_deterministic(self):
        a = synth_data.cycle4_pdfs(n=50, n_keys=5, seed=7)
        b = synth_data.cycle4_pdfs(n=50, n_keys=5, seed=7)
        for k in a:
            pd.testing.assert_frame_equal(a[k], b[k])

