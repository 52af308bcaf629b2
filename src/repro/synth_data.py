"""Synthetic OLAP data at a configurable scale factor.

SF=1.0 is roughly TPC-H SF1 (~1 GB across tables). Tests use SF<=0.01;
benchmarks use SF~=0.1. Generators are deterministic in ``seed`` so the
DuckDB oracle sees identical input.
"""
import numpy as np
import pandas as pd

_N_LINEITEM_PER_SF = 6_000_000
_N_ORDERS_PER_SF = 1_500_000
_N_CUSTOMER_PER_SF = 150_000
_N_PART_PER_SF = 200_000


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def lineitem_pdf(*, sf: float = 0.01, seed: int = 0) -> pd.DataFrame:
    """The lineitem table of TPC-H-lite."""
    n = max(1, int(_N_LINEITEM_PER_SF * sf))
    n_orders = max(1, int(_N_ORDERS_PER_SF * sf))
    n_part = max(1, int(_N_PART_PER_SF * sf))
    g = _rng(seed)
    return pd.DataFrame(
        {
            "l_orderkey": g.integers(1, n_orders + 1, n),
            "l_partkey": g.integers(1, n_part + 1, n),
            "l_linenumber": g.integers(1, 8, n),
            "l_quantity": g.integers(1, 51, n).astype("float64"),
            "l_extendedprice": (g.random(n) * 90000 + 900).round(2),
            "l_discount": (g.random(n) * 0.1).round(2),
            "l_tax": (g.random(n) * 0.08).round(2),
            "l_returnflag": g.choice(list("NRA"), n),
            "l_linestatus": g.choice(list("OF"), n),
            "l_shipdate": pd.to_datetime("1992-01-01")
            + pd.to_timedelta(g.integers(0, 2557, n), unit="D"),
        }
    )


def orders_pdf(*, sf: float = 0.01, seed: int = 1) -> pd.DataFrame:
    """The orders table of TPC-H-lite."""
    n = max(1, int(_N_ORDERS_PER_SF * sf))
    n_cust = max(1, int(_N_CUSTOMER_PER_SF * sf))
    g = _rng(seed)
    return pd.DataFrame(
        {
            "o_orderkey": np.arange(1, n + 1),
            "o_custkey": g.integers(1, n_cust + 1, n),
            "o_orderstatus": g.choice(list("OFP"), n),
            "o_totalprice": (g.random(n) * 500000 + 1000).round(2),
            "o_orderdate": pd.to_datetime("1992-01-01")
            + pd.to_timedelta(g.integers(0, 2406, n), unit="D"),
            "o_orderpriority": g.choice(
                ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT", "5-LOW"], n
            ),
        }
    )


def customer_pdf(*, sf: float = 0.01, seed: int = 2) -> pd.DataFrame:
    """The customer table of TPC-H-lite."""
    n = max(1, int(_N_CUSTOMER_PER_SF * sf))
    g = _rng(seed)
    return pd.DataFrame(
        {
            "c_custkey": np.arange(1, n + 1),
            "c_nationkey": g.integers(0, 25, n),
            "c_acctbal": (g.random(n) * 10000 - 1000).round(2),
            "c_mktsegment": g.choice(
                ["BUILDING", "AUTOMOBILE", "MACHINERY", "HOUSEHOLD", "FURNITURE"], n
            ),
        }
    )


def _zipf_choice(g: np.random.Generator, n: int, n_keys: int, alpha: float) -> np.ndarray:
    ranks = np.arange(1, n_keys + 1)
    weights = 1.0 / ranks**alpha
    return g.choice(ranks, size=n, p=weights / weights.sum())


def clustered_chain_pdfs(
    *,
    n: int,
    n_keys: int,
    k_true: int = 4,
    sigma: float = 0.05,
    zipf_alpha: float = 1.1,
    seed: int = 0,
) -> dict[str, pd.DataFrame]:
    """Many-to-many chain R1(k1,x1) ⋈ R2(k1,k2,x2) ⋈ R3(k2,x3) with cluster
    structure in the join space.

    Keys are Zipf-skewed so |q(D)| ≫ N (the regime where the paper's
    algorithms must win — see DESIGN.md substitution 1). Each key value
    carries a latent cluster id; feature values are Gaussian around that
    cluster's center, so the join results form ~k_true³ soft clusters and
    k-median/k-means have real structure to find.
    """
    g = _rng(seed)
    centers = np.linspace(0.0, 1.0, k_true)
    clu1 = g.integers(0, k_true, n_keys)  # latent cluster per k1 value
    clu2 = g.integers(0, k_true, n_keys)  # latent cluster per k2 value

    def feat(keys: np.ndarray, clu: np.ndarray) -> np.ndarray:
        return centers[clu[keys - 1]] + g.normal(0.0, sigma, len(keys))

    k1_a = _zipf_choice(g, n, n_keys, zipf_alpha)
    r1 = pd.DataFrame({"k1": k1_a, "x1": feat(k1_a, clu1)})
    k1_b = _zipf_choice(g, n, n_keys, zipf_alpha)
    k2_b = _zipf_choice(g, n, n_keys, zipf_alpha)
    r2 = pd.DataFrame({"k1": k1_b, "k2": k2_b, "x2": feat(k2_b, clu2)})
    k2_c = _zipf_choice(g, n, n_keys, zipf_alpha)
    r3 = pd.DataFrame({"k2": k2_c, "x3": feat(k2_c, clu2)})
    return {"R1": r1, "R2": r2, "R3": r3}


def cycle4_pdfs(*, n: int, n_keys: int, seed: int = 0) -> dict[str, pd.DataFrame]:
    """4-cycle R1(a,b) ⋈ R2(b,c) ⋈ R3(c,d) ⋈ R4(d,a) — the cyclic-query
    (GHD, fhw=2) test workload. Attributes are numeric and double as
    clustering features."""
    g = _rng(seed)

    def rel(c1: str, c2: str, s: int) -> pd.DataFrame:
        gg = _rng(seed * 101 + s)
        return pd.DataFrame(
            {
                c1: gg.integers(1, n_keys + 1, n).astype("int64"),
                c2: gg.integers(1, n_keys + 1, n).astype("int64"),
            }
        )

    del g
    return {
        "R1": rel("a", "b", 1),
        "R2": rel("b", "c", 2),
        "R3": rel("c", "d", 3),
        "R4": rel("d", "a", 4),
    }
