"""Table 1 (deterministic D rows) — Algorithm 1 inside Algorithm 3, on Spark.

Each Algorithm 1 node is one carried counting DP plus one sampling pass, so
the deterministic rows run on Spark like the other tables, next to the
randomized algorithm and the full-join reference on the same instance.

Run:  spark-submit jobs/table1_deterministic.py  [--n 120]
"""
import argparse
import sys

sys.path.insert(0, ".")
from jobs._session import get_spark  # noqa: E402


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=120)
    ap.add_argument("--k", type=int, default=2)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    from repro.experiments import deterministic_table, format_md
    from repro.joins.engine import SparkEngine

    spark = get_spark()
    df = deterministic_table(SparkEngine(spark), n=args.n, k=args.k, seed=args.seed)
    print("\n# Table 1 — deterministic rows (measured)\n")
    print(format_md(df))
    spark.stop()


if __name__ == "__main__":
    main()
