"""A warm query setup on Spark: ``from_pandas`` → ``RelQuery`` (the semi-join
reduction, with one collect per reduced relation; nothing cached) →
``total_count`` (the up–down pass on the driver), on the tables of
``build_chain(engine, N, seed=0)``.

Each row is one N. It records the setup's median and quartile seconds over
``--setups`` setups, the Spark jobs one setup runs, the reduced rows, |q(D)|
and the machine. One untimed setup on the smallest N runs first, so no row
carries Spark's first-use warm-up.

As a pytest-benchmark case (``pytest benchmarks/bench_setup.py``) it times
setups at N = 1 000 on the test session and stores the job count and sizes
in ``extra_info``. As a script it starts Spark with ``perfbench/run.py``'s
``start_spark`` (``local[4]``, 8 shuffle partitions, automatic broadcasts
off, 2g driver) and appends rows to ``BENCH_setup.json``; run it with the
``src`` of the checkout to measure on ``PYTHONPATH``:

    PYTHONPATH=src python benchmarks/bench_setup.py --label change --setups 9
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
NS, SEED = (1_000, 8_000, 32_000, 128_000), 0


def chain_tables(n: int):
    """The pandas tables ``build_chain(engine, n, SEED)`` lifts."""
    from repro import synth_data

    return synth_data.clustered_chain_pdfs(n=n, n_keys=max(10, n // 10), seed=SEED)


def one_setup(spark, tables, group: str) -> dict:
    """Wall seconds and Spark jobs of one setup, with the sizes it found."""
    from repro.joins.engine import SparkEngine
    from repro.joins.yannakakis import RelQuery
    from repro.workloads import chain_tree

    sc, eng = spark.sparkContext, SparkEngine(spark)
    sc.setJobGroup(group, "setup")
    try:
        t0 = time.perf_counter()
        Q = RelQuery(eng, chain_tree(), {u: eng.from_pandas(t) for u, t in tables.items()})
        n = Q.total_count()
        seconds = time.perf_counter() - t0
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    reduced = sum(len(df) for df in Q.multiplicities().values())
    Q.close()
    jobs = len(sc.statusTracker().getJobIdsForGroup(group))
    return {"seconds": seconds, "jobs": jobs, "reduced_rows": reduced, "join_size": n}


def test_setup(benchmark, spark):
    tables = chain_tables(NS[0])
    one_setup(spark, tables, "bench-setup-warm-up")
    rows = []
    benchmark.pedantic(
        lambda: rows.append(one_setup(spark, tables, f"bench-setup-{len(rows)}")),
        rounds=7, iterations=1,
    )
    benchmark.extra_info.update({k: rows[-1][k] for k in ("jobs", "reduced_rows", "join_size")})


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--label", required=True, help="row label, e.g. parent or change")
    p.add_argument("--setups", type=int, default=9, help="timed setups per N")
    p.add_argument("--out", default=str(ROOT / "BENCH_setup.json"))
    args = p.parse_args(argv)
    sys.path.append(str(ROOT))  # benchmarks, perfbench; repro comes from PYTHONPATH
    from benchmarks.bench_warm_call import machine_facts
    from perfbench.run import start_spark, stop_spark

    spark = start_spark()
    machine = {**machine_facts(), "spark": spark.version, "master": spark.sparkContext.master,
               "shuffle_partitions": spark.conf.get("spark.sql.shuffle.partitions")}
    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {"workload": __doc__.split("\n\n")[0], "rows": []}
    try:
        one_setup(spark, chain_tables(NS[0]), "bench-setup-warm-up")
        for n in NS:
            tables = chain_tables(n)
            runs = [one_setup(spark, tables, f"bench-setup-{n}-{i}") for i in range(args.setups)]
            secs = [r["seconds"] for r in runs]
            row = {
                "label": args.label,
                "n_per_rel": n,
                "setups": args.setups,
                "setup_s_median": statistics.median(secs),
                "setup_s_quartiles": [float(q) for q in np.quantile(secs, [0.25, 0.75])],
                "spark_jobs": sorted({r["jobs"] for r in runs}),
                "reduced_rows": runs[-1]["reduced_rows"],
                "join_size": runs[-1]["join_size"],
                "machine": machine,
            }
            doc["rows"].append(row)
            print(json.dumps({k: v for k, v in row.items() if k != "machine"}), flush=True)
    finally:
        stop_spark(spark)
    out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
