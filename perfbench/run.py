"""Benchmark of the Spark relational clustering API.

Run from the repository root:

    python3 perfbench/run.py --workload chain-kmedian --seed 1 --seconds 20 --trace 0

One process is one run: it starts Spark (``local[n]``, n ≤ 4), generates the
workload's tables from ``--seed``, sets the query up several times, makes one
warm-up calls and then clustering calls back to back (one client, closed loop)
until ``--seconds`` have passed. Every result is checked against a DuckDB
oracle after timing ends. The last line of standard output is one JSON object
with the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``); a readable summary and the machine and run facts go to
standard error and to ``perfbench/out/``.

With ``--trace 1`` the calls into each layer are wrapped in spans
(``perfbench/layers.py``) and calls alternate between traced and untraced, so
the gap between the two medians is the tracing overhead.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shlex
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_ROUNDS = 5
# Calls left out of the timing. After one, the next calls still ran 10-35%
# slower than later ones (JIT warm-up); after two, the trend is within noise.
WARMUP_CALLS = 2
SPARK_CORES = min(4, os.cpu_count() or 1)
DRIVER_MEMORY = "2g"
SHUFFLE_PARTITIONS = 8


T0 = time.perf_counter()


def log(msg: str) -> None:
    print(f"[perfbench +{time.perf_counter() - T0:6.1f}s] {msg}", file=sys.stderr, flush=True)


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def start_spark():
    tmp, local = OUT / "tmp", OUT / "spark-local"
    tmp.mkdir(parents=True, exist_ok=True)
    local.mkdir(parents=True, exist_ok=True)
    # Spark's Python workers inherit this environment and import repro.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["SPARK_LOCAL_DIRS"] = str(local)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["PYSPARK_SUBMIT_ARGS"] = shlex.join(
        [
            "--master", f"local[{SPARK_CORES}]",
            "--driver-memory", DRIVER_MEMORY,
            "--driver-java-options", f"-Djava.io.tmpdir={tmp}",
            "--conf", "spark.driver.host=127.0.0.1",
            "--conf", "spark.ui.enabled=false",
            "--conf", "spark.ui.showConsoleProgress=false",
            "pyspark-shell",
        ]
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", str(SHUFFLE_PARTITIONS))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop Spark and wait for the JVM, which otherwise outlives the context."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    if gateway is not None:
        gateway.shutdown()
    if proc is not None:
        proc.stdin.close()  # the JVM exits on EOF of its stdin
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def machine_facts(spark) -> dict:
    import numpy as np
    import pandas as pd

    mem_kb = next(
        int(line.split()[1]) for line in open("/proc/meminfo") if line.startswith("MemTotal:")
    )
    sc = spark.sparkContext
    return {
        "nproc": os.cpu_count(),
        "mem_total_gb": round(mem_kb / 2**20, 2),
        "platform": platform.platform(),
        "spark": spark.version,
        "master": sc.master,
        "default_parallelism": sc.defaultParallelism,
        "shuffle_partitions": spark.conf.get("spark.sql.shuffle.partitions"),
        "driver_memory": sc.getConf().get("spark.driver.memory"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "pandas": pd.__version__,
    }


def check_centers(centers, k: int, d: int) -> str | None:
    import numpy as np

    C = np.asarray(centers, dtype=np.float64)
    if C.ndim != 2 or C.shape[1] != d or not 1 <= len(C) <= k:
        return f"centers have shape {C.shape}, want (1..{k}, {d})"
    if not np.isfinite(C).all():
        return "centers are not all finite"
    return None


def measure(spark, wl, args) -> dict:
    """Set up and call back to back; everything timed happens here."""
    from repro.joins.engine import SparkEngine
    from repro.joins.yannakakis import RelQuery
    from repro.workloads import chain_tree

    from perfbench.layers import instrument
    from perfbench.tracer import SparkJobGroups, Tracer
    from perfbench.workloads import chain_tables

    tracer = None
    if args.trace:
        tracer = Tracer(jobs=SparkJobGroups(spark.sparkContext))
        instrument(tracer)

    def span(name):
        return tracer.span(name) if tracer else nullcontext()

    eng = SparkEngine(spark)
    tables = chain_tables(args.seed)
    tree = chain_tree()
    d = len(tree.all_features)

    setups, Q = [], None
    for _ in range(SETUP_ROUNDS):
        if Q is not None:
            for df in Q.dfs.values():
                df.unpersist()
        if tracer:
            tracer.enabled, tracer.call = True, None
        t0 = time.perf_counter()
        with span("setup"):
            Q = RelQuery(eng, tree, {name: eng.from_pandas(df) for name, df in tables.items()})
            n = Q.total_count()
        setup = {"seconds": time.perf_counter() - t0, "n": n}
        if tracer:
            tracer.enabled = False
            setup["reduced_rows"] = sum(df.count() for df in Q.dfs.values())
        setups.append(setup)
        log(f"setup {setup}")

    calls = []

    def one_call(i: int, timed: bool, traced: bool) -> None:
        rec = {"call": i, "seed": args.seed + i, "k": wl.k, "n": n, "timed": timed,
               "traced": traced, "error": None}
        if tracer:
            tracer.enabled, tracer.call = traced, i
        t0 = time.perf_counter()
        try:
            with span("call"):
                out = wl.call(Q, wl.k, args.seed + i)
            rec["seconds"] = time.perf_counter() - t0
            rec.update(out.facts, centers=out.centers, r=out.r)
            rec["error"] = check_centers(out.centers, wl.k, d)
        except Exception:
            rec["error"] = traceback.format_exc()
        finally:
            if tracer:
                tracer.enabled = False
        if rec["error"]:
            print(f"[perfbench] call {i} failed: {rec['error']}", file=sys.stderr)
        calls.append(rec)
        log(f"call {i} {rec.get('seconds')}")

    for i in range(WARMUP_CALLS):
        one_call(i, timed=False, traced=False)
    deadline = time.perf_counter() + args.seconds
    i = WARMUP_CALLS
    # A traced run alternates traced and untraced calls and needs one of each.
    while time.perf_counter() < deadline or (args.trace and i < WARMUP_CALLS + 2):
        one_call(i, timed=True, traced=bool(args.trace) and (i - WARMUP_CALLS) % 2 == 0)
        i += 1
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "tables": tables,
        "features": list(tree.all_features),
        "setups": setups,
        "calls": calls,
        "driver_peak_rss_mb": rss_mb,
        "spans": tracer.spans if tracer else [],
    }


def evaluate(wl, raw: dict, trace: bool) -> tuple[dict, dict, dict]:
    """Oracle checks and metrics, after the Spark session has stopped.

    Returns (result line, metrics with units, extra report fields).
    """
    from perfbench.layers import call_metrics, self_time_by_name
    from perfbench.oracle import Oracle
    from perfbench.tracer import subtree
    from perfbench.workloads import CHAIN_JOIN

    calls, setups = raw["calls"], raw["setups"]
    with Oracle(raw["tables"], CHAIN_JOIN, raw["features"]) as oracle:
        n_true = oracle.join_size()
        for c in calls:
            if c["error"] is None:
                c["cost"] = oracle.cost(c["centers"], wl.objective)
                c["refined_cost"] = oracle.refined_cost(c["centers"], wl.objective)
                if not 0 < c["cost"] < float("inf"):
                    c["error"] = f"oracle cost {c['cost']} is not finite and positive"
    setup_ok = all(s["n"] == n_true for s in setups)
    if not setup_ok:
        print(f"[perfbench] |q(D)| mismatch: DuckDB {n_true}, setups {setups}", file=sys.stderr)

    ok = [c for c in calls if c["error"] is None]
    timed = [c["seconds"] for c in ok if c["timed"] and not c["traced"]]
    if not ok or not timed:
        raise RuntimeError("no clustering call succeeded")
    med = statistics.median
    extra = {
        "join_size": n_true,
        "cost_per_row": med(c["cost"] / n_true for c in ok),
        "error_rate": 1 - len(ok) / len(calls),
    }
    if not trace:
        metrics = {
            "setup_s": (med(s["seconds"] for s in setups), "s"),
            "call_s": (med(timed), "s"),
            "cost_ratio": (med(c["cost"] / c["refined_cost"] for c in ok), "ratio"),
            "pass_rate": (len(ok) / len(calls), "fraction"),
            "driver_peak_rss_mb": (raw["driver_peak_rss_mb"], "MB"),
        }
        extra["timed_calls"] = len(timed)
    else:
        spans = raw["spans"]
        per_call, self_by_name = [], []
        for c in (c for c in ok if c["traced"]):
            mine = [s for s in spans if s.call == c["call"]]
            m = call_metrics(mine)
            by_name = self_time_by_name(mine)
            if abs(sum(by_name.values()) - m["trace.call_s"]) > 1e-6:
                c["error"] = "span self times do not add up to the call time"
            m["core.r_over_cost"] = c["r"] / c["cost"] if c["r"] is not None and c["cost"] else 0.0
            per_call.append(m)
            self_by_name.append(by_name)
        setup_spans = [s for s in spans if s.name == "setup"]
        metrics = {
            "yannakakis.setup_s": (med(s.duration for s in setup_spans), "s"),
            "yannakakis.reduced_rows": (med(s["reduced_rows"] for s in setups), "count"),
            "yannakakis.setup_jobs": (
                med(sum(t.jobs for t in subtree(spans, s)) for s in setup_spans), "count"
            ),
        }
        for key in per_call[0]:
            unit = "s" if key.endswith(("_s", ".s")) else "ratio" if key in _RATIOS else "count"
            metrics[key] = (med(m[key] for m in per_call), unit)
        untraced = med(timed)
        metrics["trace.untraced_call_s"] = (untraced, "s")
        metrics["trace.overhead_s"] = (metrics["trace.call_s"][0] - untraced, "s")
        extra["self_s"] = {
            k: med(b.get(k, 0.0) for b in self_by_name) for k in set().union(*self_by_name)
        }
        extra["traced_calls"] = len(per_call)
    failed = sum(c["error"] is not None for c in calls)
    result = {
        "correct": failed == 0 and setup_ok,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, metrics, extra


_RATIOS = {"coreset.root_compression", "coreset.unclaimed_frac", "core.r_over_cost"}


def report(args, facts: dict, raw: dict, metrics: dict, extra: dict) -> None:
    """Readable summary on stderr and the full record under perfbench/out/."""
    err = sys.stderr
    print(f"[perfbench] {args.workload} seed={args.seed} trace={args.trace} "
          f"|q(D)|={extra['join_size']} facts={json.dumps(facts)}", file=err)
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}", file=err)
    print(f"  {'cost_per_row':32s} {extra['cost_per_row']:14.6g} cost/row", file=err)
    print(f"  {'error_rate':32s} {extra['error_rate']:14.6g} fraction", file=err)
    if "timed_calls" in extra:
        print(f"  call_s is the median of {extra['timed_calls']} timed calls", file=err)
    if "self_s" in extra:
        print("  self time per span name (median per traced call):", file=err)
        for name, t in sorted(extra["self_s"].items(), key=lambda kv: -kv[1]):
            print(f"    {name:30s} {t:10.4f} s", file=err)
    calls = [
        {k: (v.tolist() if hasattr(v, "tolist") else v) for k, v in c.items()}
        for c in raw["calls"]
    ]
    record = {
        "args": vars(args),
        "facts": facts,
        "setups": raw["setups"],
        "calls": calls,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **extra,
        "spans": [s.to_json() for s in raw["spans"]],
    }
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"[perfbench] no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"[perfbench] unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    # Anything the program or the JVM prints goes to stderr; stdout carries
    # only the result line.
    result_fd = os.dup(1)
    os.dup2(2, 1)
    log("starting spark")
    spark = start_spark()
    log("spark started")
    try:
        facts = machine_facts(spark)
        raw = measure(spark, wl, args)
    finally:
        log("stopping spark")
        stop_spark(spark)
    log("spark stopped; oracle")
    result, metrics, extra = evaluate(wl, raw, bool(args.trace))
    import duckdb

    facts["duckdb"] = duckdb.__version__
    log("oracle done")
    report(args, facts, raw, metrics, extra)
    sys.stdout.flush()
    os.write(result_fd, (json.dumps(result) + "\n").encode())
    return 0


if __name__ == "__main__":
    sys.exit(main())
