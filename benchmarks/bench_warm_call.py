"""A warm NEW call, layer by layer: ``rel_kmedian`` (k=3, pool 10k) on the
perfbench chain instance (``perfbench.workloads.chain_tables(901)``,
|q(D)| = 6 997 379) on the in-memory engine, after the query has kept its
multiplicities, so the call is driver work only.

Layers (inclusive wall seconds per call, summed over the call's nodes):
``grid`` is Algorithm 2's grid pass (``build_coreset_fast``), ``sample``
the pool draw (``RelQuery.sample``), ``cluster`` the black-box clusterer
at the inner nodes, ``leaves`` the leaf nodes (H_u group-by plus its 1-D
clustering).

As a pytest-benchmark case (``pytest benchmarks/bench_warm_call.py``) it
times the call and stores the per-layer medians in ``extra_info``. As a
script it appends rows to ``BENCH_warm_call.json``; run it with the
``src`` of the checkout to measure on ``PYTHONPATH``:

    PYTHONPATH=src python benchmarks/bench_warm_call.py --label change --calls 20

``--discrete`` times ``rel_kmedian(discrete=True)`` instead, whose medoid
snap at the root adds exact O(m²) distance sums over the root coreset.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
K, POOL, INSTANCE, WARMUP = 3, 10_000, 901, 2


def warm_query():
    """The chain query on ``LocalEngine``, with |q(D)| and its
    multiplicities kept."""
    from perfbench.workloads import chain_tables
    from repro.joins.engine import LocalEngine
    from repro.joins.yannakakis import RelQuery
    from repro.workloads import chain_tree

    Q = RelQuery(LocalEngine(), chain_tree(), chain_tables(INSTANCE))
    Q.total_count()
    Q.multiplicities()
    return Q


@contextmanager
def layer_timer(spent: dict[str, float]):
    """Add each layer's inclusive seconds to ``spent`` while open."""
    from repro.core import coreset_fast, hierarchy
    from repro.joins.yannakakis import RelQuery

    def timed(owner, attr, layer):
        orig = getattr(owner, attr)

        def wrapper(*a, **kw):
            t0 = time.perf_counter()
            try:
                return orig(*a, **kw)
            finally:
                spent[layer] = spent.get(layer, 0.0) + time.perf_counter() - t0

        setattr(owner, attr, wrapper)
        return owner, attr, orig

    undo = [
        timed(coreset_fast, "build_coreset_fast", "grid"),
        timed(RelQuery, "sample", "sample"),
        timed(coreset_fast, "cluster", "cluster"),
        timed(hierarchy, "_leaf", "leaves"),
    ]
    try:
        yield spent
    finally:
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)


def one_call(Q, seed: int, discrete: bool = False) -> dict[str, float]:
    """Wall seconds of one warm call and of each layer in it."""
    from repro.core.api import rel_kmedian

    with layer_timer({}) as spent:
        t0 = time.perf_counter()
        rel_kmedian(Q, K, pool_size=POOL, seed=seed, discrete=discrete)
        spent["call"] = time.perf_counter() - t0
    return spent


def medians(rows: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(r.get(k, 0.0) for r in rows) for k in rows[0]}


def machine_facts() -> dict:
    import pandas as pd

    mem_kb = next(
        int(line.split()[1]) for line in open("/proc/meminfo") if line.startswith("MemTotal:")
    )
    cpu = next(
        (line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo")
         if line.startswith("model name")),
        platform.processor(),
    )
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "mem_total_gb": round(mem_kb / 2**20, 2),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "pandas": pd.__version__,
    }


def test_warm_call(benchmark):
    Q = warm_query()
    for seed in range(WARMUP):
        one_call(Q, seed)
    rows = []
    benchmark.pedantic(lambda: rows.append(one_call(Q, len(rows))), rounds=10, iterations=1)
    benchmark.extra_info["layers_s"] = medians(rows)
    benchmark.extra_info["join_size"] = Q.total_count()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--label", required=True, help="row label, e.g. parent or change")
    p.add_argument("--calls", type=int, default=20)
    p.add_argument("--discrete", action="store_true", help="time discrete=True calls")
    p.add_argument("--out", default=str(ROOT / "BENCH_warm_call.json"))
    args = p.parse_args(argv)
    sys.path.append(str(ROOT))  # perfbench; repro comes from PYTHONPATH
    Q = warm_query()
    for seed in range(WARMUP):
        one_call(Q, seed, args.discrete)
    rows = [one_call(Q, seed, args.discrete) for seed in range(args.calls)]
    calls = sorted(r["call"] for r in rows)
    row = {
        "label": args.label,
        "discrete": args.discrete,
        "calls": args.calls,
        "call_s_median": statistics.median(calls),
        "call_s_quartiles": [float(q) for q in np.quantile(calls, [0.25, 0.75])],
        "layers_s_median": medians(rows),
        "join_size": Q.total_count(),
        "machine": machine_facts(),
    }
    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {"workload": __doc__.split("\n\n")[0], "rows": []}
    doc["rows"].append(row)
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(json.dumps(row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
