"""Spans around the calls into each layer of the program, and the per-layer
metrics read off them.

``instrument`` wraps public functions of the program's modules from the
outside; where a module imports a function by name, the name is patched in
that module, since that is the name its callers look up. Lazy Spark plans run
at the action that collects them, so the time of a counting DP shows up in
the span around that action (``engine.collect``), inside the layer span that
asked for it.
"""
from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from typing import Callable

from perfbench.tracer import Span, Tracer, self_times, subtree

LEAF = "yannakakis.leaf"
SAMPLE = "yannakakis.sample"
GROUPED = "yannakakis.grouped_counts"
PICK = "engine.weighted_pick"
COLLECT = "engine.collect"
BUILD = "coreset.build"
CELLS = "grid.candidate_cells"
CLUSTER = "cluster"


def instrument(tracer: Tracer) -> Callable[[], None]:
    """Wrap the layer entry points; returns a function that unwraps them."""
    from repro.joins.engine import SparkEngine

    # import_module, because the packages re-export functions under the
    # names of some of these modules.
    rkmeans = importlib.import_module("repro.baselines.rkmeans")
    coreset_fast = importlib.import_module("repro.core.coreset_fast")
    hierarchy = importlib.import_module("repro.core.hierarchy")
    yannakakis = importlib.import_module("repro.joins.yannakakis")

    undo: list[tuple[object, str, object]] = []

    def wrap(owner, attr, name=None, before=None, after=None, counter=None):
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return orig(*args, **kwargs)
            if name is None:
                tracer.count(counter)
                return orig(*args, **kwargs)
            with tracer.span(name):
                if counter:
                    tracer.count(counter)
                if before:
                    before(*args, **kwargs)
                out = orig(*args, **kwargs)
                if after:
                    after(out, *args, **kwargs)
                return out

        undo.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def pick_requests(_engine, _tuples, key_cols, _w, requests, _out):
        tracer.count("groups", len(requests[list(key_cols)].drop_duplicates()))

    def collected(out, *_):
        tracer.count("rows", len(out))

    def built(C, pool, *_args, **_kw):
        tracer.count("size", len(C))
        tracer.count("pool", len(pool))
        tracer.count("cells", C.info["n_cells"])
        tracer.count("heavy", C.info["n_heavy"])
        tracer.count("skipped_cond3", C.info["n_skipped_cond3"])
        tracer.count("unclaimed_frac", C.info["unclaimed_frac"])

    def points(P, *_args, **_kw):
        tracer.count("points", len(P))

    wrap(yannakakis, "subtree_counts", counter="dp_runs")
    wrap(rkmeans, "grouped_counts", GROUPED, counter="dp_runs")
    wrap(yannakakis.RelQuery, "sample", SAMPLE)
    wrap(hierarchy, "_leaf", LEAF)
    wrap(SparkEngine, "weighted_pick", PICK, before=pick_requests)
    wrap(SparkEngine, "to_pandas", COLLECT, after=collected)
    wrap(coreset_fast, "build_coreset_fast", BUILD, after=built)
    wrap(coreset_fast, "candidate_cells_from_points", CELLS)
    for mod in (hierarchy, coreset_fast, rkmeans):
        wrap(mod, "cluster", CLUSTER, before=points)

    def restore():
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)

    return restore


def call_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one clustering call, from that call's spans.

    Times are inclusive span times; ``leaf_s`` leaves out the 1-D clustering
    inside a leaf and ``sample_root_s`` leaves out the per-edge picks, which
    have metrics of their own. ``core.other_s`` is the call time that no
    layer span covers.
    """
    (root,) = [s for s in spans if s.parent is None]
    by_id = {s.id: s for s in spans}
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def total(name: str) -> float:
        return sum(s.duration for s in by_name[name])

    def count(name: str, key: str) -> float:
        return sum(s.counts.get(key, 0) for s in by_name[name])

    def under(child: str, parent: str) -> list[Span]:
        return [s for s in by_name[child] if by_id[s.parent].name == parent]

    builds = sorted(by_name[BUILD], key=lambda s: s.start)
    root_build = builds[-1].counts if builds else {}
    return {
        "yannakakis.dp_runs": sum(s.counts.get("dp_runs", 0) for s in spans),
        "yannakakis.leaf_s": total(LEAF) - sum(s.duration for s in under(CLUSTER, LEAF)),
        "yannakakis.leaf_rows": sum(s.counts.get("rows", 0) for s in under(COLLECT, LEAF)),
        "yannakakis.grouped_counts_s": total(GROUPED),
        "yannakakis.sample_s": total(SAMPLE),
        "yannakakis.sample_root_s": total(SAMPLE) - sum(s.duration for s in under(PICK, SAMPLE)),
        "yannakakis.sample_jobs": sum(
            t.jobs for s in by_name[SAMPLE] for t in subtree(spans, s)
        ),
        "engine.weighted_pick_s": total(PICK),
        "engine.weighted_pick_calls": len(by_name[PICK]),
        "engine.weighted_pick_groups": count(PICK, "groups"),
        "engine.collect_s": total(COLLECT),
        "engine.collect_rows": count(COLLECT, "rows"),
        "spark.jobs_per_call": sum(s.jobs for s in spans),
        "coreset.build_s": total(BUILD),
        "coreset.root_size": root_build.get("size", 0),
        "coreset.root_compression": (
            root_build["size"] / root_build["pool"] if root_build.get("pool") else 0.0
        ),
        "coreset.cells": count(BUILD, "cells"),
        "coreset.heavy": count(BUILD, "heavy"),
        "coreset.skipped_cond3": count(BUILD, "skipped_cond3"),
        "coreset.unclaimed_frac": root_build.get("unclaimed_frac", 0.0),
        "grid.candidate_cells_s": total(CELLS),
        "grid.candidate_cells_calls": len(by_name[CELLS]),
        "cluster.s": total(CLUSTER),
        "cluster.points": count(CLUSTER, "points"),
        "core.other_s": self_times(spans)[root.id],
        "trace.call_s": root.duration,
    }


def self_time_by_name(spans: list[Span]) -> dict[str, float]:
    """Self time summed per span name; the values add up to the root span's
    duration, which is how the trace accounts for a call's time."""
    names = {s.id: s.name for s in spans}
    out: dict[str, float] = defaultdict(float)
    for s_id, t in self_times(spans).items():
        out[names[s_id]] += t
    return dict(out)
