"""Self-tests of the benchmark's own code: span arithmetic and the oracle.

Run from the repository root: ``PYTHONPATH=src python -m pytest perfbench -q``.
"""
from __future__ import annotations

import numpy as np
import pytest

from perfbench.layers import call_metrics, self_time_by_name
from perfbench.oracle import Oracle
from perfbench.tracer import Span, Tracer, self_times
from perfbench.workloads import CHAIN_JOIN


class Clock:
    def __init__(self):
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


class Jobs:
    """Job hook that reports a fixed job count per span name."""

    def __init__(self, per_name):
        self.per_name = per_name
        self.events = []

    def enter(self, span):
        self.events.append(("enter", span.name))

    def exit(self, span, parent):
        self.events.append(("exit", span.name, parent.name if parent else None))
        return self.per_name.get(span.name, 0)


def _trace(tracer, clock, tree, t=0.0):
    """Record ``tree`` = (name, duration, [children], counts) as nested spans;
    children run back to back from the parent's start + 1."""
    name, dur, kids, counts = tree
    clock.t = t
    with tracer.span(name):
        for key, n in counts.items():
            tracer.count(key, n)
        cur = t + 1
        for kid in kids:
            cur = _trace(tracer, clock, kid, cur)
        clock.t = t + dur
    return t + dur


def test_self_times_of_nested_spans():
    clock = Clock()
    tr = Tracer(clock=clock)
    tr.enabled = True
    # call [0,10] ⊃ a [1,6] ⊃ b [2,5]; then b [6,8].
    _trace(tr, clock, ("call", 10, [("a", 5, [("b", 3, [], {})], {}), ("b", 2, [], {})], {}))
    by_name = self_time_by_name(tr.spans)
    assert by_name == {"call": 3.0, "a": 2.0, "b": 5.0}
    root = next(s for s in tr.spans if s.parent is None)
    assert sum(self_times(tr.spans).values()) == pytest.approx(root.duration)


def test_self_time_counts_overlapping_children_once():
    clock = Clock()
    tr = Tracer(clock=clock)
    tr.enabled = True
    with tr.span("root"):
        clock.t = 1
        with tr.span("a"):
            clock.t = 4
        clock.t = 10
    root = next(s for s in tr.spans if s.parent is None)
    # A second child reported over [2, 6] overlaps a on [2, 4].
    b = Span(id=99, name="b", parent=root.id, call=None, start=2.0, end=6.0)
    assert self_times([*tr.spans, b])[root.id] == pytest.approx(10 - 5)


def test_disabled_tracer_records_nothing_and_counts_go_to_innermost_span():
    tr = Tracer(clock=Clock())
    with tr.span("off"):
        tr.count("rows", 3)
    assert tr.spans == []
    tr.enabled = True
    with tr.span("outer"):
        with tr.span("inner"):
            tr.count("rows", 3)
        tr.count("rows", 1)
    counts = {s.name: dict(s.counts) for s in tr.spans}
    assert counts == {"inner": {"rows": 3}, "outer": {"rows": 1}}


def test_job_hook_sees_parent_and_reports_jobs():
    jobs = Jobs({"call": 1, "engine.collect": 2})
    tr = Tracer(clock=Clock(), jobs=jobs)
    tr.enabled = True
    with tr.span("call"):
        with tr.span("engine.collect"):
            pass
    assert jobs.events == [
        ("enter", "call"),
        ("enter", "engine.collect"),
        ("exit", "engine.collect", "call"),
        ("exit", "call", None),
    ]
    assert {s.name: s.jobs for s in tr.spans} == {"call": 1, "engine.collect": 2}


def test_layer_metrics_split_a_call():
    clock = Clock()
    tr = Tracer(clock=clock, jobs=Jobs({"engine.collect": 1, "engine.weighted_pick": 2}))
    tr.enabled, tr.call = True, 7
    collect = ("engine.collect", 1, [], {"rows": 10})
    call = (
        "call", 40, [
            ("yannakakis.sample", 8, [
                collect,
                ("engine.weighted_pick", 2, [], {"groups": 5}),
                ("engine.weighted_pick", 3, [], {"groups": 4}),
            ], {"dp_runs": 1}),
            ("yannakakis.leaf", 4, [collect, ("cluster", 1, [], {"points": 6})], {"dp_runs": 1}),
            ("coreset.build", 10, [("grid.candidate_cells", 2, [], {})], {
                "size": 50, "pool": 200, "cells": 9, "heavy": 3, "skipped_cond3": 1,
                "unclaimed_frac": 0.25,
            }),
            ("cluster", 3, [], {"points": 50}),
        ], {},
    )
    _trace(tr, clock, call)
    m = call_metrics(tr.spans)
    assert m["trace.call_s"] == 40
    assert m["yannakakis.sample_s"] == 8
    assert m["yannakakis.sample_root_s"] == 8 - 5
    assert m["yannakakis.sample_jobs"] == 1 + 2 + 2
    assert m["yannakakis.leaf_s"] == 4 - 1
    assert m["yannakakis.leaf_rows"] == 10
    assert m["yannakakis.dp_runs"] == 2
    assert m["engine.weighted_pick_s"] == 5
    assert m["engine.weighted_pick_calls"] == 2
    assert m["engine.weighted_pick_groups"] == 9
    assert m["engine.collect_s"] == 2
    assert m["engine.collect_rows"] == 20
    assert m["spark.jobs_per_call"] == 2 + 4
    assert m["coreset.build_s"] == 10
    assert m["coreset.root_compression"] == 50 / 200
    assert m["grid.candidate_cells_calls"] == 1
    assert m["cluster.s"] == 4
    assert m["cluster.points"] == 56
    # The call's children cover 8 + 4 + 10 + 3 of its 40 s.
    assert m["core.other_s"] == 40 - 25
    assert sum(self_time_by_name(tr.spans).values()) == pytest.approx(40)


@pytest.mark.parametrize("objective", ["median", "means"])
def test_oracle_matches_weighted_cost_on_a_local_chain(objective):
    from repro import synth_data
    from repro.clustering.cost import weighted_cost
    from repro.joins.engine import LocalEngine
    from repro.joins.yannakakis import RelQuery
    from repro.workloads import chain_tree

    tables = synth_data.clustered_chain_pdfs(n=120, n_keys=12, seed=3)
    Q = RelQuery(LocalEngine(), chain_tree(), tables)
    feats = list(Q.tree.all_features)
    P = Q.engine.to_pandas(Q.materialize(feats)).to_numpy(dtype=np.float64)
    C = np.random.default_rng(0).random((3, len(feats)))
    with Oracle(tables, CHAIN_JOIN, feats) as oracle:
        assert oracle.join_size() == Q.total_count() == len(P)
        cost = oracle.cost(C, objective)
        assert cost == pytest.approx(weighted_cost(P, C, None, objective), rel=1e-9)
        # Random centers are far from any local optimum; local search helps.
        assert oracle.refined_cost(C, objective) < cost
