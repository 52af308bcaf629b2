"""Relational substrate: join trees, Yannakakis counting and sampling.

This package implements Lemma 2.1 of the paper (counts and uniform samples
of the join results in boxes, via carried columns) and the counting
machinery Algorithm 3 needs (per-root-tuple join counts, leaf
projection weights), on top of a small engine abstraction so the exact same
dynamic programs run on PySpark DataFrames (production path) and on pandas
(fast unit-test / cross-check path).
"""
from repro.joins.engine import Engine, LocalEngine, SparkEngine
from repro.joins.join_tree import JoinTree, Relation, gyo_is_acyclic
from repro.joins.yannakakis import RelQuery

__all__ = [
    "Engine",
    "LocalEngine",
    "SparkEngine",
    "JoinTree",
    "Relation",
    "gyo_is_acyclic",
    "RelQuery",
]
