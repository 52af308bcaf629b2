"""Cyclic queries via Generalized Hypertree Decompositions (Section 4.2 / App. E).

A cyclic join query is converted to an equivalent acyclic one by materializing
each GHD bag — the join of the bag's relations, projected onto the bag's
attributes as a multiset — as a new relation. Bag materialization costs
O(N^fhw) with DataFrame joins; the acyclic algorithms then run unchanged on
the bag tree. Every relation lies in exactly one bag, so each join result
of the query is one join result of the bags, duplicate tuples included.

The decomposition itself is supplied declaratively (bags + tree edges): for
the query sizes in this repo (e.g. the 4-cycle R1(a,b)⋈R2(b,c)⋈R3(c,d)⋈R4(d,a)
with bags {a,b,c} and {a,c,d}) an optimal GHD is known by inspection, matching
the paper, which also assumes the GHD as given (data complexity).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.joins.engine import Engine
from repro.joins.join_tree import JoinTree, Relation
from repro.joins.yannakakis import RelQuery


@dataclass(frozen=True)
class Bag:
    """One GHD bag: the sub-join of ``relations`` projected to ``attrs``."""

    name: str
    relations: tuple[str, ...]
    attrs: tuple[str, ...]
    features: tuple[str, ...] = ()


@dataclass
class GHD:
    """A decomposition: bags + tree edges between bags (shared attrs)."""

    bags: tuple[Bag, ...]
    edges: tuple[tuple[str, str, tuple[str, ...]], ...]
    root: str | None = None


def materialize_bag(
    engine: Engine,
    bag: Bag,
    tables: Mapping[str, object],
    schemas: Mapping[str, Sequence[str]],
):
    """Join the bag's relations (DataFrame joins on shared attrs) and project
    onto the bag attrs, keeping one row per sub-join result (Appendix E's bag
    tuples, with their multiplicities)."""
    cur = None
    cur_attrs: set[str] = set()
    for rel in bag.relations:
        df = engine.project(tables[rel], list(schemas[rel]))
        if cur is None:
            cur, cur_attrs = df, set(schemas[rel])
        else:
            shared = sorted(cur_attrs & set(schemas[rel]))
            if not shared:
                raise ValueError(
                    f"bag {bag.name}: relation {rel} shares no attrs with prefix join"
                )
            cur = engine.join(cur, df, on=shared)
            cur_attrs |= set(schemas[rel])
    return engine.project(cur, list(bag.attrs))


def ghd_to_acyclic(
    engine: Engine,
    ghd: GHD,
    tables: Mapping[str, object],
    schemas: Mapping[str, Sequence[str]],
) -> RelQuery:
    """Materialize every bag and return the equivalent acyclic RelQuery.

    Raises ``ValueError`` unless every relation of ``schemas`` is in exactly
    one bag, the condition under which multiset bags count exactly: a
    relation in two bags would weigh its duplicate tuples twice, and one in
    no bag would not constrain the join."""
    for rel in schemas:
        n_bags = sum(rel in b.relations for b in ghd.bags)
        if n_bags != 1:
            raise ValueError(f"relation {rel} is in {n_bags} bags, not exactly one")
    bag_tables = {
        b.name: materialize_bag(engine, b, tables, schemas) for b in ghd.bags
    }
    relations = [Relation(b.name, b.attrs, b.features) for b in ghd.bags]
    tree = JoinTree(relations, list(ghd.edges), root=ghd.root)
    return RelQuery(engine, tree, bag_tables)
