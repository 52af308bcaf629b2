"""Join-tree model for acyclic conjunctive queries.

A :class:`JoinTree` describes the query q = R1 ⋈ … ⋈ Rm: relations with their
attributes, which attributes are clustering features, and the tree edges with
their shared join attributes. The tree can be re-rooted at any relation
(``rerooted``); the counting DPs give the same |q(D)| and per-tuple
multiplicities from every root. Algorithm 3 itself needs no re-rooting: one
up–down pass from the declared root gives every relation's multiplicities.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(frozen=True)
class Relation:
    """One relation: name, all attributes, and feature (clustering) attributes."""

    name: str
    attrs: tuple[str, ...]
    features: tuple[str, ...] = ()

    def __post_init__(self):
        missing = set(self.features) - set(self.attrs)
        if missing:
            raise ValueError(f"features {missing} not among attrs of {self.name}")


class JoinTree:
    """An acyclic join query as a tree over relations.

    ``edges`` are undirected ``(rel_a, rel_b, join_attrs)`` triples; the tree
    is oriented from ``root`` on construction (parent/children maps). The
    connectivity property of a join tree (every attribute's relations form a
    subtree) is the caller's responsibility; ``gyo_is_acyclic`` validates the
    hypergraph itself.
    """

    def __init__(
        self,
        relations: Sequence[Relation],
        edges: Iterable[tuple[str, str, Sequence[str]]],
        root: str | None = None,
    ):
        self.relations: dict[str, Relation] = {r.name: r for r in relations}
        if len(self.relations) != len(relations):
            raise ValueError("duplicate relation names")
        self._edges = [(a, b, tuple(j)) for a, b, j in edges]
        self.adj: dict[str, dict[str, tuple[str, ...]]] = {n: {} for n in self.relations}
        for a, b, j in self._edges:
            if a not in self.relations or b not in self.relations:
                raise ValueError(f"edge ({a},{b}) references unknown relation")
            for attr in j:
                if attr not in self.relations[a].attrs or attr not in self.relations[b].attrs:
                    raise ValueError(f"join attr {attr} missing from {a} or {b}")
            self.adj[a][b] = tuple(j)
            self.adj[b][a] = tuple(j)
        self.root = root if root is not None else next(iter(self.relations))
        if self.root not in self.relations:
            raise ValueError(f"unknown root {self.root}")
        self._orient()

    def _orient(self) -> None:
        self.parent: dict[str, str | None] = {self.root: None}
        self.children: dict[str, list[str]] = {n: [] for n in self.relations}
        seen = {self.root}
        q = deque([self.root])
        while q:
            u = q.popleft()
            for v in self.adj[u]:
                if v not in seen:
                    seen.add(v)
                    self.parent[v] = u
                    self.children[u].append(v)
                    q.append(v)
        if len(seen) != len(self.relations):
            raise ValueError("join graph is not connected")
        if len(self._edges) != len(self.relations) - 1:
            raise ValueError("join graph is not a tree (wrong edge count)")

    def join_attrs(self, a: str, b: str) -> tuple[str, ...]:
        """Shared join attributes of tree edge (a, b)."""
        return self.adj[a][b]

    def rerooted(self, new_root: str) -> "JoinTree":
        """Same tree, oriented from ``new_root``."""
        return JoinTree(list(self.relations.values()), self._edges, root=new_root)

    def postorder(self) -> list[str]:
        """Children before parents (bottom-up order)."""
        order: list[str] = []

        def rec(u: str) -> None:
            for v in self.children[u]:
                rec(v)
            order.append(u)

        rec(self.root)
        return order

    @property
    def all_features(self) -> tuple[str, ...]:
        """All feature attributes in relation order, de-duplicated."""
        out: list[str] = []
        for r in self.relations.values():
            for f in r.features:
                if f not in out:
                    out.append(f)
        return tuple(out)

    def relation_with_attr(self, attr: str) -> str:
        """Name of some relation containing ``attr`` (Algorithm 3 leaf root)."""
        for r in self.relations.values():
            if attr in r.attrs:
                return r.name
        raise KeyError(attr)


def gyo_is_acyclic(hyperedges: Sequence[Sequence[str]]) -> bool:
    """GYO reduction: a hypergraph is α-acyclic iff repeated ear removal
    (drop attributes unique to one edge; drop edges contained in another)
    empties it."""
    edges = [set(e) for e in hyperedges]
    changed = True
    while changed and len(edges) > 1:
        changed = False
        # Remove attributes occurring in exactly one edge.
        for e in edges:
            only_here = {a for a in e if sum(a in f for f in edges) == 1}
            if only_here:
                e -= only_here
                changed = True
        # Remove edges contained in another edge.
        for i, e in enumerate(edges):
            if any(i != j and e <= f for j, f in enumerate(edges)):
                edges.pop(i)
                changed = True
                break
    return len(edges) <= 1
