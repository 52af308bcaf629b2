"""Yannakakis-style dynamic programs over an acyclic join tree.

Everything here runs on the engine abstraction (Spark DataFrames in
production), and never materializes the join result:

- ``full_reduce``: semi-join reduction — keep only non-dangling tuples.
- ``subtree_counts``: the one bottom-up counting DP; node tuple t gets
  ``__cnt`` = number of join results of the subtree below t. At the root this
  yields the per-root-tuple counts c(h) of Algorithm 3 and the total |q(D)|;
  with ``carry`` the counts are also split by carried columns (a group-by
  aggregate over the same tree).
- ``multiplicities``: the up–down ("all marginals") pass — every tuple of
  every relation gets its full-join multiplicity; a leaf projection H_u is
  one group-by of these frames, and they weight the sampler.
- ``grouped_counts``: ``subtree_counts`` with carried columns, grouped by
  them at the root (the Rk-means baseline's grid-cell weights).
- ``sample_join``: uniform sampling of join results with replacement —
  weighted root pick, then one driver-side per-key pick per tree edge
  (Zhao et al. style); with carried columns, each sample is uniform over the
  join results having the requested carried values.

Lemma 2.1's CountRect / SampleRect are these two with carried columns: label
each tuple with the box (or interval) its features fall in, and the carried
DP counts every box at once, while the carried sampler draws inside any of
them (Algorithm 1 in ``core.coreset_slow``).
"""
from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Mapping, Sequence

import numpy as np
import pandas as pd

from repro.joins.engine import Engine
from repro.joins.join_tree import JoinTree

CNT = "__cnt"


def full_reduce(engine: Engine, tree: JoinTree, dfs: Mapping[str, object]) -> dict[str, object]:
    """Two semi-join passes (bottom-up, then top-down): every surviving tuple
    participates in at least one join result."""
    out = dict(dfs)
    for u in tree.postorder():
        p = tree.parent[u]
        if p is not None:
            out[p] = engine.semijoin(out[p], out[u], tree.join_attrs(u, p))
    for u in reversed(tree.postorder()):  # preorder: parents before children
        for c in tree.children[u]:
            out[c] = engine.semijoin(out[c], out[u], tree.join_attrs(c, u))
    return out


def _carried(tree: JoinTree, carry: Mapping[str, Sequence[str]], u: str) -> list[str]:
    """Carried columns that reach node u: its own, then each child subtree's."""
    return [*carry.get(u, []), *(x for c in tree.children[u] for x in _carried(tree, carry, c))]


def subtree_counts(
    engine: Engine,
    tree: JoinTree,
    dfs: Mapping[str, object],
    carry: Mapping[str, Sequence[str]] | None = None,
) -> dict[str, object]:
    """Bottom-up counting DP: ``__cnt`` per tuple = #join results below it.

    ``carry[rel]`` are extra columns of ``dfs[rel]`` kept as group keys on the
    way up, so a tuple's frame rows split its count by the carried values of
    the join results below it.
    """
    counts: dict[str, object] = {}
    for u in tree.postorder():
        df = engine.with_lit(dfs[u], CNT, 1)
        for c in tree.children[u]:
            jk = tree.join_attrs(c, u)
            keys = [*jk, *_carried(tree, carry or {}, c)]
            agg = engine.groupby_sum(counts[c], keys, CNT, f"__cnt_{c}")
            df = engine.join(df, agg, on=jk)
            df = engine.multiply_into(df, CNT, f"__cnt_{c}")
        counts[u] = df
    return counts


def multiplicities(engine: Engine, tree: JoinTree, dfs: Mapping[str, object]) -> dict[str, object]:
    """Up–down pass: ``__cnt`` per tuple of every relation = #join results
    it takes part in. Top-down from the root's subtree counts, a child c of
    u on key κ gets mult(t) = up(t) · (Σ_{s∈u, s.κ=t.κ} mult(s) div
    Σ_{t'∈c, t'.κ=t.κ} up(t')): exact, as that sum divides every such up(s),
    and no value exceeds |q(D)|."""
    up = subtree_counts(engine, tree, dfs)
    out = {tree.root: up[tree.root]}
    for u in reversed(tree.postorder()):  # preorder: parents before children
        for c in tree.children[u]:
            jk = tree.join_attrs(c, u)
            num = engine.groupby_sum(out[u], jk, CNT, "__num")
            den = engine.groupby_sum(up[c], jk, CNT, "__den")
            df = engine.join(engine.join(up[c], num, on=jk), den, on=jk)
            out[c] = engine.multiply_into(df, CNT, "__num", "__den")
    return out


def total_count(engine: Engine, tree: JoinTree, dfs: Mapping[str, object]) -> int:
    """|q(D)| without materializing the join."""
    counts = subtree_counts(engine, tree, dfs)
    return engine.sum_col(counts[tree.root], CNT)


def grouped_counts(
    engine: Engine,
    tree: JoinTree,
    dfs: Mapping[str, object],
    carry: Mapping[str, Sequence[str]],
) -> pd.DataFrame:
    """The counting DP grouped at the root by the carried columns.

    ``carry[rel]`` are columns of ``dfs[rel]`` (e.g. assigned-center ids).
    Returns a pandas frame with all carried columns and ``__cnt`` = number of
    join results having that carried-column combination — i.e. the weights of
    the Rk-means grid coreset, computed with joins + aggregations only.
    """
    root = subtree_counts(engine, tree, dfs, carry)[tree.root]
    keys = _carried(tree, carry, tree.root)
    if not keys:
        root, keys = engine.with_lit(root, "__g", 0), ["__g"]
    return engine.to_pandas(engine.groupby_sum(root, keys, CNT, CNT))


def sample_join(
    engine: Engine,
    tree: JoinTree,
    dfs: Mapping[str, object],
    z: int,
    rng: np.random.Generator,
    attrs: Sequence[str] | None = None,
    counts: Mapping[str, object] | None = None,
    carry: Mapping[str, Sequence[str]] | None = None,
    groups: pd.DataFrame | None = None,
) -> pd.DataFrame:
    """z uniform (with replacement) samples from q(D), never materializing it.

    ``counts`` (default: fresh ``subtree_counts``; ``multiplicities`` works
    too, being proportional to them within each key group) weight the picks.
    The O(N) root frame is collected once and ordered by the root relation's
    declared attributes, not by the engine's column or row order, so the pool
    depends only on ``rng``; descent is one ``engine.weighted_pick`` per tree
    edge.

    With ``carry`` (and ``counts`` from ``subtree_counts`` with that carry),
    sample i is uniform over the join results whose carried columns equal row
    i of the pandas frame ``groups`` (z = len(groups)): the root makes one
    pick per row, and every pick is keyed by the carried columns below it.
    """
    if z <= 0:
        return pd.DataFrame(columns=list(attrs or []))
    carry = carry or {}
    counts = counts or subtree_counts(engine, tree, dfs, carry)
    root = tree.root
    root_attrs = list(tree.relations[root].attrs)
    if carry:
        keys = _carried(tree, carry, root)
        reqs = groups[keys].reset_index(drop=True)
        reqs["__sid"] = np.arange(len(reqs), dtype=np.int64)
        reqs["__u"] = rng.random(len(reqs))
        picked = engine.weighted_pick(counts[root], keys, CNT, reqs, root_attrs)
        cur = reqs.drop(columns="__u").merge(picked, on="__sid")
    else:
        roots = engine.to_pandas(engine.project(counts[root], [*root_attrs, CNT]))
        if len(roots) == 0:
            return pd.DataFrame(columns=list(attrs or []))
        roots = roots.sort_values(root_attrs, kind="mergesort", ignore_index=True)
        w = roots[CNT].to_numpy(dtype=np.float64)
        picked = rng.choice(len(roots), size=z, p=w / w.sum())
        cur = roots.iloc[picked].drop(columns=CNT).reset_index(drop=True)
        cur["__sid"] = np.arange(z, dtype=np.int64)

    def descend(node: str, cur: pd.DataFrame) -> pd.DataFrame:
        for c in tree.children[node]:
            jk = [*tree.join_attrs(c, node), *_carried(tree, carry, c)]
            reqs = cur[[*jk, "__sid"]].copy()
            reqs["__u"] = rng.random(len(reqs))
            new_cols = [x for x in tree.relations[c].attrs if x not in cur.columns]
            picked = engine.weighted_pick(counts[c], jk, CNT, reqs, new_cols)
            cur = cur.merge(picked, on="__sid", how="inner")
            cur = descend(c, cur)
        return cur

    cur = descend(root, cur).sort_values("__sid").reset_index(drop=True)
    keep = list(attrs) if attrs is not None else [c for c in cur.columns if c != "__sid"]
    return cur[keep]


class RelQuery:
    """A query instance: acyclic join tree + engine-native tables.

    All public methods operate on the semi-join-reduced database and never
    materialize q(D) (except :meth:`materialize`, which exists only for the
    two-step baseline and for exact cost evaluation in the harness).
    """

    def __init__(self, engine: Engine, tree: JoinTree, tables: Mapping[str, object]):
        self.engine = engine
        self.tree = tree
        missing = set(tree.relations) - set(tables)
        if missing:
            raise ValueError(f"missing tables for relations {missing}")
        dfs = {name: engine.project(tables[name], list(rel.attrs))
               for name, rel in tree.relations.items()}
        reduced = full_reduce(engine, tree, dfs)
        self.dfs = {n: engine.cache(df) for n, df in reduced.items()}
        self._n: int | None = None
        self._bounds: dict[str, tuple[float, float]] | None = None

    # -- counting ---------------------------------------------------------
    def total_count(self) -> int:
        """|q(D)| (cached)."""
        if self._n is None:
            self._n = total_count(self.engine, self.tree, self.dfs)
        return self._n

    @contextmanager
    def multiplicities(self) -> Iterator[dict[str, object]]:
        """The up–down ``multiplicities`` frames, cached only inside the block."""
        counts = multiplicities(self.engine, self.tree, self.dfs)
        counts = {name: self.engine.cache(df) for name, df in counts.items()}
        try:
            yield counts
        finally:
            for df in counts.values():
                self.engine.unpersist(df)

    def leaf_weights(self, attr: str, counts: Mapping[str, object] | None = None):
        """Weighted 1-D projection H_u of q(D) on ``attr`` (Algorithm 3 leaf).

        Returns an engine frame (attr, weight): weight = multiplicity of the
        value in the multiset projection: a group-by over the up–down
        ``counts`` (default: fresh) of a relation containing ``attr``.
        """
        counts = counts or multiplicities(self.engine, self.tree, self.dfs)
        rel = self.tree.relation_with_attr(attr)
        return self.engine.groupby_sum(counts[rel], [attr], CNT, "weight")

    def feature_bounds(self) -> dict[str, tuple[float, float]]:
        """Exact per-feature min/max of the join multiset (every reduced tuple
        appears in ≥1 result, so per-relation bounds are join bounds)."""
        if self._bounds is None:
            out: dict[str, tuple[float, float]] = {}
            for name, rel in self.tree.relations.items():
                if rel.features:
                    out.update(self.engine.minmax(self.dfs[name], list(rel.features)))
            self._bounds = out
        return self._bounds

    # -- sampling ---------------------------------------------------------
    def sample(self, z: int, rng: np.random.Generator, attrs: Sequence[str] | None = None,
               counts: Mapping[str, object] | None = None) -> pd.DataFrame:
        """z uniform samples of q(D) projected to ``attrs`` (default: features)."""
        attrs = list(attrs) if attrs is not None else list(self.tree.all_features)
        return sample_join(self.engine, self.tree, self.dfs, z, rng, attrs, counts)

    # -- baseline/evaluation only -----------------------------------------
    def materialize(self, attrs: Sequence[str] | None = None):
        """The full join result (multiset), projected to ``attrs``.

        Exists for the two-step baseline and for exact cost evaluation in the
        experiment harness — the paper's algorithms never call this.
        """
        attrs = list(attrs) if attrs is not None else list(self.tree.all_features)
        cur = None
        for u in reversed(self.tree.postorder()):
            df = self.dfs[u]
            if cur is None:
                cur = df
            else:
                jk = self.tree.join_attrs(u, self.tree.parent[u])
                new_cols = [c for c in df.columns if c in jk or c not in cur.columns]
                cur = self.engine.join(cur, self.engine.project(df, new_cols), on=list(jk))
        return self.engine.project(cur, attrs)
