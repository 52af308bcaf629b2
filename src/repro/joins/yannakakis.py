"""Yannakakis-style dynamic programs over an acyclic join tree.

The DPs run on the engine abstraction (Spark DataFrames in production), and
never materialize the join result:

- ``full_reduce``: semi-join reduction — keep only non-dangling tuples.
- ``subtree_counts``: the one bottom-up counting DP; node tuple t gets
  ``__cnt`` = number of join results of the subtree below t. At the root this
  yields the per-root-tuple counts c(h) of Algorithm 3 and the total |q(D)|;
  with ``carry`` the counts are also split by carried columns (a group-by
  aggregate over the same tree).
- ``multiplicities``: the up–down ("all marginals") pass — every tuple of
  every relation gets its full-join multiplicity.
- ``grouped_counts``: ``subtree_counts`` with carried columns, grouped by
  them at the root (the Rk-means baseline's grid-cell weights).
- ``collected``: a DP's per-relation count frames, each collected to the
  driver once (O(N) rows). Everything downstream reads these pandas frames:
  a leaf projection H_u is one group-by of the collected multiplicities.
- ``sample_join``: uniform sampling of join results with replacement — one
  driver-side weighted pick at the root, then one per-key pick per tree edge
  (Zhao et al. style); with carried columns, each sample is uniform over the
  join results having the requested carried values.

Lemma 2.1's CountRect / SampleRect are these two with carried columns: label
each tuple with the box (or interval) its features fall in, and the carried
DP counts every box at once, while the carried sampler draws inside any of
them (Algorithm 1 in ``core.coreset_slow``).
"""
from __future__ import annotations

from typing import Mapping, Sequence

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


def collected(engine: Engine, frames: Mapping[str, object]) -> dict[str, pd.DataFrame]:
    """Every frame collected to pandas once; the frames (which share one
    DP's lineage) are cached for the collects and unpersisted after."""
    frames = {name: engine.cache(df) for name, df in frames.items()}
    try:
        return {name: engine.to_pandas(df) for name, df in frames.items()}
    finally:
        for df in frames.values():
            engine.unpersist(df)


def sample_join(
    engine: Engine,
    tree: JoinTree,
    counts: Mapping[str, pd.DataFrame],
    z: int,
    rng: np.random.Generator,
    attrs: Sequence[str] | None = None,
    carry: Mapping[str, Sequence[str]] | None = None,
    groups: pd.DataFrame | None = None,
) -> pd.DataFrame:
    """z uniform (with replacement) samples from q(D), never materializing it.

    ``counts`` are the ``collected`` frames of ``subtree_counts`` (or of
    ``multiplicities``, proportional to them within each key group); they
    weight one ``engine.weighted_pick`` at the root and one per tree edge.
    Each pick orders its tuples by their values, not by the engine's column
    or row order, so the pool depends only on ``rng``.

    With ``carry`` (and ``counts`` from ``subtree_counts`` with that carry),
    sample i is uniform over the join results whose carried columns equal row
    i of the pandas frame ``groups`` (z = len(groups)): every pick is keyed by
    the carried columns below it. Without, the root pick is one group.
    """
    carry = carry or {}
    root = tree.root
    keys = _carried(tree, carry, root)
    reqs = pd.DataFrame(index=range(z)) if groups is None else groups[keys].reset_index(drop=True)
    reqs["__sid"] = np.arange(len(reqs), dtype=np.int64)
    reqs["__u"] = rng.random(len(reqs))
    picked = engine.weighted_pick(counts[root], keys, CNT, reqs, tree.relations[root].attrs)
    cur = reqs.drop(columns="__u").merge(picked, on="__sid")

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

    def multiplicities(self) -> dict[str, pd.DataFrame]:
        """Every relation's up–down ``multiplicities`` frame, collected once."""
        return collected(self.engine, multiplicities(self.engine, self.tree, self.dfs))

    def leaf_weights(self, attr: str, counts: Mapping[str, pd.DataFrame] | None = None):
        """Weighted 1-D projection H_u of q(D) on ``attr`` (Algorithm 3 leaf).

        Returns a pandas frame (attr, weight) sorted by ``attr``: weight =
        multiplicity of the value in the multiset projection, a group-by of
        the collected up–down ``counts`` (default: :meth:`multiplicities`)
        of a relation containing ``attr``.
        """
        counts = counts or self.multiplicities()
        rel = self.tree.relation_with_attr(attr)
        H = counts[rel].groupby(attr, as_index=False, dropna=False)[CNT].sum()
        return H.rename(columns={CNT: "weight"})

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
               counts: Mapping[str, pd.DataFrame] | None = None) -> pd.DataFrame:
        """z uniform samples of q(D) projected to ``attrs`` (default: features),
        weighted by ``counts`` (default: :meth:`multiplicities`)."""
        attrs = list(attrs) if attrs is not None else list(self.tree.all_features)
        return sample_join(self.engine, self.tree, counts or self.multiplicities(), z, rng, attrs)

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
