"""Yannakakis-style dynamic programs over an acyclic join tree.

The DPs are written against the engine abstraction and never materialize
the join result. Spark reduces; the driver counts: ``RelQuery`` runs the
semi-join reduction on its engine (Spark in production), collects each
reduced relation once (O(N) rows), and runs every counting DP over those
pandas frames on ``DRIVER``, except the Rk-means baseline's carried DP.

- ``full_reduce``: semi-join reduction — keep only non-dangling tuples.
- ``subtree_counts``: the one bottom-up counting DP; node tuple t gets
  ``__cnt`` = number of join results of the subtree below t. At the root this
  yields the per-root-tuple counts c(h) of Algorithm 3 and the total |q(D)|;
  with ``carry`` the counts are also split by carried columns (a group-by
  aggregate over the same tree).
- ``multiplicities``: the up–down ("all marginals") pass — every tuple of
  every relation gets its full-join multiplicity. ``RelQuery`` keeps its
  multiplicities once per query, so every later call reads these pandas
  frames and runs no engine job for them: |q(D)| is the root frame's sum, a
  leaf projection H_u is one group-by of them, and they weight the
  sampler's picks.
- ``grouped_counts``: ``subtree_counts`` with carried columns, grouped by
  them at the root (the Rk-means baseline's grid-cell weights).
- ``sample_join``: uniform sampling of join results with replacement — one
  driver-side weighted pick at the root, then one per-key pick per tree edge
  (Zhao et al. style); with carried columns, each sample is uniform over the
  join results having the requested carried values.

Lemma 2.1's CountRect / SampleRect are these two with carried columns: label
each tuple with the box (or interval) its features fall in
(``RelQuery.labelled``), and the carried DP counts every box at once, while
the carried sampler draws inside any of them (Algorithm 1 in
``core.coreset_slow``, all on the driver).
"""
from __future__ import annotations

from typing import Callable, Mapping, Sequence

import numpy as np
import pandas as pd

from repro.joins.engine import Engine, LocalEngine, PickTable
from repro.joins.join_tree import JoinTree

CNT = "__cnt"
DRIVER = LocalEngine()  # the engine of the DPs over collected frames


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
    counts: Mapping[str, pd.DataFrame],
    z: int,
    rng: np.random.Generator,
    attrs: Sequence[str] | None = None,
    carry: Mapping[str, Sequence[str]] | None = None,
    groups: pd.DataFrame | None = None,
    tables: dict | None = None,
) -> pd.DataFrame:
    """z uniform (with replacement) samples from q(D), never materializing it.

    ``counts`` are the pandas frames of ``subtree_counts`` (or of
    ``multiplicities``, proportional to them within each key group); they
    weight one ``engine.weighted_pick`` at the root and one per tree edge.
    Each pick orders its tuples by their values, not by the engine's column
    or row order, so the pool depends only on ``rng``. ``tables`` keeps the
    sorted :class:`PickTable` of each pick across calls over the same
    ``counts`` (the caller owns it; filled on first use).

    With ``carry`` (and ``counts`` from ``subtree_counts`` with that carry),
    sample i is uniform over the join results whose carried columns equal row
    i of the pandas frame ``groups`` (z = len(groups)): every pick is keyed by
    the carried columns below it. Without, the root pick is one group.
    """
    carry = carry or {}
    tables = {} if tables is None else tables

    def pick(rel: str, key_cols: list[str], reqs: pd.DataFrame, out_cols: list[str]):
        spec = (rel, tuple(key_cols), tuple(out_cols))
        if spec not in tables:
            tables[spec] = PickTable.build(counts[rel], key_cols, CNT, out_cols)
        return engine.weighted_pick(tables[spec], key_cols, CNT, reqs, out_cols)

    def attach(cur: pd.DataFrame, picked: pd.DataFrame) -> pd.DataFrame:
        # A pick answers the requests whose key group exists, in request
        # (= __sid) order, so the answered rows align by position.
        if len(picked) < len(cur):
            cur = cur[np.isin(cur["__sid"].to_numpy(), picked["__sid"].to_numpy())]
        return pd.concat([cur.reset_index(drop=True), picked.drop(columns="__sid")], axis=1)

    root = tree.root
    keys = _carried(tree, carry, root)
    reqs = pd.DataFrame(index=range(z)) if groups is None else groups[keys].reset_index(drop=True)
    reqs["__sid"] = np.arange(len(reqs), dtype=np.int64)
    reqs["__u"] = rng.random(len(reqs))
    cur = attach(reqs.drop(columns="__u"), pick(root, keys, reqs, list(tree.relations[root].attrs)))

    def descend(node: str, cur: pd.DataFrame) -> pd.DataFrame:
        for c in tree.children[node]:
            jk = [*tree.join_attrs(c, node), *_carried(tree, carry, c)]
            reqs = cur[[*jk, "__sid"]].copy()
            reqs["__u"] = rng.random(len(reqs))
            new_cols = [x for x in tree.relations[c].attrs if x not in cur.columns]
            cur = descend(c, attach(cur, pick(c, jk, reqs, new_cols)))
        return cur

    cur = descend(root, cur)
    keep = list(attrs) if attrs is not None else [c for c in cur.columns if c != "__sid"]
    return cur[keep]


class RelQuery:
    """A query instance: acyclic join tree + engine-native tables.

    All public methods operate on the semi-join-reduced database and never
    materialize q(D) (except :meth:`materialize`, which exists only for the
    two-step baseline and for exact cost evaluation in the harness).

    A query is immutable after construction, so what depends only on (q, D)
    is computed on first use and kept: the up–down multiplicities, from one
    collect of each cached reduced relation and one pass on the driver,
    which |q(D)|, every leaf projection, every sample, every label and the
    feature bounds read. :meth:`close` (or leaving a ``with`` block)
    releases the cached reduced frames and the multiplicities.
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
        # Parents first: each child's reduced plan reads its parent's
        # reduced frame, so caching the parent first lets the child's
        # cached plan read that cache instead of recomputing the parent.
        cached = {n: engine.cache(reduced[n]) for n in reversed(tree.postorder())}
        self.dfs = {n: cached[n] for n in tree.relations}
        self._mult: dict[str, pd.DataFrame] | None = None
        self._picks: dict = {}

    def close(self) -> None:
        """Unpersist the reduced frames and drop the kept multiplicities; a
        second call does nothing."""
        for df in self.dfs.values():
            self.engine.unpersist(df)
        self._mult = None
        self._picks = {}

    def __enter__(self) -> "RelQuery":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- counting ---------------------------------------------------------
    def total_count(self) -> int:
        """|q(D)|, the exact int sum of the root's :meth:`multiplicities`."""
        return int(self.multiplicities()[self.tree.root][CNT].sum())

    def multiplicities(self) -> dict[str, pd.DataFrame]:
        """Every relation's up–down ``multiplicities`` frame, computed on
        first use and kept (once per query): each reduced relation is
        collected once and the pass runs on the driver. Callers share these
        frames and must not modify them."""
        if self._mult is None:
            reduced = {n: self.engine.to_pandas(df) for n, df in self.dfs.items()}
            self._mult = multiplicities(DRIVER, self.tree, reduced)
        return self._mult

    def leaf_weights(self, attr: str) -> pd.DataFrame:
        """Weighted 1-D projection H_u of q(D) on ``attr`` (Algorithm 3 leaf).

        Returns a pandas frame (attr, weight) sorted by ``attr``: weight =
        multiplicity of the value in the multiset projection, a group-by of
        the :meth:`multiplicities` frame of a relation containing ``attr``.
        """
        rel = self.tree.relation_with_attr(attr)
        H = self.multiplicities()[rel].groupby(attr, as_index=False, dropna=False)[CNT].sum()
        return H.rename(columns={CNT: "weight"})

    def feature_bounds(self) -> dict[str, tuple[float, float]]:
        """Exact per-feature min/max of the join multiset, read off the
        :meth:`multiplicities` frames (every reduced tuple appears in ≥1
        result, so per-relation bounds are join bounds); NaN for an empty
        join."""
        mult = self.multiplicities()
        return {f: (float(mult[name][f].min()), float(mult[name][f].max()))
                for name, rel in self.tree.relations.items() for f in rel.features}

    def labelled(
        self, labels: Mapping[str, Mapping[str, Callable[[pd.DataFrame], np.ndarray]]]
    ) -> tuple[dict[str, pd.DataFrame], dict[str, list[str]]]:
        """The inputs (pandas frames, carry) of a carried counting DP.

        Every relation's frame holds its reduced tuples (its
        :meth:`multiplicities` frame without ``__cnt``). ``labels[rel][col]``
        maps relation ``rel``'s tuples to one label per tuple, in numpy; the
        relation gains those int64 label columns and carries them. The kept
        frames are not modified.
        """
        dfs = {rel: df.drop(columns=CNT) for rel, df in self.multiplicities().items()}
        for rel, fns in labels.items():
            t = dfs[rel]
            dfs[rel] = t.assign(**{col: np.asarray(fn(t), dtype=np.int64) for col, fn in fns.items()})
        return dfs, {rel: list(fns) for rel, fns in labels.items()}

    # -- sampling ---------------------------------------------------------
    def sample(self, z: int, rng: np.random.Generator,
               attrs: Sequence[str] | None = None) -> pd.DataFrame:
        """z uniform samples of q(D) projected to ``attrs`` (default: features),
        weighted by the :meth:`multiplicities` frames, whose sorted pick
        tables are built on the first call and kept."""
        attrs = list(attrs) if attrs is not None else list(self.tree.all_features)
        return sample_join(self.engine, self.tree, self.multiplicities(), z, rng, attrs,
                           tables=self._picks)

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
