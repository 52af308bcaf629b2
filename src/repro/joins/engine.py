"""Engine abstraction: the same relational dynamic programs on Spark or pandas.

Every algorithm in :mod:`repro.joins` is written once against this small
protocol. ``SparkEngine`` is the production path (DataFrame API / Catalyst)
for the work that is input- or join-sized: projection, the semi-join
reduction, GHD bags, ``RelQuery.materialize`` and the Rk-means baseline's
carried DP. ``LocalEngine`` runs the same operations on pandas: the driver
runs every other counting DP on it, over a query's collected reduced
relations, and tests use it for in-memory queries.
"""
from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import pandas as pd


class Engine(ABC):
    """Minimal relational operations needed by the Yannakakis-style DPs."""

    @abstractmethod
    def project(self, df, cols: Sequence[str]):
        """SELECT cols (a multiset: duplicate rows stay)."""

    @abstractmethod
    def join(self, a, b, on: Sequence[str], how: str = "inner"):
        """Equi-join on shared column names; ``b`` must only add new columns."""

    @abstractmethod
    def semijoin(self, a, b, on: Sequence[str]):
        """Tuples of ``a`` with at least one match in ``b`` (left-semi join):
        each kept as often as it occurs in ``a``, however many matches it
        has in ``b``."""

    @abstractmethod
    def groupby_sum(self, df, keys: Sequence[str], col: str, out: str):
        """SELECT keys, SUM(col) AS out GROUP BY keys."""

    @abstractmethod
    def with_lit(self, df, col: str, value):
        """Add a constant column."""

    @abstractmethod
    def multiply_into(self, df, target: str, factor: str, divisor: str | None = None):
        """target := target * factor, or target * (factor div divisor) — an
        exact integer division — dropping ``factor`` and ``divisor``."""

    @abstractmethod
    def to_pandas(self, df) -> pd.DataFrame:
        """Collect to pandas (only for small/bounded results)."""

    @abstractmethod
    def from_pandas(self, pdf: pd.DataFrame):
        """Create an engine-native frame from pandas."""

    def to_pandas_all(self, builds: Sequence[Callable[[], object]]) -> list[pd.DataFrame]:
        """:meth:`to_pandas` of the frame each of ``builds`` returns. No
        build reads another's frame, so an engine may run the builds and
        collects at the same time."""
        return [self.to_pandas(build()) for build in builds]

    def weighted_pick(
        self,
        tuples: "pd.DataFrame | PickTable",
        key_cols: Sequence[str],
        weight_col: str,
        requests: pd.DataFrame,
        out_cols: Sequence[str],
    ) -> pd.DataFrame:
        """Per-request weighted sampling within a join-key group.

        ``tuples`` is a collected (pandas) count frame, or the
        :class:`PickTable` built from it for the same columns, and
        ``requests`` a pandas frame with columns ``key_cols + ['__sid',
        '__u']`` (``__u`` uniform in [0,1)). For each request, among the
        tuples whose key columns match (all of them if ``key_cols`` is
        empty), pick one tuple with probability proportional to
        ``weight_col`` using ``__u`` (inverse-CDF). Returns pandas
        ``['__sid'] + out_cols``, one row per request whose key group exists,
        in request order. This is the top-down step of uniform sampling over
        join results (Zhao et al. style).

        The pick runs on the driver, the same on both engines.
        """
        if not isinstance(tuples, PickTable):
            tuples = PickTable.build(tuples, key_cols, weight_col, out_cols)
        return tuples.pick(requests)


@dataclass(frozen=True)
class PickTable:
    """A count frame sorted for :meth:`Engine.weighted_pick`.

    The tuples are sorted on every used column, which makes key groups
    contiguous and the picks independent of row order; one global cumsum of
    the weights serves every group. The table depends only on the frame and
    the columns, so a caller that picks from the same frame repeatedly
    builds it once (``RelQuery`` does, per relation and query).
    """

    key_cols: list[str]
    groups: pd.Index | None  # the key of each group, for the request lookup
    starts: np.ndarray  # first sorted row of each group
    ends: np.ndarray  # one past its last row
    lo: np.ndarray  # cumulative weight before each group
    hi: np.ndarray  # cumulative weight up to the group's end
    cum: np.ndarray  # cumulative weight per sorted row
    out: pd.DataFrame  # the sorted out columns

    @classmethod
    def build(
        cls, tuples: pd.DataFrame, key_cols: Sequence[str], weight_col: str,
        out_cols: Sequence[str],
    ) -> "PickTable":
        key_cols, out_cols = list(key_cols), list(out_cols)
        cols = list(dict.fromkeys([*key_cols, *out_cols, weight_col]))
        t = tuples[cols].sort_values(cols, kind="mergesort", ignore_index=True)
        if key_cols:
            starts = np.flatnonzero(~t.duplicated(key_cols).to_numpy())  # groups are runs
        else:
            starts = np.zeros(min(len(t), 1), dtype=np.int64)
        keys = t.loc[starts, key_cols]
        groups = (None if not key_cols else pd.Index(keys.iloc[:, 0]) if len(key_cols) == 1
                  else pd.MultiIndex.from_frame(keys))
        ends = np.r_[starts[1:], len(t)][: len(starts)]
        cum = np.cumsum(t[weight_col].to_numpy())
        return cls(
            key_cols, groups, starts, ends, np.where(starts > 0, cum[starts - 1], 0),
            cum[ends - 1], cum, t[out_cols],
        )

    def pick(self, requests: pd.DataFrame) -> pd.DataFrame:
        """:meth:`Engine.weighted_pick` of ``requests`` from this table."""
        if len(requests) == 0 or len(self.cum) == 0:
            return pd.DataFrame(columns=["__sid", *self.out.columns])
        if self.groups is None:
            g = np.zeros(len(requests), dtype=np.int64)
        elif len(self.key_cols) == 1:
            g = self.groups.get_indexer(requests[self.key_cols[0]])
        else:
            g = self.groups.get_indexer(pd.MultiIndex.from_frame(requests[self.key_cols]))
        found = g >= 0
        g = g[found]
        u = requests["__u"].to_numpy(dtype=np.float64)[found]
        target = self.lo[g] + u * (self.hi[g] - self.lo[g])
        idx = np.clip(np.searchsorted(self.cum, target, side="right"), self.starts[g], self.ends[g] - 1)
        out = self.out.iloc[idx].reset_index(drop=True)
        out.insert(0, "__sid", requests["__sid"].to_numpy()[found])
        return out


class LocalEngine(Engine):
    """pandas implementation — the driver's DPs and in-memory queries."""

    def project(self, df, cols):
        return df[list(cols)].copy()

    def join(self, a, b, on, how="inner"):
        return a.merge(b, on=list(on), how=how)

    def semijoin(self, a, b, on):
        keys = b[list(on)].drop_duplicates()
        return a.merge(keys, on=list(on), how="inner").reset_index(drop=True)

    def groupby_sum(self, df, keys, col, out):
        if len(df) == 0:
            return pd.DataFrame(columns=[*keys, out])
        g = df.groupby(list(keys), as_index=False)[col].sum()
        return g.rename(columns={col: out})

    def with_lit(self, df, col, value):
        out = df.copy()
        out[col] = value
        return out

    def multiply_into(self, df, target, factor, divisor=None):
        out = df.copy()
        f = out[factor] if divisor is None else out[factor] // out[divisor]
        out[target] = out[target] * f
        return out.drop(columns=[c for c in (factor, divisor) if c])

    def to_pandas(self, df):
        return df.reset_index(drop=True)

    def from_pandas(self, pdf):
        return pdf.copy()


class SparkEngine(Engine):
    """PySpark DataFrame implementation (the production path)."""

    def __init__(self, spark):
        self.spark = spark

    def project(self, df, cols):
        return df.select(*cols)

    def join(self, a, b, on, how="inner"):
        return a.join(b, on=list(on), how=how)

    def semijoin(self, a, b, on):
        """A broadcast left-semi join on ``b``'s key projection: ``a`` is
        not shuffled, and a left-semi hash join never repeats a row of
        ``a``, so the keys need no ``distinct()``. The broadcast holds at
        most ``b``'s key columns: O(N) rows for an acyclic query, a bag's
        for a GHD, the order of the reduced relations the driver collects
        anyway."""
        from pyspark.sql import functions as F

        return a.join(F.broadcast(b.select(*on)), on=list(on), how="left_semi")

    def groupby_sum(self, df, keys, col, out):
        from pyspark.sql import functions as F

        return df.groupBy(*keys).agg(F.sum(col).alias(out))

    def with_lit(self, df, col, value):
        from pyspark.sql import functions as F

        return df.withColumn(col, F.lit(value))

    def multiply_into(self, df, target, factor, divisor=None):
        from pyspark.sql import functions as F

        f = F.col(factor) if divisor is None else F.expr(f"`{factor}` div `{divisor}`")
        return df.withColumn(target, F.col(target) * f).drop(*[c for c in (factor, divisor) if c])

    def to_pandas(self, df):
        return df.toPandas()

    def to_pandas_all(self, builds):
        """Builds and collects the frames concurrently, one thread per
        frame: planning waits on the JVM, which releases the GIL. Each
        thread runs under ``inheritable_thread_target``, so its jobs carry
        the caller's local properties (its job group among them), and calls
        ``DataFrame.toPandas`` itself, not :meth:`to_pandas`, so a wrapper
        of :meth:`to_pandas` (perfbench's tracer keeps one span stack)
        never runs in two threads at once."""
        from concurrent.futures import ThreadPoolExecutor

        from pyspark import inheritable_thread_target

        collect = inheritable_thread_target(self.spark)(lambda build: build().toPandas())
        with ThreadPoolExecutor(max_workers=len(builds)) as pool:
            return list(pool.map(collect, builds))

    def from_pandas(self, pdf):
        """The schema comes from the frame's dtypes (as Arrow maps them, the
        way Spark infers it from a non-empty frame), so an empty frame with
        typed columns lifts too."""
        import pyarrow as pa
        from pyspark.sql.pandas.types import from_arrow_schema

        schema = from_arrow_schema(pa.Schema.from_pandas(pdf, preserve_index=False))
        return self.spark.createDataFrame(pdf, schema)
