"""Engine abstraction: the same relational dynamic programs on Spark or pandas.

Every algorithm in :mod:`repro.joins` is written once against this small
protocol. ``SparkEngine`` is the production path (DataFrame API / Catalyst);
``LocalEngine`` mirrors it on pandas so the DP *logic* can be unit-tested in
milliseconds and cross-checked against the Spark results.
"""
from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np
import pandas as pd


class Engine(ABC):
    """Minimal relational operations needed by the Yannakakis-style DPs."""

    @abstractmethod
    def project(self, df, cols: Sequence[str], distinct: bool = False):
        """SELECT cols [DISTINCT]."""

    @abstractmethod
    def join(self, a, b, on: Sequence[str], how: str = "inner"):
        """Equi-join on shared column names; ``b`` must only add new columns."""

    @abstractmethod
    def semijoin(self, a, b, on: Sequence[str]):
        """Tuples of ``a`` with at least one match in ``b`` (left-semi join)."""

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

    @abstractmethod
    def sum_col(self, df, col: str) -> int:
        """SUM(col) of an integer column as an exact Python int (0 for an
        empty frame)."""

    @abstractmethod
    def cache(self, df):
        """Mark for reuse (no-op on pandas)."""

    @abstractmethod
    def unpersist(self, df) -> None:
        """Drop what :meth:`cache` kept of ``df`` (no-op on pandas)."""

    def weighted_pick(
        self,
        tuples: pd.DataFrame,
        key_cols: Sequence[str],
        weight_col: str,
        requests: pd.DataFrame,
        out_cols: Sequence[str],
    ) -> pd.DataFrame:
        """Per-request weighted sampling within a join-key group.

        ``tuples`` is a collected (pandas) count frame and ``requests`` a
        pandas frame with columns ``key_cols + ['__sid', '__u']`` (``__u``
        uniform in [0,1)). For each request, among the tuples whose key
        columns match (all of them if ``key_cols`` is empty), pick one tuple
        with probability proportional to ``weight_col`` using ``__u``
        (inverse-CDF). Returns pandas ``['__sid'] + out_cols``. This is the
        top-down step of uniform sampling over join results (Zhao et al.
        style).

        The pick runs on the driver, the same on both engines. Sorting on
        every used column makes key groups contiguous and the picks
        independent of row order; one global cumsum serves every group.
        """
        key_cols, out_cols = list(key_cols), list(out_cols)
        if len(requests) == 0 or len(tuples) == 0:
            return pd.DataFrame(columns=["__sid", *out_cols])
        if not key_cols:  # one group
            key_cols, tuples, requests = ["__one"], tuples.assign(__one=0), requests.assign(__one=0)
        cols = list(dict.fromkeys([*key_cols, *out_cols, weight_col]))
        t = tuples[cols].sort_values(cols, kind="mergesort", ignore_index=True)
        starts = np.flatnonzero(np.diff(t.groupby(key_cols, sort=False).ngroup(), prepend=-1))
        ends = np.append(starts[1:], len(t))
        cum = np.cumsum(t[weight_col].to_numpy())
        groups = t.loc[starts, key_cols].assign(__g=np.arange(len(starts)))
        reqs = requests[[*key_cols, "__sid", "__u"]].merge(groups, on=key_cols, how="inner")
        g = reqs["__g"].to_numpy()
        lo = np.where(starts > 0, cum[starts - 1], 0)[g]
        target = lo + reqs["__u"].to_numpy(dtype=np.float64) * (cum[ends - 1][g] - lo)
        idx = np.clip(np.searchsorted(cum, target, side="right"), starts[g], ends[g] - 1)
        out = t.loc[idx, out_cols].reset_index(drop=True)
        out.insert(0, "__sid", reqs["__sid"].to_numpy())
        return out


class LocalEngine(Engine):
    """pandas implementation — for fast unit tests and Spark cross-checks."""

    def project(self, df, cols, distinct=False):
        out = df[list(cols)]
        return out.drop_duplicates().reset_index(drop=True) if distinct else out.copy()

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

    def sum_col(self, df, col):
        return int(df[col].sum()) if len(df) else 0

    def cache(self, df):
        return df

    def unpersist(self, df):
        pass


class SparkEngine(Engine):
    """PySpark DataFrame implementation (the production path)."""

    def __init__(self, spark):
        self.spark = spark

    def project(self, df, cols, distinct=False):
        out = df.select(*cols)
        return out.distinct() if distinct else out

    def join(self, a, b, on, how="inner"):
        return a.join(b, on=list(on), how=how)

    def semijoin(self, a, b, on):
        return a.join(b.select(*on).distinct(), on=list(on), how="left_semi")

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

    def from_pandas(self, pdf):
        return self.spark.createDataFrame(pdf)

    def sum_col(self, df, col):
        from pyspark.sql import functions as F

        row = df.agg(F.sum(col).alias("s")).collect()[0]
        return int(row["s"]) if row["s"] is not None else 0

    def cache(self, df):
        return df.cache()

    def unpersist(self, df):
        df.unpersist()
