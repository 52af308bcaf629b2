"""DuckDB oracle: join size and exact clustering cost from the pandas tables.

The join is written as SQL over the generated tables, so it shares no code
with the program's join machinery; it is materialized once per run. ``cost``
evaluates Σ over join results of the distance (k-median) or squared distance
(k-means) to the nearest center, taking the nearest one with ``LEAST`` over
one expression per center.

``refined_cost`` is the yardstick for one result: the exact cost of the same
centers after local search (Lloyd steps for k-means, Weiszfeld-Lloyd steps
for k-median) on a fixed hash sample of the join. The ratio of the two says
how far the returned centers sit from the local optimum they are in. Unlike
the cost per join row, which differs by a factor of two between instances
drawn from different seeds, it can be compared across seeds.
"""
from __future__ import annotations

from typing import Mapping, Sequence

import duckdb
import numpy as np
import pandas as pd


class Oracle:
    """The join result, projected to ``features``, materialized once in DuckDB."""

    def __init__(self, tables: Mapping[str, pd.DataFrame], join_sql: str, features: Sequence[str]):
        self.con = duckdb.connect()
        for name, df in tables.items():
            self.con.register(name, df)
        self.features = list(features)
        self.con.execute(f"CREATE TABLE q AS SELECT {', '.join(self.features)} FROM {join_sql}")
        self._sample: np.ndarray | None = None

    def close(self) -> None:
        self.con.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def join_size(self) -> int:
        return int(self.con.execute("SELECT count(*) FROM q").fetchone()[0])

    def cost(self, centers: np.ndarray, objective: str) -> float:
        """Exact objective of ``centers`` over the full join."""
        if objective not in ("median", "means"):
            raise ValueError(f"unknown objective {objective!r}")
        dists = []
        for c in np.atleast_2d(np.asarray(centers, dtype=np.float64)):
            diffs = [f"({f} - ({float(v)!r}))" for f, v in zip(self.features, c, strict=True)]
            sq = " + ".join(f"{d} * {d}" for d in diffs)
            dists.append(f"sqrt({sq})" if objective == "median" else f"({sq})")
        sql = f"SELECT sum(least({', '.join(dists)})) FROM q"
        return float(self.con.execute(sql).fetchone()[0])

    def refined_cost(self, centers: np.ndarray, objective: str) -> float:
        """Exact cost of ``centers`` after local search on the hash sample."""
        if self._sample is None:
            cols = ", ".join(self.features)
            keep_one_in = max(1, self.join_size() // REF_SAMPLE)
            got = self.con.execute(
                f"SELECT {cols} FROM q WHERE hash({cols}) % {keep_one_in} = 0 ORDER BY {cols}"
            ).fetchnumpy()
            self._sample = np.column_stack([got[f] for f in self.features]).astype(np.float64)
        C = np.atleast_2d(np.asarray(centers, dtype=np.float64))
        return self.cost(local_search(self._sample, C, objective), objective)


REF_SAMPLE = 5_000  # join rows the local search runs on


def _nearest(P: np.ndarray, C: np.ndarray) -> np.ndarray:
    return ((P[:, None, :] - C[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)


def _center(M: np.ndarray, objective: str) -> np.ndarray:
    if objective == "means":
        return M.mean(axis=0)
    y = np.median(M, axis=0)
    for _ in range(20):  # Weiszfeld steps towards the geometric median
        w = 1.0 / np.maximum(np.linalg.norm(M - y, axis=1), 1e-12)
        y = (M * w[:, None]).sum(axis=0) / w.sum()
    return y


def local_search(P: np.ndarray, C: np.ndarray, objective: str, iters: int = 50) -> np.ndarray:
    """Alternate nearest-center assignment and per-cluster centers from ``C``."""
    for _ in range(iters):
        a = _nearest(P, C)
        new = np.array([_center(P[a == j], objective) if (a == j).any() else C[j]
                        for j in range(len(C))])
        if np.allclose(new, C, rtol=0.0, atol=1e-12):
            break
        C = new
    return C
