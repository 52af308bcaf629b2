"""Shared test fixtures: engines, small query instances, brute-force joins."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from repro.joins.engine import LocalEngine
from repro.joins.join_tree import JoinTree


@pytest.fixture(scope="session")
def local():
    return LocalEngine()


def brute_force_join(tree: JoinTree, tables: dict[str, pd.DataFrame]) -> pd.DataFrame:
    """Ground-truth q(D) via pandas merges (tests only)."""
    cur = None
    for u in reversed(tree.postorder()):
        df = tables[u][list(tree.relations[u].attrs)]
        if cur is None:
            cur = df.copy()
        else:
            jk = list(tree.join_attrs(u, tree.parent[u]))
            new = [c for c in df.columns if c in jk or c not in cur.columns]
            cur = cur.merge(df[new], on=jk, how="inner")
    return cur


def label_box(Q, box: dict[str, tuple[float, float]]):
    """Q's frames (``Q.labelled``) with an interval-id column ``__iv_<attr>``
    per box attribute (-1 below lo, 0 in [lo, hi), 1 from hi up), and the
    carry that makes the counting DP and the sampler split by those ids."""
    labels: dict[str, dict] = {}
    for attr, (lo, hi) in box.items():
        edges = np.array([lo, hi], dtype=np.float64)
        labels.setdefault(Q.tree.relation_with_attr(attr), {})[f"__iv_{attr}"] = (
            lambda t, a=attr, e=edges: np.searchsorted(e, t[a].to_numpy(np.float64), side="right") - 1
        )
    return Q.labelled(labels)


def dp_box_counts(Q, box) -> dict[tuple, int]:
    """{interval ids per box attribute: #join results} from one carried
    counting DP on the driver (Lemma 2.1's CountRect for every cell of the
    box's grid)."""
    from repro.joins.yannakakis import CNT, DRIVER, grouped_counts

    cells = grouped_counts(DRIVER, Q.tree, *label_box(Q, box))
    ids = cells[[f"__iv_{a}" for a in box]].to_numpy(dtype=np.int64)
    return {tuple(int(i) for i in k): int(c) for k, c in zip(ids, cells[CNT])}


def brute_box_counts(joined: pd.DataFrame, box) -> dict[tuple, int]:
    """{interval ids per box attribute: #rows} of a materialized join."""
    ids = pd.DataFrame(
        {a: (joined[a] >= lo).astype(int) + (joined[a] >= hi).astype(int) - 1
         for a, (lo, hi) in box.items()}
    )
    return {
        (k if isinstance(k, tuple) else (k,)): int(v)
        for k, v in ids.groupby(list(box)).size().items()
    }


@pytest.fixture(scope="session")
def chain_small(local):
    """A small clustered chain query on the local engine (session-cached)."""
    from repro.workloads import chain_query

    return chain_query(local, n=300, n_keys=40, seed=5)


@pytest.fixture(scope="session")
def chain_small_join(chain_small):
    """Materialized features of chain_small (evaluation ground truth)."""
    from repro.baselines.full_join import materialized_features

    return materialized_features(chain_small)


@pytest.fixture(scope="session")
def star_small(local):
    from repro.workloads import star_query

    return star_query(local, sf=0.002, seed=0)


def rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)
