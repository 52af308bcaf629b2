"""The driver-side kernels of a warm call against their one-expression forms.

Each reference below is the kernel as it was written before it moved to
column-wise array work: sums and maxima over a short last axis of an (n, d)
or (n, m, d) array, a 4-key ``lexsort``, and Weiszfeld's per-row sums.
numpy sums a last axis shorter than 8 in order, so for d = 1–7 the rewritten
kernels must give the same bits; Weiszfeld's matrix-vector product sums in
another order, so it gets a tolerance.
"""
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering import cost, lloyd
from repro.geometry import grid
from repro.geometry.boxes import dist_points_boxes
from repro.geometry.grid import GridParams


def ref_snap_points(x, P, params, j_cap):
    dist_inf = np.abs(P - x[None, :]).max(axis=1)
    levels = np.minimum(params.level_of(dist_inf), j_cap)
    anchor = x[None, :] - params.half_extent(levels)[:, None]
    coords = np.floor((P - anchor) / params.cell_side(levels)[:, None]).astype(np.int64)
    return levels, coords


def ref_candidate_cells(x, P, idx, params, j_cap):
    if len(idx) == 0:
        empty = np.zeros(0, np.int64)
        return empty, np.zeros((0, P.shape[1]), np.int64), idx[:0], empty
    levels, coords = ref_snap_points(x, P[idx], params, j_cap)
    keys = np.column_stack([levels, coords])
    order = np.lexsort(keys.T[::-1])
    keys = keys[order]
    starts = np.flatnonzero(np.r_[True, (keys[1:] != keys[:-1]).any(axis=1)])
    return keys[starts, 0], keys[starts, 1:], idx[order], starts


def ref_dist_points_boxes(P, los, his):
    d = np.maximum(np.maximum(los[None, :, :] - P[:, None, :], P[:, None, :] - his[None, :, :]), 0.0)
    return np.sqrt((d**2).sum(axis=2))


def ref_condition3(X, i, los, his):
    dists = ref_dist_points_boxes(X, los, his)
    diams = np.sqrt(((his - los) ** 2).sum(axis=1))
    return dists[i] <= dists.min(axis=0) + diams


def ref_nearest(P, C):
    d2 = ((P[:, None, :] - C[None, :, :]) ** 2).sum(axis=2)
    near = d2.argmin(axis=1)
    return near, np.sqrt(np.take_along_axis(d2, near[:, None], axis=1)[:, 0])


def ref_medoid_costs(Q, wq, objective):
    d = np.sqrt(((Q[:, None, :] - Q[None, :, :]) ** 2).sum(axis=2))
    if objective == "means":
        d = d**2
    return (d * wq[None, :]).sum(axis=1)


def ref_pp_init(P, w, k, rng, power):
    first = rng.choice(len(P), p=w / w.sum())
    centers = [P[first]]
    d = np.sqrt(((P - centers[0]) ** 2).sum(axis=1))
    for _ in range(1, min(k, len(P))):
        prob = w * d**power
        if prob.sum() <= 0:
            break
        nxt = rng.choice(len(P), p=prob / prob.sum())
        centers.append(P[nxt])
        d = np.minimum(d, np.sqrt(((P - P[nxt]) ** 2).sum(axis=1)))
    return np.asarray(centers)


def ref_geometric_median(Q, w, n_iter=50, tol=1e-9):
    x = (Q * w[:, None]).sum(axis=0) / w.sum()
    for _ in range(n_iter):
        d = np.sqrt(((Q - x) ** 2).sum(axis=1))
        if (d < 1e-12).any():
            d = np.maximum(d, 1e-12)
        inv = w / d
        x_new = (Q * inv[:, None]).sum(axis=0) / inv.sum()
        if np.sqrt(((x_new - x) ** 2).sum()) <= tol * (1.0 + np.sqrt((x**2).sum())):
            return x_new
        x = x_new
    return x


def points(seed, n, d, scale=4.0, dup=False):
    g = np.random.default_rng(seed)
    P = g.normal(scale=scale, size=(n, d))
    return P.round(0) if dup else P


DIMS = st.integers(1, 7)


class TestGrid:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        d=DIMS,
        n=st.integers(0, 300),
        phi=st.sampled_from([1e-3, 0.1, 5.0]),
        j_cap=st.integers(0, 12),
    )
    def test_snap_points_same_bits(self, seed, d, n, phi, j_cap):
        """Includes levels capped at ``j_cap`` (small caps, far points)."""
        P = points(seed, n, d)
        x = np.random.default_rng(seed + 1).normal(size=d)
        params = GridParams(phi, 0.5, 3.0, d)
        got = grid.snap_points(x, P, params, j_cap)
        want = ref_snap_points(x, P, params, j_cap)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert got[1].dtype == np.int64

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        d=DIMS,
        n=st.integers(0, 300),
        dup=st.booleans(),
        phi=st.sampled_from([1e-3, 0.1, 5.0]),
        lexsort=st.booleans(),
    )
    def test_candidate_cells_same_order(self, seed, d, n, dup, phi, lexsort):
        """Packed-key and ``lexsort`` paths both give the reference's cells,
        grouping and within-cell order, on a shuffled subset of the points."""
        P = points(seed, n, d, dup=dup)
        idx = np.random.default_rng(seed).permutation(n)[: max(n // 2, 0)]
        params = GridParams(phi, 0.5, 3.0, d)
        want = ref_candidate_cells(np.zeros(d), P, idx, params, 20)
        limit = -1 if lexsort else grid._INT64_MAX  # -1: no key fits
        with mock.patch.object(grid, "_INT64_MAX", limit):
            got = grid.candidate_cells_from_points(np.zeros(d), P, idx, params, 20)
        for g_, w_ in zip(got, want):
            assert g_.dtype == w_.dtype and np.array_equal(g_, w_)

    def test_candidate_cells_key_overflow(self):
        """Coordinates spanning ~2^25 per axis in 3-D overflow the packed
        key, so the cells come from the ``lexsort`` path."""
        P = np.random.default_rng(3).uniform(-1.0, 1.0, size=(2000, 3))
        params = GridParams(1e-7, 0.5, 1.0, 3)
        levels, coords = grid.snap_points(np.zeros(3), P, params, 0)
        spans = [int(c.max()) - int(c.min()) + 1 for c in [levels, *coords.T]]
        assert np.prod(np.array(spans, dtype=object)) > grid._INT64_MAX
        idx = np.arange(len(P))
        got = grid.candidate_cells_from_points(np.zeros(3), P, idx, params, 0)
        want = ref_candidate_cells(np.zeros(3), P, idx, params, 0)
        for g_, w_ in zip(got, want):
            assert np.array_equal(g_, w_)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), d=DIMS, n=st.integers(0, 40), m=st.integers(0, 60))
    def test_dist_points_boxes_same_bits(self, seed, d, n, m):
        g = np.random.default_rng(seed)
        P = g.normal(scale=3.0, size=(n, d))
        los = g.normal(scale=3.0, size=(m, d))
        his = los + g.exponential(size=(m, d))
        got = dist_points_boxes(P, los, his)
        assert got.shape == (n, m)
        assert np.array_equal(got, ref_dist_points_boxes(P, los, his))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), d=DIMS, nx=st.integers(1, 10), m=st.integers(0, 60))
    def test_condition3_same_bits(self, seed, d, nx, m):
        g = np.random.default_rng(seed)
        X = g.normal(scale=3.0, size=(nx, d))
        los = g.normal(scale=3.0, size=(m, d))
        his = los + g.exponential(size=(m, d))
        i = int(g.integers(nx))
        assert np.array_equal(grid.condition3(X, i, los, his), ref_condition3(X, i, los, his))


class TestClustering:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        d=DIMS,
        n=st.integers(0, 300),
        k=st.integers(1, 10),
        dup=st.booleans(),
    )
    def test_nearest_same_bits(self, seed, d, n, k, dup):
        P = points(seed, n, d, dup=dup)
        C = points(seed + 1, k, d, dup=dup)
        got = cost.nearest(P, C)
        want = ref_nearest(P, C)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    def test_nearest_chunks(self, monkeypatch):
        monkeypatch.setattr(cost, "_CHUNK", 7)
        P, C = points(0, 50, 3), points(1, 4, 3)
        got = cost.nearest(P, C)
        want = ref_nearest(P, C)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        d=DIMS,
        m=st.integers(1, 200),
        objective=st.sampled_from(["median", "means"]),
        block=st.sampled_from([1, 37, None]),
        dup=st.booleans(),
    )
    def test_medoid_costs_same_bits(self, seed, d, m, objective, block, dup):
        """One row or 37 elements per block, or the default block."""
        Q = points(seed, m, d, dup=dup)
        wq = np.random.default_rng(seed).integers(1, 9, m).astype(np.float64)
        with mock.patch.object(lloyd, "_BLOCK", block or lloyd._BLOCK):
            got = lloyd._medoid_costs(Q, wq, objective)
        assert np.array_equal(got, ref_medoid_costs(Q, wq, objective))

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        d=DIMS,
        n=st.integers(1, 300),
        k=st.integers(1, 8),
        power=st.sampled_from([1.0, 2.0]),
        dup=st.booleans(),
    )
    def test_pp_init_same_bits(self, seed, d, n, k, power, dup):
        P = points(seed, n, d, dup=dup)
        w = np.random.default_rng(seed).integers(1, 9, n).astype(np.float64)
        got = lloyd.pp_init(P, w, k, np.random.default_rng(seed), power)
        want = ref_pp_init(P, w, k, np.random.default_rng(seed), power)
        assert np.array_equal(got, want)

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        d=DIMS,
        n=st.integers(1, 400),
        dup=st.booleans(),
        scale=st.sampled_from([1e-3, 1.0, 1e4]),
    )
    def test_geometric_median_close(self, seed, d, n, dup, scale):
        """Within 1e-9 of the per-row-sum Weiszfeld, relative to the data's
        scale, and the weighted mean within 1e-12."""
        Q = points(seed, n, d, dup=dup) * scale
        w = np.random.default_rng(seed).integers(1, 9, n).astype(np.float64)
        rel = max(np.abs(Q).max(), 1e-300)
        want_mean = (Q * w[:, None]).sum(axis=0) / w.sum()
        assert np.abs(lloyd._mean(Q, w) - want_mean).max() <= 1e-12 * rel
        got = lloyd.geometric_median(Q, w)
        assert got.shape == (d,)
        assert np.abs(got - ref_geometric_median(Q, w)).max() <= 1e-9 * rel

    def test_geometric_median_at_a_data_point(self):
        """Weiszfeld's 1e-12 floor: a start on a data point stays finite."""
        Q = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        got = lloyd.geometric_median(Q, np.ones(5))
        assert np.isfinite(got).all()
        assert np.allclose(got, ref_geometric_median(Q, np.ones(5)), rtol=0, atol=1e-12)
