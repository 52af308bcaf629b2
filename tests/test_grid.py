"""Exponential grids (Section 3): levels, snapping, enumeration, condition (3)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.boxes import Box, dist_point_box
from repro.geometry.grid import (
    GridParams,
    candidate_cells_from_points,
    cell_corners,
    condition3,
    enumerate_cells,
    snap_points,
)


def params(phi=0.1, eps=0.5, alpha=3.0, d=2, c_g=2.0):
    return GridParams(phi=phi, eps_prime=eps, alpha=alpha, d=d, c_g=c_g)


def members_of(order, starts):
    """Per-cell member arrays from ``candidate_cells_from_points``' runs."""
    return np.split(order, starts[1:]) if len(starts) else []


class TestGridParams:
    def test_cell_side_doubles_per_level(self):
        p = params()
        assert p.cell_side(3) == pytest.approx(2 * p.cell_side(2))

    def test_cell_side_formula(self):
        p = params(phi=0.2, eps=0.4, alpha=2.0, d=4, c_g=10.0)
        # side = eps' 2^j Φ / (c_g α √d): diam(cell) = side·√d = eps'2^jΦ/(c_g α)
        assert p.cell_side(0) == pytest.approx(0.4 * 0.2 / (10 * 2 * 2))

    def test_half_extent(self):
        p = params(phi=0.5)
        assert p.half_extent(0) == pytest.approx(0.25)
        assert p.half_extent(4) == pytest.approx(0.5 * 16 / 2)

    def test_max_level_scales_log_n(self):
        p = params(alpha=2.0)
        assert p.max_level(1000) >= 2 * np.log2(1000)
        assert p.max_level(10) < p.max_level(10_000)

    def test_level_of_zero_distance(self):
        p = params(phi=1.0)
        assert p.level_of(np.array([0.0]))[0] == 0

    def test_level_of_monotone(self):
        p = params(phi=1.0)
        d = np.array([0.1, 0.4, 0.5, 0.9, 1.0, 3.0, 100.0])
        lv = p.level_of(d)
        assert (np.diff(lv) >= 0).all()

    def test_level_contains_point(self):
        """A point at L∞ distance dist lands in annulus j with half_extent(j) ≥ dist."""
        p = params(phi=0.3)
        for dist in [0.0, 0.01, 0.2, 1.7, 9.3]:
            j = int(p.level_of(np.array([dist]))[0])
            assert p.half_extent(j) >= dist - 1e-12
            if j > 0:
                assert p.half_extent(j - 1) < dist + 1e-12


class TestSnapping:
    @pytest.mark.parametrize("seed", range(5))
    def test_snapped_cell_contains_point(self, seed):
        g = np.random.default_rng(seed)
        p = params(phi=0.05, d=3)
        x = g.normal(size=3)
        P = x + g.normal(scale=2.0, size=(50, 3))
        levels, coords = snap_points(x, P, p, j_cap=40)
        los, his = cell_corners(x, levels, coords, p)
        inside = ((los <= P) & (P < his)).all(axis=1)  # half-open membership
        assert inside.all(), P[~inside]

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10_000), d=st.integers(1, 3), phi=st.sampled_from([1e-4, 0.05, 3.0]))
    def test_matches_per_level_loop(self, seed, d, phi):
        """One vectorized snap equals snapping level by level with scalar
        sides and anchors, bit for bit."""
        g = np.random.default_rng(seed)
        p = params(phi=phi, d=d)
        x = g.normal(size=d)
        P = x + g.normal(scale=2.0, size=(200, d)) * g.random((200, 1)) ** 4
        levels, coords = snap_points(x, P, p, j_cap=12)
        want = np.empty_like(coords)
        for j in np.unique(levels):
            m = levels == j
            anchor = x - p.half_extent(int(j))
            want[m] = np.floor((P[m] - anchor[None, :]) / p.cell_side(int(j))).astype(np.int64)
        assert np.array_equal(coords, want)

    def test_j_cap_respected(self):
        p = params(phi=1e-6)
        x = np.zeros(2)
        P = np.array([[1000.0, 1000.0]])
        levels, _ = snap_points(x, P, p, j_cap=5)
        assert levels[0] == 5

    def test_candidate_cells_partition_points(self):
        g = np.random.default_rng(7)
        p = params(phi=0.05, d=2)
        x = np.zeros(2)
        P = g.normal(size=(200, 2))
        idx = np.arange(len(P))
        _, _, order, starts = candidate_cells_from_points(x, P, idx, p, j_cap=40)
        seen = np.concatenate(members_of(order, starts))
        assert sorted(seen.tolist()) == idx.tolist()  # every point in exactly one cell

    def test_candidate_cells_sorted_by_level(self):
        g = np.random.default_rng(8)
        p = params(phi=0.05, d=2)
        levels, _, _, _ = candidate_cells_from_points(
            np.zeros(2), g.normal(size=(100, 2)), np.arange(100), p, j_cap=40
        )
        assert levels.tolist() == sorted(levels.tolist())

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(3))
    def test_candidate_cells_match_dict_grouping(self, d, seed):
        """Same cells, order and member arrays as grouping points in a dict."""
        g = np.random.default_rng(seed)
        p = params(phi=0.05, d=d)
        x = g.normal(size=d)
        P = g.normal(size=(300, d))
        idx = g.permutation(len(P))[:200]
        levels, coords = snap_points(x, P[idx], p, j_cap=6)
        groups: dict[tuple, list[int]] = {}
        for i, j, cc in zip(idx, levels, coords):
            groups.setdefault((int(j), tuple(int(c) for c in cc)), []).append(int(i))
        expect = [(j, cc, groups[(j, cc)]) for j, cc in sorted(groups)]
        levels, coords, order, starts = candidate_cells_from_points(x, P, idx, p, j_cap=6)
        members = members_of(order, starts)
        got = [
            (int(j), tuple(cc.tolist()), m.tolist())
            for j, cc, m in zip(levels, coords, members)
        ]
        assert got == expect
        assert coords.shape == (len(members), d)
        assert all(m.dtype == idx.dtype for m in members)

    def test_empty_index(self):
        levels, coords, order, starts = candidate_cells_from_points(
            np.zeros(2), np.zeros((0, 2)), np.arange(0), params(), 10
        )
        assert levels.shape == (0,) and coords.shape == (0, 2) and members_of(order, starts) == []
        assert order.shape == (0,) and starts.shape == (0,)


class TestEnumeration:
    def test_enumerated_cells_cover_snapped(self):
        """Every snapped (point-bearing) cell appears in the enumeration."""
        g = np.random.default_rng(3)
        p = params(phi=0.2, d=2, c_g=0.5)
        x = np.array([0.3, 0.3])
        P = g.random((100, 2))
        bbox = Box((0.0, 0.0), (1.0, 1.0))
        levels, coords = snap_points(x, P, p, j_cap=p.max_level(100))
        for j in np.unique(levels):
            los, his = enumerate_cells(x, int(j), p, bbox)
            for i in np.flatnonzero(levels == j):
                assert ((los <= P[i]) & (P[i] < his)).all(axis=1).any()

    def test_hole_cells_skipped(self):
        p = params(phi=1.0, d=2, c_g=2.0)
        x = np.zeros(2)
        big = Box((-100.0, -100.0), (100.0, 100.0))
        los, his = enumerate_cells(x, 4, p, big)
        h_prev = p.half_extent(3)
        assert len(los) > 0
        for lo, hi in zip(los, his):
            inside_hole = all(
                lo[i] >= -h_prev and hi[i] <= h_prev for i in range(2)
            )
            assert not inside_hole

    def test_bbox_clipping(self):
        p = params(phi=1.0, d=2)
        los_all, _ = enumerate_cells(np.zeros(2), 2, p, Box((-10, -10), (10, 10)))
        # Clip box overlapping the annulus (not its hole Q_{i,1}).
        los_clip, _ = enumerate_cells(np.zeros(2), 2, p, Box((1.2, 1.2), (1.8, 1.8)))
        assert 0 < len(los_clip) < len(los_all)

    def test_max_cells_guard(self):
        p = params(phi=1.0, d=2, eps=0.01)
        with pytest.raises(RuntimeError):
            enumerate_cells(np.zeros(2), 8, p, Box((-99, -99), (99, 99)), max_cells=10)

    def test_empty_when_bbox_misses_the_level(self):
        los, his = enumerate_cells(np.zeros(2), 0, params(phi=1.0), Box((5, 5), (6, 6)))
        assert los.shape == his.shape == (0, 2)


def cell_box_scalar(x, j: int, coords: tuple[int, ...], p: GridParams) -> Box:
    """Reference: the box of one grid cell, built one coordinate tuple at a time."""
    side = p.cell_side(j)
    anchor = np.asarray(x, dtype=float) - p.half_extent(j)
    lo = anchor + np.asarray(coords, dtype=float) * side
    return Box(tuple(lo), tuple(lo + side))


def enumerate_cells_scalar(x, j: int, p: GridParams, bbox: Box) -> list[Box]:
    """Reference: the cells of V_{x,j} meeting ``bbox``, one flat index at a
    time (first coordinate fastest), with per-cell hole and bbox tests."""
    side = p.cell_side(j)
    h = p.half_extent(j)
    anchor = np.asarray(x, dtype=float) - h
    lo_idx = np.floor((np.maximum(np.asarray(bbox.lo), anchor) - anchor) / side).astype(int)
    hi_idx = np.ceil((np.minimum(np.asarray(bbox.hi), anchor + 2 * h) - anchor) / side).astype(int)
    hi_idx = np.minimum(hi_idx, int(np.ceil(2 * h / side)))
    lo_idx = np.maximum(lo_idx, 0)
    if np.any(hi_idx <= lo_idx):
        return []
    counts = hi_idx - lo_idx
    h_prev = p.half_extent(j - 1) if j >= 1 else None
    cells = []
    for flat in range(int(np.prod(counts))):
        coords, rem = [], flat
        for c in counts:
            coords.append(rem % int(c))
            rem //= int(c)
        b = cell_box_scalar(x, j, tuple(int(lo_idx[i] + coords[i]) for i in range(len(counts))), p)
        if h_prev is not None and all(
            b.lo[i] >= x[i] - h_prev and b.hi[i] <= x[i] + h_prev for i in range(len(x))
        ):
            continue
        if all(max(b.lo[i], bbox.lo[i]) < min(b.hi[i], bbox.hi[i]) for i in range(len(x))):
            cells.append(b)
    return cells


class TestVectorizedCells:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_enumerate_cells_matches_scalar_reference(self, data):
        d = data.draw(st.integers(1, 3), label="d")
        p = params(
            phi=data.draw(st.sampled_from([0.05, 0.3, 1.0]), label="phi"),
            eps=data.draw(st.sampled_from([0.3, 0.8]), label="eps"),
            d=d,
            c_g=data.draw(st.sampled_from([0.3, 0.5, 2.0]), label="c_g"),
        )
        coord = st.floats(-3.0, 3.0)
        x = np.array(data.draw(st.lists(coord, min_size=d, max_size=d), label="x"))
        lo = np.array(data.draw(st.lists(coord, min_size=d, max_size=d), label="lo"))
        ext = np.array(data.draw(st.lists(st.floats(0.01, 4.0), min_size=d, max_size=d)))
        bbox = Box(tuple(lo), tuple(lo + ext))
        j = data.draw(st.integers(0, 5), label="j")
        expect = enumerate_cells_scalar(x, j, p, bbox)
        los, his = enumerate_cells(x, j, p, bbox, max_cells=10**7)
        assert np.array_equal(los, np.reshape([b.lo for b in expect], (-1, d)))
        assert np.array_equal(his, np.reshape([b.hi for b in expect], (-1, d)))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_cell_corners_match_scalar_reference(self, data):
        d = data.draw(st.integers(1, 4), label="d")
        m = data.draw(st.integers(0, 6), label="m")
        p = params(phi=data.draw(st.sampled_from([1e-3, 0.1, 7.0])), d=d)
        x = np.array(data.draw(st.lists(st.floats(-50.0, 50.0), min_size=d, max_size=d)))
        levels = np.array(data.draw(st.lists(st.integers(0, 40), min_size=m, max_size=m)), int)
        coords = np.array(
            data.draw(
                st.lists(st.lists(st.integers(-5, 10**4), min_size=d, max_size=d), min_size=m, max_size=m)
            ),
            int,
        ).reshape(m, d)
        los, his = cell_corners(x, levels, coords, p)
        expect = [cell_box_scalar(x, int(j), tuple(c), p) for j, c in zip(levels, coords)]
        assert np.array_equal(los, np.reshape([b.lo for b in expect], (-1, d)))
        assert np.array_equal(his, np.reshape([b.hi for b in expect], (-1, d)))


def corners(*boxes: Box) -> tuple[np.ndarray, np.ndarray]:
    """The (m, d) lo/hi arrays that ``condition3`` takes."""
    return np.array([b.lo for b in boxes]), np.array([b.hi for b in boxes])


def condition3_scalar(box: Box, i: int, centers: np.ndarray) -> bool:
    """Reference: condition (3) for one cell, one point-box distance at a time."""
    dmin = min(dist_point_box(c, box) for c in centers)
    return dist_point_box(centers[i], box) <= dmin + box.diam


class TestCondition3:
    def test_own_nearest_center_passes(self):
        # The cell right next to x_i passes: φ(x_i,□) = 0 ≤ anything.
        centers = np.array([[0.0, 0.0], [10.0, 10.0]])
        b = Box((0.0, 0.0), (0.1, 0.1))
        assert condition3(centers, 0, *corners(b)).tolist() == [True]

    def test_far_center_with_near_rival_fails(self):
        centers = np.array([[100.0, 100.0], [0.0, 0.0]])
        b = Box((0.0, 0.0), (0.1, 0.1))
        assert condition3(centers, 0, *corners(b)).tolist() == [False]

    def test_borderline_diam_slack(self):
        # φ(x_0,□)=1, φ(x_1,□)=0, diam=√2·2 > 1 → passes thanks to the slack.
        centers = np.array([[3.0, 0.0], [0.0, 0.0]])
        b = Box((0.0, 0.0), (2.0, 2.0))
        assert condition3(centers, 0, *corners(b)).tolist() == [True]
        assert dist_point_box(centers[0], b) == pytest.approx(1.0)

    def test_equality_passes(self):
        # φ(x_0,□) = 1 = φ(x_1,□) + diam(□): the condition is ≤, not <.
        centers = np.array([[2.0], [0.5]])
        assert condition3(centers, 0, *corners(Box((0.0,), (1.0,)))).tolist() == [True]

    def test_one_entry_per_cell(self):
        centers = np.array([[0.0, 0.0], [10.0, 10.0]])
        cells = [Box((0.0, 0.0), (0.1, 0.1)), Box((10.0, 10.0), (10.1, 10.1))]
        assert condition3(centers, 0, *corners(*cells)).tolist() == [True, False]
        assert condition3(centers, 1, *corners(*cells)).tolist() == [False, True]

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_scalar_reference(self, data):
        d = data.draw(st.integers(1, 4), label="d")
        m = data.draw(st.integers(1, 5), label="centers")
        scale = data.draw(st.sampled_from([1e-3, 1.0, 1e3]), label="scale")
        # Integer-valued coordinates make the ≤ boundary reachable.
        coord = st.one_of(st.floats(-10.0, 10.0), st.integers(-10, 10).map(float))
        point = st.lists(coord, min_size=d, max_size=d)
        side = st.lists(
            st.one_of(st.floats(1e-3, 5.0), st.integers(1, 5).map(float)), min_size=d, max_size=d
        )
        X = np.array(data.draw(st.lists(point, min_size=m, max_size=m), label="X")) * scale
        cells = [
            Box(tuple(np.array(lo) * scale), tuple((np.array(lo) + s) * scale))
            for lo, s in data.draw(st.lists(st.tuples(point, side), min_size=1, max_size=6))
        ]
        i = data.draw(st.integers(0, m - 1), label="i")
        got = condition3(X, i, *corners(*cells)).tolist()
        assert got == [condition3_scalar(b, i, X) for b in cells]
