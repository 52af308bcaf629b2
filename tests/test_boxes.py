"""Geometry substrate: boxes and point–box distances."""
import numpy as np
import pytest

from repro.geometry.boxes import Box, dist_point_box, dist_points_boxes


class TestBoxBasics:
    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Box((0.0,), (1.0, 2.0))

    def test_diam_unit_square(self):
        assert Box((0, 0), (1, 1)).diam == pytest.approx(np.sqrt(2))

    def test_diam_3d(self):
        assert Box((0, 0, 0), (1, 2, 2)).diam == pytest.approx(3.0)


class TestDistances:
    def test_inside_is_zero(self):
        assert dist_point_box((0.5, 0.5), Box((0, 0), (1, 1))) == 0.0

    def test_face_distance(self):
        assert dist_point_box((2.0, 0.5), Box((0, 0), (1, 1))) == pytest.approx(1.0)

    def test_corner_distance(self):
        assert dist_point_box((2.0, 2.0), Box((0, 0), (1, 1))) == pytest.approx(np.sqrt(2))

    @pytest.mark.parametrize("seed", range(5))
    def test_vectorized_matches_scalar(self, seed):
        g = np.random.default_rng(seed)
        P = g.normal(size=(20, 3))
        los = g.normal(size=(7, 3))
        his = los + g.random((7, 3)) + 0.01
        D = dist_points_boxes(P, los, his)
        for i in range(20):
            for j in range(7):
                expect = dist_point_box(P[i], Box(tuple(los[j]), tuple(his[j])))
                assert D[i, j] == pytest.approx(expect)
