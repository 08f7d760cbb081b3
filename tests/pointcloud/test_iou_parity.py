"""Batched rotated-box geometry ≡ the scalar oracle.

``repro.pointcloud.boxes`` computes every IoU through one batched
clipping kernel; ``scalar_oracle`` is the one-pair-at-a-time code it
replaced.  Same inputs, same branches, so the results agree to the last
few ulps (the shoelace sums in a different order).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pointcloud import (bev_intersection_area, clip_polygon, iou_3d,
                              iou_bev, iou_matrix_3d, iou_matrix_bev,
                              iou_pairs_bev, polygon_area)

from . import scalar_oracle as oracle

TOL = 1e-12

# A tight field so most pairs overlap and actually reach the clipper.
_coord = st.floats(-4.0, 4.0)
_size = st.floats(0.2, 6.0)
_angle = st.floats(-np.pi, np.pi)


@st.composite
def _box(draw, dtype=np.float64):
    return np.array([draw(_coord), draw(_coord), draw(st.floats(-1.0, 2.0)),
                     draw(_size), draw(_size), draw(_size), draw(_angle)],
                    dtype=dtype)


def _batch(rng, count, dtype=np.float64, spread=5.0):
    boxes = np.zeros((count, 7), dtype=dtype)
    boxes[:, 0] = rng.uniform(-spread, spread, count)
    boxes[:, 1] = rng.uniform(-spread, spread, count)
    boxes[:, 2] = rng.uniform(-1, 2, count)
    boxes[:, 3:6] = rng.uniform(0.5, 5, (count, 3))
    boxes[:, 6] = rng.uniform(-np.pi, np.pi, count)
    return boxes


class TestScalarParity:
    @given(_box(), _box())
    @settings(max_examples=150, deadline=None)
    def test_iou_bev(self, a, b):
        assert iou_bev(a, b) == pytest.approx(oracle.iou_bev(a, b), abs=TOL)

    @given(_box(np.float32), _box(np.float32))
    @settings(max_examples=100, deadline=None)
    def test_iou_bev_float32_boxes(self, a, b):
        assert iou_bev(a, b) == pytest.approx(oracle.iou_bev(a, b), abs=TOL)

    @given(_box(), _box())
    @settings(max_examples=100, deadline=None)
    def test_iou_3d(self, a, b):
        assert iou_3d(a, b) == pytest.approx(oracle.iou_3d(a, b), abs=TOL)

    @given(_box(), _box())
    @settings(max_examples=60, deadline=None)
    def test_intersection_area(self, a, b):
        assert bev_intersection_area(a, b) == pytest.approx(
            oracle.bev_intersection_area(a, b), abs=TOL)

    @given(st.integers(0, 9999), st.integers(1, 7), st.integers(1, 7),
           st.sampled_from([np.float64, np.float32]))
    @settings(max_examples=40, deadline=None)
    def test_matrices(self, seed, n, m, dtype):
        rng = np.random.default_rng(seed)
        a, b = _batch(rng, n, dtype), _batch(rng, m, dtype)
        np.testing.assert_allclose(iou_matrix_bev(a, b),
                                   oracle.iou_matrix_bev(a, b),
                                   rtol=0, atol=TOL)
        if dtype is np.float64:
            np.testing.assert_allclose(iou_matrix_3d(a, b),
                                       oracle.iou_matrix_3d(a, b),
                                       rtol=0, atol=TOL)

    @given(_box(), _box())
    @settings(max_examples=60, deadline=None)
    def test_clip_polygon(self, a, b):
        pa = oracle._ccw(oracle.bev_corners(a))
        pb = oracle._ccw(oracle.bev_corners(b))
        expected = oracle.clip_polygon(pa, pb)
        got = clip_polygon(pa, pb)
        assert got.shape == expected.shape
        np.testing.assert_allclose(got, expected, rtol=0, atol=TOL)
        assert polygon_area(got) == pytest.approx(
            oracle.polygon_area(expected), abs=TOL)

    @pytest.mark.parametrize("field", [0, 1, 3, 4, 6])
    def test_nan_box_reads_zero_like_the_oracle(self, field):
        a = np.array([1.0, 0.0, 0.5, 4.0, 2.0, 1.5, 0.2])
        b = a.copy()
        b[field] = np.nan
        for x, y in ((a, b), (b, a), (b, b)):
            assert oracle.iou_bev(x, y) == 0.0
            assert iou_bev(x, y) == 0.0
        assert iou_matrix_bev(np.stack([a, b]), np.stack([b, a]))[0, 0] == 0.0


class TestBatchedShapes:
    @pytest.mark.parametrize("fn", [iou_matrix_bev, iou_matrix_3d])
    @pytest.mark.parametrize("na,nb", [(0, 3), (3, 0), (0, 0), (2, 5)])
    def test_float32_shape(self, fn, na, nb):
        rng = np.random.default_rng(na * 10 + nb)
        matrix = fn(_batch(rng, na), _batch(rng, nb))
        assert matrix.dtype == np.float32
        assert matrix.shape == (na, nb)

    def test_empty_list_inputs(self):
        boxes = _batch(np.random.default_rng(0), 4)
        assert iou_matrix_bev([], boxes).shape == (0, 4)
        assert iou_matrix_bev(boxes, []).shape == (4, 0)

    @given(st.integers(0, 9999))
    @settings(max_examples=20, deadline=None)
    def test_pairs_match_one_pair_calls_bit_for_bit(self, seed):
        """A pair's IoU does not depend on which other pairs share the batch."""
        rng = np.random.default_rng(seed)
        a, b = _batch(rng, 6, spread=3.0), _batch(rng, 5, spread=3.0)
        index_a, index_b = rng.integers(0, 6, 40), rng.integers(0, 5, 40)
        values = iou_pairs_bev(a, b, index_a, index_b)
        assert values.dtype == np.float64
        for k in range(40):
            assert values[k] == iou_bev(a[index_a[k]], b[index_b[k]])


class TestCircleReject:
    @given(_box(), _box(), st.floats(0, 2 * np.pi), st.floats(1e-6, 1.0))
    @settings(max_examples=80, deadline=None)
    def test_rejected_pairs_read_exactly_zero(self, a, b, direction, gap):
        # Place b just outside the sum of circumscribed radii.
        radius = 0.5 * (np.hypot(a[3], a[4]) + np.hypot(b[3], b[4]))
        b[0] = a[0] + (radius + gap) * np.cos(direction)
        b[1] = a[1] + (radius + gap) * np.sin(direction)
        if not oracle.circle_rejects(a, b):
            return  # rounding put it back on the circle
        assert iou_bev(a, b) == 0.0
        assert iou_3d(a, b) == 0.0
        assert iou_matrix_bev(a[None], b[None])[0, 0] == 0.0
        assert iou_matrix_3d(a[None], b[None])[0, 0] == 0.0
        assert iou_pairs_bev(a[None], b[None], [0], [0])[0] == 0.0
