"""Batched rotated-BEV NMS: boundary inputs and keep-index parity with the
scalar oracle (one ``iou_bev`` call per pair, full order-list rescans)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detection import nms_2d, nms_bev
from tests.pointcloud import scalar_oracle as oracle


def _clustered(rng, count, spread):
    """Detector-like float32 candidates: many overlapping neighbours."""
    boxes = np.zeros((count, 7), dtype=np.float32)
    boxes[:, 0] = rng.uniform(0, spread, count)
    boxes[:, 1] = rng.uniform(-spread / 2, spread / 2, count)
    boxes[:, 2] = 1.0
    boxes[:, 3] = rng.uniform(1, 5, count)
    boxes[:, 4] = rng.uniform(1, 3, count)
    boxes[:, 5] = 1.6
    boxes[:, 6] = rng.uniform(-np.pi, np.pi, count)
    return boxes


def _assert_same_keep(boxes, scores, **kwargs):
    keep = nms_bev(boxes, scores, **kwargs)
    expected = oracle.nms_bev(boxes, scores, **kwargs)
    assert keep.dtype == np.int64
    np.testing.assert_array_equal(keep, expected)
    return keep


class TestBoundaries:
    BOX = [5.0, 0.0, 1.0, 4.0, 2.0, 1.6, 0.3]

    def test_empty_input(self):
        keep = _assert_same_keep(np.zeros((0, 7), np.float32), np.zeros(0))
        assert keep.shape == (0,)

    def test_single_box(self):
        keep = _assert_same_keep(np.array([self.BOX], np.float32),
                                 np.array([0.5]))
        assert list(keep) == [0]

    @pytest.mark.parametrize("max_keep", [0, -1])
    def test_max_keep_not_positive_keeps_nothing(self, max_keep):
        boxes = np.array([self.BOX, self.BOX], np.float32)
        keep = nms_bev(boxes, np.array([0.9, 0.8]), max_keep=max_keep)
        assert keep.dtype == np.int64 and keep.shape == (0,)
        # Same contract as the axis-aligned NMS.
        assert len(nms_2d(np.array([[0, 0, 1, 1.0]]), np.array([1.0]),
                          max_keep=max_keep)) == 0

    def test_all_identical_boxes(self):
        boxes = np.array([self.BOX] * 6, np.float32)
        scores = np.array([0.2, 0.9, 0.5, 0.3, 0.8, 0.1])
        keep = _assert_same_keep(boxes, scores)
        assert list(keep) == [1]

    def test_zero_area_box(self):
        """Union 0 gives IoU 0: a zero-area box suppresses nothing, even
        an identical copy of itself."""
        flat = list(self.BOX)
        flat[3] = 0.0
        boxes = np.array([flat, flat, self.BOX], np.float32)
        keep = _assert_same_keep(boxes, np.array([0.9, 0.8, 0.7]))
        assert sorted(keep) == [0, 1, 2]

    @pytest.mark.parametrize("nan_rank", [0, 1, 2])
    @pytest.mark.parametrize("field", [0, 3, 6])
    def test_nan_box_neither_suppressed_nor_suppressing(self, nan_rank,
                                                        field):
        boxes = np.array([self.BOX] * 3, np.float32)
        boxes[nan_rank, field] = np.nan
        keep = _assert_same_keep(boxes, np.array([0.9, 0.8, 0.7]))
        # The NaN box survives, and so does the best finite box.
        finite = [i for i in range(3) if i != nan_rank]
        assert sorted(keep) == sorted([nan_rank, finite[0]])


class TestOracleParity:
    @given(st.integers(0, 99999), st.integers(2, 40),
           st.sampled_from([4.0, 10.0, 40.0]),
           st.sampled_from([0.1, 0.3, 0.5, 0.7]), st.integers(1, 30))
    @settings(max_examples=60, deadline=None)
    def test_keep_indices_match(self, seed, count, spread, threshold,
                                max_keep):
        rng = np.random.default_rng(seed)
        boxes = _clustered(rng, count, spread)
        scores = rng.uniform(0, 1, count)
        _assert_same_keep(boxes, scores, iou_threshold=threshold,
                          max_keep=max_keep)

    @given(st.integers(0, 99999),
           st.sampled_from([-1e-9, -1e-10, 1e-10, 1e-9]))
    @settings(max_examples=60, deadline=None)
    def test_threshold_within_1e9_of_an_iou(self, seed, offset):
        """Put the threshold a hair above/below a real pair IoU: the
        decision must match the scalar comparison exactly."""
        rng = np.random.default_rng(seed)
        boxes = _clustered(rng, 8, 3.0)
        scores = rng.uniform(0, 1, 8)
        order = np.argsort(-scores)
        ious = [oracle.iou_bev(boxes[order[0]], boxes[j]) for j in order[1:]]
        overlapping = [v for v in ious if v > 1e-6]
        if not overlapping:
            return
        threshold = overlapping[int(rng.integers(len(overlapping)))] + offset
        _assert_same_keep(boxes, scores, iou_threshold=threshold)

    def test_crafted_pair_on_both_sides_of_threshold(self):
        a = np.array([0.0, 0.0, 1.0, 4.0, 2.0, 1.6, 0.0])
        b = np.array([1.3, 0.4, 1.0, 4.0, 2.0, 1.6, 0.45])
        boxes, scores = np.stack([a, b]), np.array([0.9, 0.8])
        value = oracle.iou_bev(a, b)
        assert 0.2 < value < 0.8
        for offset in (-1e-9, -1e-10, 1e-10, 1e-9):
            keep = _assert_same_keep(boxes, scores,
                                     iou_threshold=value + offset)
            assert list(keep) == ([0] if offset < 0 else [0, 1])
