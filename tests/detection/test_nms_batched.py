"""Batched rotated-BEV NMS: boundary inputs, keep-index parity with the
scalar oracle (one ``iou_bev`` call per pair, full order-list rescans),
and class-grouped NMS as the detectors' decode uses it."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.models.pointpillars.model as pointpillars_module
from repro import nn
from repro.detection import decode_boxes, nms_2d, nms_bev
from repro.models import SECOND, PointPillars
from repro.pointcloud import LidarConfig, SceneConfig, SceneGenerator
from repro.pointcloud.boxes import array_to_boxes
from tests.models.conftest import TINY_PILLARS, TINY_VOXELS
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


def _grouped_oracle(boxes, scores, groups, **kwargs):
    """Per-label scalar NMS over each group's subset, in label order."""
    keep = []
    for label in np.unique(groups):
        members = np.flatnonzero(groups == label)
        keep.extend(members[oracle.nms_bev(boxes[members], scores[members],
                                           **kwargs)])
    return np.array(keep, dtype=np.int64)


class TestGroups:
    BOX = TestBoundaries.BOX

    @given(st.integers(0, 99999), st.integers(1, 40),
           st.sampled_from([3.0, 10.0]), st.sampled_from([0.1, 0.3, 0.5]),
           st.integers(1, 12), st.lists(st.integers(-5, 9), min_size=1,
                                        max_size=6, unique=True),
           st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_matches_per_group_oracle(self, seed, count, spread, threshold,
                                      max_keep, labels, with_nan):
        """Labels come interleaved, unsorted and negative; with up to six
        labels over a handful of boxes, singleton groups are common."""
        rng = np.random.default_rng(seed)
        boxes = _clustered(rng, count, spread)
        scores = rng.uniform(0, 1, count)
        groups = rng.choice(labels, count)
        if with_nan:
            boxes[rng.integers(count), rng.choice([0, 3, 6])] = np.nan
        keep = nms_bev(boxes, scores, iou_threshold=threshold,
                       max_keep=max_keep, groups=groups)
        expected = _grouped_oracle(boxes, scores, groups,
                                   iou_threshold=threshold,
                                   max_keep=max_keep)
        assert keep.dtype == np.int64
        np.testing.assert_array_equal(keep, expected)

    def test_no_suppression_across_groups(self):
        boxes = np.array([self.BOX] * 4, np.float32)
        scores = np.array([0.9, 0.8, 0.7, 0.6])
        keep = nms_bev(boxes, scores, groups=np.array([1, 0, 1, 0]))
        # Label 0 first, then label 1; each keeps its best copy.
        assert list(keep) == [1, 0]

    def test_max_keep_applies_per_group(self):
        boxes = np.array([self.BOX] * 9, np.float32)
        boxes[:, 0] = 10.0 * np.arange(9)          # no overlaps
        scores = np.linspace(0.9, 0.1, 9)
        groups = np.array([2, 0, 1] * 3)
        keep = nms_bev(boxes, scores, max_keep=2, groups=groups)
        assert list(keep) == [1, 4, 2, 5, 0, 3]

    @pytest.mark.parametrize("seed", range(5))
    def test_tied_scores_rank_as_per_group_calls(self, seed):
        """Tie order is whatever ``argsort`` gives on each group's subset
        (the sort is not stable), so a stable global sort would differ."""
        rng = np.random.default_rng(seed)
        boxes = np.array([self.BOX] * 120, np.float32)
        boxes[:, 0] = 10.0 * np.arange(120)        # no overlaps: all kept
        scores = rng.choice([0.2, 0.5, 0.7], 120)
        groups = rng.choice([3, 1], 120)
        keep = nms_bev(boxes, scores, max_keep=100, groups=groups)
        np.testing.assert_array_equal(keep, _grouped_oracle(
            boxes, scores, groups, max_keep=100))

    def test_none_is_one_group(self):
        rng = np.random.default_rng(7)
        boxes = _clustered(rng, 30, 6.0)
        scores = rng.uniform(0, 1, 30)
        single = nms_bev(boxes, scores, max_keep=5)
        np.testing.assert_array_equal(single, oracle.nms_bev(
            boxes, scores, max_keep=5))
        np.testing.assert_array_equal(single, nms_bev(
            boxes, scores, max_keep=5, groups=np.full(30, 4)))

    def test_groups_shape_must_match_scores(self):
        boxes = np.array([self.BOX] * 3, np.float32)
        with pytest.raises(ValueError, match="groups"):
            nms_bev(boxes, np.ones(3), groups=np.zeros(2, np.int64))


def _per_class_decode(model, outputs, score_threshold, iou_threshold):
    """The decode as one NMS call per class: the reference for the
    grouped decode's boxes, order and scores."""
    cls_flat, reg_flat = model.head.flatten_outputs(outputs)
    scores = 1.0 / (1.0 + np.exp(-cls_flat.data))
    boxes_out = []
    for cls in model.anchor_config.class_names:
        idx = np.where((model.anchor_grid.labels == cls)
                       & (scores >= score_threshold))[0]
        if len(idx) == 0:
            continue
        idx = idx[np.argsort(-scores[idx])[:64]]
        decoded = decode_boxes(reg_flat.data[idx],
                               model.anchor_grid.boxes[idx])
        keep = nms_bev(decoded, scores[idx], iou_threshold=iou_threshold,
                       max_keep=20)
        boxes_out.extend(array_to_boxes(decoded[keep],
                                        labels=[cls] * len(keep),
                                        scores=scores[idx][keep]))
    return boxes_out


class TestDetectorDecode:
    @pytest.fixture(scope="class")
    def scene(self):
        cfg = SceneConfig(x_range=(5, 24), y_range=(-10, 10),
                          lidar=LidarConfig(channels=12, azimuth_steps=90))
        return SceneGenerator(cfg, seed=3).generate(0, with_image=False)

    @pytest.fixture(scope="class", params=["pointpillars", "second"])
    def model(self, request):
        if request.param == "pointpillars":
            return PointPillars(seed=0, **TINY_PILLARS)
        return SECOND(seed=0, **TINY_VOXELS)

    def test_one_nms_call_per_predict(self, model, scene, monkeypatch):
        calls = []
        real = pointpillars_module.nms_bev

        def spy(*args, **kwargs):
            calls.append(kwargs.get("groups"))
            return real(*args, **kwargs)
        monkeypatch.setattr(pointpillars_module, "nms_bev", spy)
        result = model.predict(scene)
        assert len(calls) == 1 and calls[0] is not None
        assert len(result.boxes) == 60      # untrained: 20 per class

    @pytest.mark.parametrize("quantile", [None, 0.0, 0.5, 0.999, 1.0])
    def test_matches_per_class_decode(self, model, scene, quantile):
        """Same boxes, order and scores as one NMS call per class, from
        every class full down to no candidate at all."""
        model.eval()
        with nn.no_grad():
            outputs = model.forward(*model.preprocess(scene))
        threshold = model.score_threshold
        if quantile is not None:
            cls_flat, _ = model.head.flatten_outputs(outputs)
            scores = 1.0 / (1.0 + np.exp(-cls_flat.data))
            threshold = float(np.quantile(scores, quantile)) \
                + (1e-3 if quantile == 1.0 else 0.0)
        iou = getattr(model, "nms_iou", 0.3)
        got = pointpillars_module.decode_anchor_head(
            model.head, model.anchor_grid, outputs, 0, threshold, iou)
        assert got.boxes == _per_class_decode(model, outputs, threshold, iou)
        if quantile is None:
            assert got.boxes == model.predict(scene).boxes
