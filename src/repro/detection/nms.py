"""Non-maximum suppression for rotated BEV boxes and 2D boxes."""

from __future__ import annotations

import numpy as np

# ``iou_bev`` stays bound here although NMS no longer calls it: the
# end-to-end benchmark's tracer (perfbench/spans.py) reads and wraps
# this name to count per-pair IoU calls, which now reads 0.
from repro.pointcloud.boxes import iou_bev, iou_pairs_bev  # noqa: F401

__all__ = ["nms_bev", "nms_2d"]


def nms_bev(boxes: np.ndarray, scores: np.ndarray,
            iou_threshold: float = 0.3,
            max_keep: int = 100) -> np.ndarray:
    """Greedy rotated-BEV NMS; returns indices of kept boxes.

    Candidates are visited by descending score; each kept box
    suppresses every later candidate whose BEV IoU with it (the kept
    box is the clipping subject) exceeds ``iou_threshold``.  The IoUs
    of all ranked pairs come from one batched kernel call, so the
    greedy pass only reads a boolean matrix (quadratic in the candidate
    count; the detectors pass at most 64 per class).  A NaN box has
    IoU 0 with everything: it neither suppresses nor is suppressed.
    ``max_keep <= 0`` keeps nothing, as in :func:`nms_2d`.
    """
    order = np.argsort(-np.asarray(scores))
    if max_keep <= 0 or len(order) == 0:
        return np.zeros(0, dtype=np.int64)
    ranked = np.asarray(boxes)[order]
    first, second = np.triu_indices(len(order), k=1)
    suppresses = np.zeros((len(order), len(order)), dtype=bool)
    suppresses[first, second] = iou_pairs_bev(
        ranked, ranked, first, second) > iou_threshold
    keep: list[int] = []
    suppressed = np.zeros(len(order), dtype=bool)
    for rank, idx in enumerate(order):
        if suppressed[rank]:
            continue
        keep.append(int(idx))
        if len(keep) >= max_keep:
            break
        suppressed |= suppresses[rank]
    return np.array(keep, dtype=np.int64)


def nms_2d(boxes: np.ndarray, scores: np.ndarray,
           iou_threshold: float = 0.5,
           max_keep: int = 100) -> np.ndarray:
    """Axis-aligned 2D NMS on [x0 y0 x1 y1] boxes (vectorized)."""
    boxes = np.asarray(boxes, dtype=np.float64)
    order = np.argsort(-np.asarray(scores))
    areas = (boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1])
    keep: list[int] = []
    while order.size > 0 and len(keep) < max_keep:
        idx = order[0]
        keep.append(int(idx))
        rest = order[1:]
        xx0 = np.maximum(boxes[idx, 0], boxes[rest, 0])
        yy0 = np.maximum(boxes[idx, 1], boxes[rest, 1])
        xx1 = np.minimum(boxes[idx, 2], boxes[rest, 2])
        yy1 = np.minimum(boxes[idx, 3], boxes[rest, 3])
        inter = np.clip(xx1 - xx0, 0, None) * np.clip(yy1 - yy0, 0, None)
        union = areas[idx] + areas[rest] - inter
        iou = np.where(union > 0, inter / union, 0.0)
        order = rest[iou <= iou_threshold]
    return np.array(keep, dtype=np.int64)
