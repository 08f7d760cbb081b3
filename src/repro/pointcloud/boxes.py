"""3D bounding boxes and IoU geometry.

Boxes follow the KITTI/OpenPCDet convention used by both detectors:
center ``(x, y, z)`` in LiDAR coordinates (x forward, y left, z up, with
z at the box *center*), size ``(dx, dy, dz)`` (length, width, height),
and ``yaw`` rotation around +z.  BEV overlap of rotated boxes is computed
exactly with Sutherland–Hodgman polygon clipping; 3D IoU multiplies BEV
intersection by the z-extent overlap.

All IoU entry points — one pair, a list of pairs, a full matrix — go
through one batched float64 kernel: (N, 4, 2) footprints, a vectorized
circumscribed-circle reject, then fixed-capacity clipping of every
surviving pair at once (:func:`_clip_convex`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Box3D", "boxes_to_array", "array_to_boxes", "bev_corners",
    "polygon_area", "clip_polygon", "bev_intersection_area",
    "iou_bev", "iou_3d", "iou_pairs_bev", "iou_matrix_bev", "iou_matrix_3d",
    "points_in_box", "CLASS_NAMES", "CLASS_IDS",
]

CLASS_NAMES = ("Car", "Pedestrian", "Cyclist")
CLASS_IDS = {name: i for i, name in enumerate(CLASS_NAMES)}


@dataclass
class Box3D:
    """An oriented 3D bounding box with a class label and score."""

    x: float
    y: float
    z: float
    dx: float
    dy: float
    dz: float
    yaw: float
    label: str = "Car"
    score: float = 1.0
    difficulty: int = 0  # 0 easy, 1 moderate, 2 hard (KITTI convention)
    meta: dict = field(default_factory=dict)

    @property
    def center(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=np.float32)

    @property
    def size(self) -> np.ndarray:
        return np.array([self.dx, self.dy, self.dz], dtype=np.float32)

    def as_vector(self) -> np.ndarray:
        """(x, y, z, dx, dy, dz, yaw) array."""
        return np.array([self.x, self.y, self.z,
                         self.dx, self.dy, self.dz, self.yaw],
                        dtype=np.float32)

    def corners(self) -> np.ndarray:
        """(8, 3) corner coordinates, bottom face first."""
        dx, dy, dz = self.dx / 2, self.dy / 2, self.dz / 2
        template = np.array([
            [dx, dy, -dz], [dx, -dy, -dz], [-dx, -dy, -dz], [-dx, dy, -dz],
            [dx, dy, dz], [dx, -dy, dz], [-dx, -dy, dz], [-dx, dy, dz],
        ], dtype=np.float32)
        c, s = np.cos(self.yaw), np.sin(self.yaw)
        rot = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]], dtype=np.float32)
        return template @ rot.T + self.center

    def volume(self) -> float:
        return float(self.dx * self.dy * self.dz)

    def range_from_origin(self) -> float:
        """Ground distance of the box center from the sensor."""
        return float(np.hypot(self.x, self.y))


def boxes_to_array(boxes: list[Box3D]) -> np.ndarray:
    """Stack boxes into an (N, 7) array of [x y z dx dy dz yaw]."""
    if not boxes:
        return np.zeros((0, 7), dtype=np.float32)
    return np.stack([b.as_vector() for b in boxes])


def array_to_boxes(array: np.ndarray, labels=None, scores=None) -> list[Box3D]:
    """Inverse of :func:`boxes_to_array`."""
    boxes = []
    for i, row in enumerate(np.asarray(array, dtype=np.float32)):
        boxes.append(Box3D(
            *[float(v) for v in row[:7]],
            label=labels[i] if labels is not None else "Car",
            score=float(scores[i]) if scores is not None else 1.0,
        ))
    return boxes


# Corner template of :func:`bev_corners`: (+dx, +dy), (+dx, -dy),
# (-dx, -dy), (-dx, +dy) in half-extents.
_SIGN_X = np.array([1.0, 1.0, -1.0, -1.0])
_SIGN_Y = np.array([1.0, -1.0, -1.0, 1.0])
# Inside-test slack and parallel-edge cutoff of the clipping kernel.
_EPS = 1e-12
# Pairs clipped per kernel call: bounds the kernel's (pairs, slots)
# temporaries to a few MiB however many pairs a matrix holds.
_CHUNK = 4096


def bev_corners(box: np.ndarray) -> np.ndarray:
    """(4, 2) BEV footprint corners of a [x y z dx dy dz yaw] box."""
    return _corners(_as_boxes(box))[0]


def _as_boxes(boxes) -> np.ndarray:
    """(N, 7+) view of one box, a box array, or an empty list."""
    array = np.asarray(boxes)
    return array.reshape(0, 7) if array.size == 0 else np.atleast_2d(array)


def _corners(boxes: np.ndarray) -> np.ndarray:
    """(N, 4, 2) float64 corners in :func:`bev_corners` order.

    Half-extents and trig are taken in the boxes' own dtype and widened
    afterwards; the per-box ``template @ rotation.T`` matmul gives the
    same bits alone or batched.
    """
    half = np.stack([(boxes[:, 3] / 2)[:, None] * _SIGN_X,
                     (boxes[:, 4] / 2)[:, None] * _SIGN_Y], axis=-1)
    cos, sin = np.cos(boxes[:, 6]), np.sin(boxes[:, 6])
    rotation_t = np.stack([cos, sin, -sin, cos], axis=-1).reshape(-1, 2, 2)
    return (half.astype(np.float64) @ rotation_t.astype(np.float64)
            + boxes[:, None, :2].astype(np.float64))


def _footprints(boxes: np.ndarray) -> np.ndarray:
    """(N, 4, 2) counter-clockwise footprints of (N, 7+) boxes.

    The corner template winds clockwise for positive extents; any
    footprint whose signed area is not ``>= 0`` (NaN included) is
    reversed.
    """
    corners = _corners(boxes)
    area = _signed_areas(corners[..., 0], corners[..., 1],
                         np.full(len(corners), 4))
    return np.where((area >= 0)[:, None, None], corners, corners[:, ::-1])


def _row_sum(values: np.ndarray) -> np.ndarray:
    """Left-to-right row sums, so a row's result never depends on the batch."""
    total = values[:, 0].copy()
    for column in values.T[1:]:
        total += column
    return total


def _signed_areas(x: np.ndarray, y: np.ndarray,
                  counts: np.ndarray) -> np.ndarray:
    """Shoelace areas of padded polygons (positive if CCW).

    ``x`` and ``y`` are (P, K); row ``p`` holds a polygon in its first
    ``counts[p]`` slots.  Polygons with fewer than 3 vertices read 0.
    """
    slots = np.arange(x.shape[1])
    valid = slots < counts[:, None]
    wrap = slots == (counts - 1)[:, None]
    x_next = np.where(wrap, x[:, :1], np.roll(x, -1, axis=1))
    y_next = np.where(wrap, y[:, :1], np.roll(y, -1, axis=1))
    area = 0.5 * (_row_sum(np.where(valid, x * y_next, 0.0))
                  - _row_sum(np.where(valid, y * x_next, 0.0)))
    return np.where(counts >= 3, area, 0.0)


def polygon_area(poly: np.ndarray) -> float:
    """Signed shoelace area of a 2D polygon (positive if CCW)."""
    poly = np.asarray(poly, dtype=np.float64)
    if len(poly) < 3:
        return 0.0
    return float(_signed_areas(poly[None, :, 0], poly[None, :, 1],
                               np.array([len(poly)]))[0])


def _clip_convex(subject: np.ndarray, clip: np.ndarray):
    """Sutherland–Hodgman clipping of many polygon pairs at once.

    ``subject`` (P, S, 2) and ``clip`` (P, C, 2) hold counter-clockwise
    polygons, ``clip`` convex.  Each clip edge keeps the inside vertices
    of every pair and adds the edge crossings; the textbook per-vertex
    branches become masks and the output is compacted by mask position,
    with the same arithmetic per point.  A half-plane adds at most one
    vertex to a convex polygon, so ``S + C`` slots hold every result;
    the buffer widens only if rounding makes a near-degenerate polygon
    cross an edge more than twice.  Returns ``(x, y, counts)``: (P, K)
    coordinates whose first ``counts[p]`` slots hold pair ``p``'s
    intersection polygon.
    """
    pairs, size, _ = subject.shape
    sides = clip.shape[1]
    width = size + sides
    x, y = np.zeros((2, pairs, width))
    x[:, :size], y[:, :size] = subject[..., 0], subject[..., 1]
    counts = np.full(pairs, size)
    rows = np.arange(pairs)[:, None]
    for i in range(sides):
        sx, sy = clip[:, i, 0, None], clip[:, i, 1, None]
        ex = clip[:, (i + 1) % sides, 0, None] - sx
        ey = clip[:, (i + 1) % sides, 1, None] - sy
        # Vertex j's predecessor: j - 1, wrapping to the last valid slot.
        last = np.maximum(counts - 1, 0)[:, None]
        px = np.concatenate([x[rows, last], x[:, :-1]], axis=1)
        py = np.concatenate([y[rows, last], y[:, :-1]], axis=1)
        cur_in = ex * (y - sy) - ey * (x - sx) >= -_EPS
        prev_in = ex * (py - sy) - ey * (px - sx) >= -_EPS
        dx, dy = x - px, y - py
        denom = dx * ey - dy * ex
        t = ((sx - px) * ey - (sy - py) * ex) / denom
        parallel = np.abs(denom) < _EPS
        cross_x = np.where(parallel, x, px + t * dx)
        cross_y = np.where(parallel, y, py + t * dy)
        # Per input vertex: the edge crossing (if the side changed), then
        # the vertex itself (if inside).
        valid = np.arange(width) < counts[:, None]
        emit_cross = valid & (cur_in != prev_in)
        emit_cur = valid & cur_in
        upto = np.cumsum(emit_cross.astype(np.intp) + emit_cur, axis=1)
        counts = upto[:, -1]
        width = max(width, int(counts.max(initial=0)))
        # Unemitted points land in a spare last column that is dropped.
        at_cur = np.where(emit_cur, upto - 1, width)
        at_cross = np.where(emit_cross, upto - 1 - emit_cur, width)
        out_x, out_y = np.zeros((2, pairs, width + 1))
        out_x[rows, at_cross], out_y[rows, at_cross] = cross_x, cross_y
        out_x[rows, at_cur], out_y[rows, at_cur] = x, y
        x, y = out_x[:, :width], out_y[:, :width]
    return x, y, counts


def _overlap_areas(subject: np.ndarray, clip: np.ndarray) -> np.ndarray:
    """|intersection| of (P, 4, 2) CCW footprint pairs, float64 (P,)."""
    areas = np.empty(len(subject))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for lo in range(0, len(subject), _CHUNK):
            x, y, counts = _clip_convex(subject[lo:lo + _CHUNK],
                                        clip[lo:lo + _CHUNK])
            areas[lo:lo + _CHUNK] = np.abs(_signed_areas(x, y, counts))
    return areas


def clip_polygon(subject: np.ndarray, clip: np.ndarray) -> np.ndarray:
    """Sutherland–Hodgman clipping of ``subject`` against convex ``clip``.

    Both polygons must be wound counter-clockwise.  Returns the (possibly
    empty) intersection polygon.
    """
    subject = np.asarray(subject, dtype=np.float64).reshape(-1, 2)
    clip = np.asarray(clip, dtype=np.float64).reshape(-1, 2)
    if not len(subject) or not len(clip):
        return np.zeros((0, 2))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x, y, counts = _clip_convex(subject[None], clip[None])
    return np.stack([x[0], y[0]], axis=-1)[:counts[0]]


def _iou_pairs(boxes_a: np.ndarray, boxes_b: np.ndarray,
               index_a: np.ndarray, index_b: np.ndarray,
               three_d: bool) -> np.ndarray:
    """float64 IoU of each pair ``(boxes_a[index_a[k]], boxes_b[index_b[k]])``.

    The ``boxes_a`` footprint is the clipping subject.  Pairs whose
    circumscribed circles are apart read exactly 0 and are never
    clipped; a NaN box fails every comparison and reads 0 against
    anything.
    """
    a, b = _as_boxes(boxes_a), _as_boxes(boxes_b)
    index_a = np.asarray(index_a, dtype=np.intp)
    index_b = np.asarray(index_b, dtype=np.intp)
    # The reject runs in the boxes' own dtype, like the per-pair test it
    # replaced, so float32 callers drop exactly the same pairs.
    radius_a = 0.5 * np.hypot(a[:, 3], a[:, 4])
    radius_b = 0.5 * np.hypot(b[:, 3], b[:, 4])
    dist = np.hypot(a[index_a, 0] - b[index_b, 0],
                    a[index_a, 1] - b[index_b, 1])
    live = ~(dist > radius_a[index_a] + radius_b[index_b])
    inter = np.zeros(len(index_a))
    if live.any():
        footprints_a = _footprints(a)
        footprints_b = footprints_a if b is a else _footprints(b)
        inter[live] = _overlap_areas(footprints_a[index_a[live]],
                                     footprints_b[index_b[live]])
    size_a, size_b = a[:, 3] * a[:, 4], b[:, 3] * b[:, 4]
    if three_d:
        lo_a, hi_a = a[:, 2] - a[:, 5] / 2, a[:, 2] + a[:, 5] / 2
        lo_b, hi_b = b[:, 2] - b[:, 5] / 2, b[:, 2] + b[:, 5] / 2
        overlap_z = np.maximum(0.0, np.minimum(hi_a[index_a], hi_b[index_b])
                               - np.maximum(lo_a[index_a], lo_b[index_b]))
        inter = inter * overlap_z.astype(np.float64)
        size_a, size_b = size_a * a[:, 5], size_b * b[:, 5]
    union = (size_a.astype(np.float64)[index_a]
             + size_b.astype(np.float64)[index_b] - inter)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(union > 0, inter / union, 0.0)


def iou_pairs_bev(boxes_a: np.ndarray, boxes_b: np.ndarray,
                  index_a: np.ndarray, index_b: np.ndarray) -> np.ndarray:
    """float64 rotated BEV IoUs of the index-paired boxes, in one batch.

    Entry ``k`` is the IoU of ``boxes_a[index_a[k]]`` (the clipping
    subject) with ``boxes_b[index_b[k]]``.
    """
    return _iou_pairs(boxes_a, boxes_b, index_a, index_b, three_d=False)


def bev_intersection_area(box_a: np.ndarray, box_b: np.ndarray) -> float:
    """Exact BEV overlap area of two [x y z dx dy dz yaw] boxes."""
    return float(_overlap_areas(_footprints(_as_boxes(box_a)),
                                _footprints(_as_boxes(box_b)))[0])


def iou_bev(box_a: np.ndarray, box_b: np.ndarray) -> float:
    """Rotated IoU of the BEV footprints."""
    return float(_iou_pairs(box_a, box_b, [0], [0], three_d=False)[0])


def iou_3d(box_a: np.ndarray, box_b: np.ndarray) -> float:
    """Full 3D IoU: BEV intersection × vertical overlap."""
    return float(_iou_pairs(box_a, box_b, [0], [0], three_d=True)[0])


def _iou_matrix(boxes_a, boxes_b, three_d: bool) -> np.ndarray:
    a, b = _as_boxes(boxes_a), _as_boxes(boxes_b)
    index_a, index_b = np.indices((len(a), len(b))).reshape(2, -1)
    ious = _iou_pairs(a, b, index_a, index_b, three_d)
    return ious.astype(np.float32).reshape(len(a), len(b))


def iou_matrix_bev(boxes_a: np.ndarray, boxes_b: np.ndarray) -> np.ndarray:
    """(Na, Nb) float32 matrix of rotated BEV IoUs."""
    return _iou_matrix(boxes_a, boxes_b, three_d=False)


def iou_matrix_3d(boxes_a: np.ndarray, boxes_b: np.ndarray) -> np.ndarray:
    """(Na, Nb) float32 matrix of 3D IoUs."""
    return _iou_matrix(boxes_a, boxes_b, three_d=True)


def points_in_box(points: np.ndarray, box: Box3D,
                  margin: float = 0.0) -> np.ndarray:
    """Boolean mask of LiDAR points inside an oriented box."""
    local = points[:, :3] - box.center
    c, s = np.cos(-box.yaw), np.sin(-box.yaw)
    x = local[:, 0] * c - local[:, 1] * s
    y = local[:, 0] * s + local[:, 1] * c
    z = local[:, 2]
    return ((np.abs(x) <= box.dx / 2 + margin)
            & (np.abs(y) <= box.dy / 2 + margin)
            & (np.abs(z) <= box.dz / 2 + margin))
