"""Scalar point-cloud code: the test oracle for the vectorized versions.

Most of this is the original one-pair-at-a-time geometry (pure-Python
Sutherland–Hodgman clipping, a per-pair loop for the IoU matrices, and
greedy NMS that rescans the whole order list).  ``src/`` computes all of
these through one batched clipping kernel; the parity suites check the
batched results against this module.  It is kept as it was (only the
matrices' circle test is pulled out as :func:`circle_rejects`), quirks
included: NaN footprints get their winding reversed, and 3D IoU of
float32 boxes is rounded to float32 under NumPy 2 promotion rules.

:func:`encode_pillars` is the original ``PillarEncoder.encode`` with its
per-point scatter loop, the oracle for the vectorized scatter.
"""

from __future__ import annotations

import numpy as np


def bev_corners(box: np.ndarray) -> np.ndarray:
    """(4, 2) BEV footprint corners of a [x y z dx dy dz yaw] box."""
    x, y = box[0], box[1]
    dx, dy = box[3] / 2, box[4] / 2
    yaw = box[6]
    template = np.array([[dx, dy], [dx, -dy], [-dx, -dy], [-dx, dy]],
                        dtype=np.float64)
    c, s = np.cos(yaw), np.sin(yaw)
    rot = np.array([[c, -s], [s, c]])
    return template @ rot.T + np.array([x, y])


def polygon_area(poly: np.ndarray) -> float:
    """Signed shoelace area of a 2D polygon (positive if CCW)."""
    if len(poly) < 3:
        return 0.0
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def clip_polygon(subject: np.ndarray, clip: np.ndarray) -> np.ndarray:
    """Sutherland–Hodgman clipping of ``subject`` against convex ``clip``."""
    output = list(subject)
    n = len(clip)
    for i in range(n):
        if not output:
            break
        a = clip[i]
        b = clip[(i + 1) % n]
        edge = b - a
        input_list = output
        output = []

        def inside(p):
            return edge[0] * (p[1] - a[1]) - edge[1] * (p[0] - a[0]) >= -1e-12

        m = len(input_list)
        for j in range(m):
            current = input_list[j]
            prev = input_list[j - 1]
            cur_in = inside(current)
            prev_in = inside(prev)
            if cur_in:
                if not prev_in:
                    output.append(_segment_intersection(prev, current, a, b))
                output.append(current)
            elif prev_in:
                output.append(_segment_intersection(prev, current, a, b))
    return np.array(output) if output else np.zeros((0, 2))


def _segment_intersection(p1, p2, a, b) -> np.ndarray:
    d1 = p2 - p1
    d2 = b - a
    denom = d1[0] * d2[1] - d1[1] * d2[0]
    if abs(denom) < 1e-12:
        return p2
    t = ((a[0] - p1[0]) * d2[1] - (a[1] - p1[1]) * d2[0]) / denom
    return p1 + t * d1


def _ccw(poly: np.ndarray) -> np.ndarray:
    return poly if polygon_area(poly) >= 0 else poly[::-1]


def bev_intersection_area(box_a: np.ndarray, box_b: np.ndarray) -> float:
    pa = _ccw(bev_corners(box_a))
    pb = _ccw(bev_corners(box_b))
    inter = clip_polygon(pa, pb)
    return abs(polygon_area(inter))


def iou_bev(box_a: np.ndarray, box_b: np.ndarray) -> float:
    inter = bev_intersection_area(box_a, box_b)
    area_a = float(box_a[3] * box_a[4])
    area_b = float(box_b[3] * box_b[4])
    union = area_a + area_b - inter
    return inter / union if union > 0 else 0.0


def iou_3d(box_a: np.ndarray, box_b: np.ndarray) -> float:
    inter_bev = bev_intersection_area(box_a, box_b)
    za_lo, za_hi = box_a[2] - box_a[5] / 2, box_a[2] + box_a[5] / 2
    zb_lo, zb_hi = box_b[2] - box_b[5] / 2, box_b[2] + box_b[5] / 2
    overlap_z = max(0.0, min(za_hi, zb_hi) - max(za_lo, zb_lo))
    inter = inter_bev * overlap_z
    vol_a = float(box_a[3] * box_a[4] * box_a[5])
    vol_b = float(box_b[3] * box_b[4] * box_b[5])
    union = vol_a + vol_b - inter
    return inter / union if union > 0 else 0.0


def circle_rejects(box_a: np.ndarray, box_b: np.ndarray) -> bool:
    """The matrices' circumscribed-circle test: True means "read 0"."""
    radius_a = 0.5 * np.hypot(box_a[3], box_a[4])
    radius_b = 0.5 * np.hypot(box_b[3], box_b[4])
    dist = np.hypot(box_a[0] - box_b[0], box_a[1] - box_b[1])
    return bool(dist > radius_a + radius_b)


def _pairwise(boxes_a: np.ndarray, boxes_b: np.ndarray, fn) -> np.ndarray:
    matrix = np.zeros((len(boxes_a), len(boxes_b)), dtype=np.float32)
    for i, box_a in enumerate(boxes_a):
        for j, box_b in enumerate(boxes_b):
            if circle_rejects(box_a, box_b):
                continue
            matrix[i, j] = fn(box_a, box_b)
    return matrix


def iou_matrix_bev(boxes_a: np.ndarray, boxes_b: np.ndarray) -> np.ndarray:
    return _pairwise(boxes_a, boxes_b, iou_bev)


def iou_matrix_3d(boxes_a: np.ndarray, boxes_b: np.ndarray) -> np.ndarray:
    return _pairwise(boxes_a, boxes_b, iou_3d)


def nms_bev(boxes: np.ndarray, scores: np.ndarray,
            iou_threshold: float = 0.3,
            max_keep: int = 100) -> np.ndarray:
    """Greedy rotated-BEV NMS, one scalar IoU per (kept, other) pair."""
    order = np.argsort(-np.asarray(scores))
    keep: list[int] = []
    suppressed = np.zeros(len(boxes), dtype=bool)
    for idx in order:
        if suppressed[idx]:
            continue
        keep.append(int(idx))
        if len(keep) >= max_keep:
            break
        for other in order:
            if suppressed[other] or other == idx:
                continue
            if iou_bev(boxes[idx], boxes[other]) > iou_threshold:
                suppressed[other] = True
    return np.array(keep, dtype=np.int64)


def encode_pillars(cfg, points: np.ndarray):
    """``PillarEncoder(cfg).encode(points)`` with one loop step per point.

    Returns ``(features, mask, indices)``.
    """
    pts = np.asarray(points, dtype=np.float32)
    in_range = ((pts[:, 0] >= cfg.x_range[0]) & (pts[:, 0] < cfg.x_range[1])
                & (pts[:, 1] >= cfg.y_range[0]) & (pts[:, 1] < cfg.y_range[1])
                & (pts[:, 2] >= cfg.z_range[0]) & (pts[:, 2] < cfg.z_range[1]))
    pts = pts[in_range]
    rows = ((pts[:, 1] - cfg.y_range[0]) / cfg.pillar_size).astype(np.int64)
    cols = ((pts[:, 0] - cfg.x_range[0]) / cfg.pillar_size).astype(np.int64)
    ny, nx = cfg.grid_shape
    flat = rows * nx + cols

    unique_cells, inverse = np.unique(flat, return_inverse=True)
    if len(unique_cells) > cfg.max_pillars:
        # Keep the most populated pillars.
        counts = np.bincount(inverse)
        keep = np.argsort(-counts)[:cfg.max_pillars]
        keep_set = np.zeros(len(unique_cells), dtype=bool)
        keep_set[keep] = True
        point_keep = keep_set[inverse]
        pts = pts[point_keep]
        flat = flat[point_keep]
        unique_cells, inverse = np.unique(flat, return_inverse=True)

    n_pillars = len(unique_cells)
    max_pts = cfg.max_points_per_pillar
    features = np.zeros((n_pillars, max_pts, 9), dtype=np.float32)
    mask = np.zeros((n_pillars, max_pts), dtype=np.float32)
    fill = np.zeros(n_pillars, dtype=np.int64)

    order = np.argsort(inverse, kind="stable")
    for point_idx in order:
        pillar = inverse[point_idx]
        slot = fill[pillar]
        if slot >= max_pts:
            continue
        features[pillar, slot, :4] = pts[point_idx]
        mask[pillar, slot] = 1.0
        fill[pillar] += 1

    indices = np.stack([unique_cells // nx, unique_cells % nx], axis=1)

    # Offsets to the per-pillar centroid of real points.
    counts = mask.sum(axis=1, keepdims=True)
    centroid = (features[:, :, :3] * mask[:, :, None]).sum(axis=1,
                                                           keepdims=True)
    centroid = centroid / np.maximum(counts[:, :, None], 1.0)
    features[:, :, 4:7] = (features[:, :, :3] - centroid) * mask[:, :, None]

    # Offsets to the pillar's geometric center.
    center_x = cfg.x_range[0] + (indices[:, 1] + 0.5) * cfg.pillar_size
    center_y = cfg.y_range[0] + (indices[:, 0] + 0.5) * cfg.pillar_size
    features[:, :, 7] = (features[:, :, 0] - center_x[:, None]) * mask
    features[:, :, 8] = (features[:, :, 1] - center_y[:, None]) * mask
    return features, mask, indices
