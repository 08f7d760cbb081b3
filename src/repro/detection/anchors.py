"""BEV anchor grids and box encoding for SSD-style 3D heads.

PointPillars places, at every BEV cell, one anchor per class per
orientation (0° and 90°), sized to the class's mean dimensions.  Boxes
are regressed as the standard 7-dim residual used by SECOND and
PointPillars (offsets normalized by anchor diagonal, log-size ratios,
yaw difference).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["AnchorConfig", "AnchorGrid", "encode_boxes", "decode_boxes"]

_DEFAULT_SIZES = {
    "Car": (3.9, 1.6, 1.56),
    "Pedestrian": (0.8, 0.6, 1.73),
    "Cyclist": (1.76, 0.6, 1.73),
}
_DEFAULT_CENTER_Z = {"Car": 0.78, "Pedestrian": 0.87, "Cyclist": 0.87}


@dataclass
class AnchorConfig:
    """Anchor layout over the BEV feature map."""

    class_names: tuple = ("Car", "Pedestrian", "Cyclist")
    rotations: tuple = (0.0, np.pi / 2)
    sizes: dict = field(default_factory=lambda: dict(_DEFAULT_SIZES))
    center_z: dict = field(default_factory=lambda: dict(_DEFAULT_CENTER_Z))

    @property
    def anchors_per_cell(self) -> int:
        return len(self.class_names) * len(self.rotations)


class AnchorGrid:
    """All anchors over a BEV extent, flattened in head-output order.

    Ordering matches the reshape of a head output of shape
    ``(A*C, H, W)``: cell-major (row, col), then class, then rotation.
    """

    def __init__(self, config: AnchorConfig, x_range: tuple, y_range: tuple,
                 feature_shape: tuple[int, int]):
        self.config = config
        self.feature_shape = feature_shape
        ny, nx = feature_shape
        step_x = (x_range[1] - x_range[0]) / nx
        step_y = (y_range[1] - y_range[0]) / ny
        xs = x_range[0] + (np.arange(nx) + 0.5) * step_x
        ys = y_range[0] + (np.arange(ny) + 0.5) * step_y

        anchors = []
        class_ids = []
        for row in range(ny):
            for col in range(nx):
                for class_id, cls in enumerate(config.class_names):
                    dx, dy, dz = config.sizes[cls]
                    z = config.center_z[cls]
                    for yaw in config.rotations:
                        anchors.append([xs[col], ys[row], z,
                                        dx, dy, dz, yaw])
                        class_ids.append(class_id)
        self.boxes = np.array(anchors, dtype=np.float32)
        #: index of each anchor's class in ``config.class_names``
        self.class_ids = np.array(class_ids, dtype=np.int64)
        self.labels = np.array(config.class_names)[self.class_ids]

    def __len__(self) -> int:
        return len(self.boxes)

    @property
    def diagonals(self) -> np.ndarray:
        """BEV diagonal of each anchor, the residual normalizer."""
        return np.sqrt(self.boxes[:, 3] ** 2 + self.boxes[:, 4] ** 2)


def encode_boxes(gt: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    """Encode ground-truth boxes (N,7) against anchors (N,7) → (N,7)."""
    diag = np.sqrt(anchors[:, 3] ** 2 + anchors[:, 4] ** 2)
    encoded = np.empty_like(gt)
    encoded[:, 0] = (gt[:, 0] - anchors[:, 0]) / diag
    encoded[:, 1] = (gt[:, 1] - anchors[:, 1]) / diag
    encoded[:, 2] = (gt[:, 2] - anchors[:, 2]) / anchors[:, 5]
    encoded[:, 3] = np.log(gt[:, 3] / anchors[:, 3])
    encoded[:, 4] = np.log(gt[:, 4] / anchors[:, 4])
    encoded[:, 5] = np.log(gt[:, 5] / anchors[:, 5])
    # sin-encoded yaw residual (SECOND/PointPillars): a π flip of a box
    # leaves its BEV footprint identical, so sin(Δyaw) removes the
    # discontinuity at ±π that otherwise destabilizes car regression.
    encoded[:, 6] = np.sin(gt[:, 6] - anchors[:, 6])
    return encoded.astype(np.float32)


def decode_boxes(deltas: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    """Invert :func:`encode_boxes`."""
    diag = np.sqrt(anchors[:, 3] ** 2 + anchors[:, 4] ** 2)
    decoded = np.empty_like(deltas)
    decoded[:, 0] = deltas[:, 0] * diag + anchors[:, 0]
    decoded[:, 1] = deltas[:, 1] * diag + anchors[:, 1]
    decoded[:, 2] = deltas[:, 2] * anchors[:, 5] + anchors[:, 2]
    decoded[:, 3] = np.exp(np.clip(deltas[:, 3], -4, 4)) * anchors[:, 3]
    decoded[:, 4] = np.exp(np.clip(deltas[:, 4], -4, 4)) * anchors[:, 4]
    decoded[:, 5] = np.exp(np.clip(deltas[:, 5], -4, 4)) * anchors[:, 5]
    decoded[:, 6] = np.arcsin(np.clip(deltas[:, 6], -1.0, 1.0)) \
        + anchors[:, 6]
    return decoded.astype(np.float32)
