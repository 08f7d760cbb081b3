"""The full SMOKE monocular 3D detector.

Single-stage keypoint estimation: each object is detected as the
projected 3D-center keypoint on a class heatmap (CenterNet-style focal
loss on Gaussian-splatted targets), with an 8-dim regression that lifts
the keypoint to a full 3D box using the camera intrinsics: sub-pixel
offset, depth code, log-size residuals against class priors, and
sin/cos yaw.
"""

from __future__ import annotations

import numpy as np

from repro import nn
from repro.camera import CameraModel, project_points
from repro.detection import DetectionResult
from repro.nn import Tensor
from repro.pointcloud.boxes import Box3D, CLASS_NAMES
from repro.pointcloud.scenes import Scene

from ..base import Detector3D
from .backbone import DLALiteBackbone
from .head import REG_DIM, SmokeHead

__all__ = ["SMOKE"]

_DIM_PRIORS = {
    "Car": (3.9, 1.6, 1.56),
    "Pedestrian": (0.8, 0.6, 1.73),
    "Cyclist": (1.76, 0.6, 1.73),
}
_DEPTH_REF = 25.0   # depth = DEPTH_REF * exp(code)
_STRIDE = 4


def _gaussian_radius(height: float, width: float,
                     min_overlap: float = 0.5) -> float:
    """CenterNet's radius so any center within it keeps IoU≥min_overlap."""
    a = 1
    b = height + width
    c = width * height * (1 - min_overlap) / (1 + min_overlap)
    sq = np.sqrt(max(b ** 2 - 4 * a * c, 0))
    return max((b - sq) / 2, 1.0)


def _splat_gaussian(heatmap: np.ndarray, row: int, col: int,
                    radius: int) -> None:
    """Draw a 2D Gaussian peak onto ``heatmap`` in place."""
    h, w = heatmap.shape
    sigma = max(radius / 3.0, 0.6)
    for r in range(max(row - radius, 0), min(row + radius + 1, h)):
        for c in range(max(col - radius, 0), min(col + radius + 1, w)):
            value = np.exp(-((r - row) ** 2 + (c - col) ** 2)
                           / (2 * sigma ** 2))
            heatmap[r, c] = max(heatmap[r, c], value)


class SMOKE(Detector3D):
    """Monocular camera 3D detector with 2D→3D uplifting."""

    name = "SMOKE"

    def __init__(self, camera: CameraModel | None = None,
                 base_channels: int = 72, head_channels: int = 120,
                 stage_depths: tuple = (2, 2, 2),
                 score_threshold: float = 0.3, max_objects: int = 20,
                 seed: int = 0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.camera = camera or CameraModel.kitti_like()
        self.class_names = CLASS_NAMES
        self.score_threshold = score_threshold
        self.max_objects = max_objects
        self.backbone = DLALiteBackbone(base_channels=base_channels,
                                        stage_depths=stage_depths, rng=rng)
        self.head = SmokeHead(self.backbone.out_channels,
                              num_classes=len(self.class_names),
                              head_channels=head_channels, rng=rng)

    # ------------------------------------------------------------------
    # Forward path
    # ------------------------------------------------------------------
    def preprocess(self, scene: Scene) -> tuple:
        if scene.image is None:
            raise ValueError("SMOKE requires scenes rendered with images")
        return (Tensor(scene.image[None]),)

    def forward(self, image: Tensor) -> dict:
        return self.head(self.backbone(image))

    def example_inputs(self) -> tuple:
        h, w = self.camera.height, self.camera.width
        rng = np.random.default_rng(0)
        return (Tensor(rng.random((1, 3, h, w)).astype(np.float32)),)

    # ------------------------------------------------------------------
    # Targets + loss
    # ------------------------------------------------------------------
    def _keypoint_targets(self, scene: Scene) -> tuple:
        fh = self.camera.height // _STRIDE
        fw = self.camera.width // _STRIDE
        heatmap = np.zeros((len(self.class_names), fh, fw), dtype=np.float32)
        reg = np.zeros((REG_DIM, fh, fw), dtype=np.float32)
        reg_mask = np.zeros((fh, fw), dtype=np.float32)
        for box in scene.boxes:
            pixel, depth = project_points(box.center[None], self.camera)
            if depth[0] <= 0.5:
                continue
            u, v = pixel[0] / _STRIDE
            col, row = int(u), int(v)
            if not (0 <= col < fw and 0 <= row < fh):
                continue
            cls_idx = self.class_names.index(box.label)
            size_px = max(self.camera.focal * box.dz / depth[0] / _STRIDE, 1)
            radius = int(_gaussian_radius(size_px, size_px))
            _splat_gaussian(heatmap[cls_idx], row, col, radius)
            heatmap[cls_idx, row, col] = 1.0
            prior = _DIM_PRIORS[box.label]
            reg[:, row, col] = [
                u - col, v - row,
                np.log(depth[0] / _DEPTH_REF),
                np.log(box.dx / prior[0]),
                np.log(box.dy / prior[1]),
                np.log(box.dz / prior[2]),
                np.sin(box.yaw), np.cos(box.yaw),
            ]
            reg_mask[row, col] = 1.0
        return heatmap, reg, reg_mask

    def loss(self, outputs: dict, scene: Scene) -> Tensor:
        heat_target, reg_target, reg_mask = self._keypoint_targets(scene)
        heat_logits = outputs["heatmap"].reshape(*heat_target.shape)
        reg_pred = outputs["reg"].reshape(*reg_target.shape)

        heat_loss = self._centernet_focal(heat_logits, heat_target)
        weights = Tensor(np.broadcast_to(reg_mask, reg_target.shape).copy())
        reg_loss = nn.losses.smooth_l1_loss(
            reg_pred, Tensor(reg_target), beta=0.2, weights=weights)
        return heat_loss + 2.0 * reg_loss

    @staticmethod
    def _centernet_focal(logits: Tensor, target: np.ndarray,
                         alpha: float = 2.0, beta: float = 4.0) -> Tensor:
        """Penalty-reduced focal loss on Gaussian heatmaps (CenterNet)."""
        prob = logits.sigmoid().clip(1e-4, 1 - 1e-4)
        positive = (target >= 1.0 - 1e-6).astype(np.float32)
        negative = 1.0 - positive
        neg_weight = np.power(1.0 - target, beta, dtype=np.float32)
        pos_loss = (1.0 - prob) ** alpha * prob.log() * Tensor(positive)
        neg_loss = (prob ** alpha) * (1.0 - prob).log() \
            * Tensor(neg_weight * negative)
        n_pos = max(float(positive.sum()), 1.0)
        return -(pos_loss.sum() + neg_loss.sum()) / n_pos

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------
    def decode(self, outputs: dict, scene: Scene) -> DetectionResult:
        heat = 1.0 / (1.0 + np.exp(-outputs["heatmap"].data[0]))
        boxes = self._decode(heat, outputs["reg"].data[0])
        return DetectionResult(boxes=boxes, frame_id=scene.frame_id)

    def _decode(self, heat: np.ndarray, reg: np.ndarray) -> list[Box3D]:
        num_classes, fh, fw = heat.shape
        # 3×3 local-max suppression per class.
        padded = np.pad(heat, ((0, 0), (1, 1), (1, 1)), constant_values=-1)
        windows = np.lib.stride_tricks.sliding_window_view(
            padded, (3, 3), axis=(1, 2))
        is_peak = heat >= windows.max(axis=(-1, -2)) - 1e-9
        candidates = heat * is_peak

        flat = candidates.reshape(-1)
        order = np.argsort(-flat)[:self.max_objects]
        boxes: list[Box3D] = []
        k = self.camera.intrinsics()
        for raw in order:
            score = flat[raw]
            if score < self.score_threshold:
                break
            cls_idx, rem = divmod(int(raw), fh * fw)
            row, col = divmod(rem, fw)
            offsets = reg[:, row, col]
            u = (col + offsets[0]) * _STRIDE
            v = (row + offsets[1]) * _STRIDE
            depth = _DEPTH_REF * np.exp(np.clip(offsets[2], -3, 3))
            x_cam = (u - k[0, 2]) * depth / k[0, 0]
            y_cam = (v - k[1, 2]) * depth / k[1, 1]
            prior = _DIM_PRIORS[self.class_names[cls_idx]]
            dims = np.exp(np.clip(offsets[3:6], -2, 2)) * np.array(prior)
            yaw = float(np.arctan2(offsets[6], offsets[7]))
            boxes.append(Box3D(
                x=float(depth), y=float(-x_cam),
                z=float(self.camera.mount_height - y_cam),
                dx=float(dims[0]), dy=float(dims[1]), dz=float(dims[2]),
                yaw=yaw, label=self.class_names[cls_idx],
                score=float(score)))
        return boxes
