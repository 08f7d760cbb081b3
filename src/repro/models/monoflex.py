"""MonoFlex-lite: flexible monocular 3D detection (Zhang et al., the
UPAQ paper's [15]).

MonoFlex's core idea beyond SMOKE is *flexible depth*: instead of a
single regressed depth, each object combines a directly-regressed depth
with a geometric depth recovered from the projected object height
(``depth ≈ f·H/h``), weighted by learned per-branch uncertainties.  The
lite version shares SMOKE's DLA backbone and keypoint formulation and
adds the two-branch depth head + uncertainty-weighted ensemble decode —
enough structure for UPAQ to compress a second, differently-shaped
camera model.
"""

from __future__ import annotations

import numpy as np

from repro import nn
from repro.camera import CameraModel, project_points
from repro.detection import DetectionResult
from repro.nn import Tensor
from repro.pointcloud.boxes import Box3D
from repro.pointcloud.scenes import Scene

from .smoke.model import SMOKE, _STRIDE

__all__ = ["MonoFlex"]

#: extra regression channels: geometric pixel-height code + two
#: log-uncertainties (direct depth, geometric depth)
_EXTRA_REG = 3


class MonoFlex(SMOKE):
    """SMOKE + flexible two-branch depth estimation."""

    name = "MonoFlex"

    def __init__(self, camera: CameraModel | None = None,
                 base_channels: int = 72, head_channels: int = 120,
                 stage_depths: tuple = (2, 2, 2),
                 score_threshold: float = 0.3, max_objects: int = 20,
                 seed: int = 0):
        super().__init__(camera=camera, base_channels=base_channels,
                         head_channels=head_channels,
                         stage_depths=stage_depths,
                         score_threshold=score_threshold,
                         max_objects=max_objects, seed=seed)
        rng = np.random.default_rng(seed + 5)
        self.depth_branch = nn.Sequential(
            nn.ConvBNReLU(self.backbone.out_channels, head_channels // 2,
                          3, rng=rng),
            nn.Conv2d(head_channels // 2, _EXTRA_REG, 1, rng=rng),
        )

    def forward(self, image: Tensor) -> dict:
        features = self.backbone(image)
        outputs = self.head(features)
        outputs["flex"] = self.depth_branch(features)
        return outputs

    # ------------------------------------------------------------------
    def _flex_targets(self, scene: Scene) -> tuple[np.ndarray, np.ndarray]:
        """Per-keypoint geometric-height codes (+ mask)."""
        fh = self.camera.height // _STRIDE
        fw = self.camera.width // _STRIDE
        flex = np.zeros((_EXTRA_REG, fh, fw), dtype=np.float32)
        mask = np.zeros((fh, fw), dtype=np.float32)
        for box in scene.boxes:
            pixel, depth = project_points(box.center[None], self.camera)
            if depth[0] <= 0.5:
                continue
            col, row = int(pixel[0, 0] / _STRIDE), int(pixel[0, 1] / _STRIDE)
            if not (0 <= col < fw and 0 <= row < fh):
                continue
            pixel_height = self.camera.focal * box.dz / depth[0]
            flex[0, row, col] = np.log(max(pixel_height, 1.0)
                                       / self.camera.height)
            mask[row, col] = 1.0
        return flex, mask

    def loss(self, outputs: dict, scene: Scene) -> Tensor:
        base = super().loss(outputs, scene)
        flex_target, mask = self._flex_targets(scene)
        flex_pred = outputs["flex"].reshape(*flex_target.shape)
        weights = np.zeros_like(flex_target)
        weights[0] = mask                       # supervise the height code
        flex_loss = nn.losses.smooth_l1_loss(
            flex_pred, Tensor(flex_target), beta=0.2,
            weights=Tensor(weights))
        return base + flex_loss

    # ------------------------------------------------------------------
    def decode(self, outputs: dict, scene: Scene) -> DetectionResult:
        heat = 1.0 / (1.0 + np.exp(-outputs["heatmap"].data[0]))
        boxes = self._decode(heat, outputs["reg"].data[0],
                             outputs["flex"].data[0])
        return DetectionResult(boxes=boxes, frame_id=scene.frame_id)

    def _decode(self, heat: np.ndarray, reg: np.ndarray,
                flex: np.ndarray) -> list[Box3D]:
        boxes = super()._decode(heat, reg)
        # Re-estimate each box's depth with the uncertainty-weighted
        # ensemble of direct and geometric depth.
        num_classes, fh, fw = heat.shape
        refined: list[Box3D] = []
        for box in boxes:
            # Recover the keypoint cell from the box's projection.
            pixel, depth = project_points(box.center[None], self.camera)
            col = int(np.clip(pixel[0, 0] / _STRIDE, 0, fw - 1))
            row = int(np.clip(pixel[0, 1] / _STRIDE, 0, fh - 1))
            direct_depth = box.x
            height_code = flex[0, row, col]
            pixel_height = np.exp(np.clip(height_code, -4, 2)) \
                * self.camera.height
            geometric_depth = float(np.clip(
                self.camera.focal * box.dz / max(pixel_height, 1e-3),
                1.0, 80.0))
            log_var_direct = float(np.clip(flex[1, row, col], -4, 4))
            log_var_geo = float(np.clip(flex[2, row, col], -4, 4))
            w_direct = np.exp(-log_var_direct)
            w_geo = np.exp(-log_var_geo)
            fused = (direct_depth * w_direct + geometric_depth * w_geo) \
                / (w_direct + w_geo)
            scale = fused / max(direct_depth, 1e-6)
            refined.append(Box3D(
                x=float(fused), y=float(box.y * scale), z=box.z,
                dx=box.dx, dy=box.dy, dz=box.dz, yaw=box.yaw,
                label=box.label, score=box.score))
        return refined
