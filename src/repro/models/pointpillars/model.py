"""The full PointPillars detector.

A reduced-width but architecturally faithful PointPillars: pillar
encoding → Pillar Feature Network (1×1 convs) → scatter to BEV canvas →
2D CNN backbone with upsample fusion → SSD anchor head, trained with
focal + smooth-L1 losses and decoded with rotated NMS.
"""

from __future__ import annotations

import numpy as np

from repro import nn
from repro.detection import (AnchorConfig, AnchorGrid, DetectionResult,
                             assign_targets, decode_boxes, nms_bev)
from repro.nn import Tensor
from repro.nn import functional as F
from repro.pointcloud.boxes import array_to_boxes
from repro.pointcloud.scenes import Scene
from repro.pointcloud.voxelize import PillarConfig, PillarEncoder

from ..base import Detector3D
from .backbone import PointPillarsBackbone
from .head import SSDHead

__all__ = ["PointPillars", "decode_anchor_head"]


class PointPillars(Detector3D):
    """LiDAR 3D detector over pillar pseudo-images."""

    name = "PointPillars"

    def __init__(self, pillar_config: PillarConfig | None = None,
                 pfn_channels: int = 32,
                 stage_channels: tuple = (32, 64, 128),
                 stage_depths: tuple = (2, 2, 2),
                 upsample_channels: int = 32,
                 score_threshold: float = 0.3,
                 nms_iou: float = 0.3,
                 seed: int = 0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.pillar_config = pillar_config or PillarConfig()
        self.encoder = PillarEncoder(self.pillar_config)
        self.score_threshold = score_threshold
        self.nms_iou = nms_iou

        from .pfn import PillarFeatureNet
        self.pfn = PillarFeatureNet(
            out_channels=pfn_channels,
            max_points_per_pillar=self.pillar_config.max_points_per_pillar,
            rng=rng)
        self.backbone = PointPillarsBackbone(
            in_channels=pfn_channels, stage_channels=stage_channels,
            stage_depths=stage_depths, upsample_channels=upsample_channels,
            rng=rng)

        self.anchor_config = AnchorConfig()
        ny, nx = self.pillar_config.grid_shape
        self.feature_shape = (ny // 2, nx // 2)   # backbone runs at H/2
        self.anchor_grid = AnchorGrid(
            self.anchor_config,
            x_range=self.pillar_config.x_range,
            y_range=self.pillar_config.y_range,
            feature_shape=self.feature_shape)
        self.head = SSDHead(self.backbone.out_channels,
                            self.anchor_config.anchors_per_cell, rng=rng)

    # ------------------------------------------------------------------
    # Forward path
    # ------------------------------------------------------------------
    def preprocess(self, scene: Scene) -> tuple:
        """Scene → ``(points, counts, indices)``: the pillar-major
        ``(9, M)`` point features, points per pillar and BEV cells."""
        pillars = self.encoder.encode(scene.points)
        return Tensor(pillars.points), pillars.counts, pillars.indices

    def forward(self, points: Tensor, counts: np.ndarray,
                indices: np.ndarray) -> dict:
        return self.head(self.backbone(self._canvas(points, counts, indices)))

    def forward_batch(self, scenes) -> dict:
        """Per-scene pillars → PFN → scatter (pillar counts are ragged),
        then one backbone + head pass over the concatenated canvases."""
        canvases = [self._canvas(*self.preprocess(scene))
                    for scene in scenes]
        canvas = canvases[0] if len(canvases) == 1 else Tensor(
            np.concatenate([c.data for c in canvases], axis=0))
        return self.head(self.backbone(canvas))

    def _canvas(self, points: Tensor, counts: np.ndarray,
                indices: np.ndarray) -> Tensor:
        """One scene's pillars → PFN → its ``(1, C, ny, nx)`` BEV canvas."""
        return F.scatter_to_grid(self.pfn(points, counts), indices,
                                 self.pillar_config.grid_shape)

    def example_inputs(self) -> tuple:
        rng = np.random.default_rng(0)
        p, n = 64, self.pillar_config.max_points_per_pillar
        # p full pillars: n random points each, pillar-major.
        features = rng.standard_normal((p, n, 9)).astype(np.float32)
        points = np.ascontiguousarray(features.reshape(p * n, 9).T)
        ny, nx = self.pillar_config.grid_shape
        cells = rng.choice(ny * nx, size=p, replace=False)
        indices = np.stack([cells // nx, cells % nx], axis=1)
        return Tensor(points), np.full(p, n), indices

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def loss(self, outputs: dict, scene: Scene) -> Tensor:
        targets = assign_targets(self.anchor_grid, scene.boxes)
        cls_flat, reg_flat = self.head.flatten_outputs(outputs)

        valid = (targets.cls_target >= 0).astype(np.float32)
        positive = (targets.cls_target == 1).astype(np.float32)
        n_pos = max(float(positive.sum()), 1.0)

        cls_loss = nn.losses.focal_loss(
            cls_flat, Tensor(positive), normalizer=n_pos,
            weights=Tensor(valid))
        reg_weights = Tensor(
            np.repeat(positive[:, None], SSDHead.BOX_DIM, axis=1))
        reg_loss = nn.losses.smooth_l1_loss(
            reg_flat, Tensor(targets.reg_target), beta=1.0 / 9.0,
            weights=reg_weights)
        return cls_loss + 2.0 * reg_loss

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def decode(self, outputs: dict, scene: Scene) -> DetectionResult:
        return decode_anchor_head(self.head, self.anchor_grid, outputs,
                                  scene.frame_id, self.score_threshold,
                                  self.nms_iou)


def decode_anchor_head(head: SSDHead, anchor_grid: AnchorGrid,
                       outputs: dict, frame_id: int,
                       score_threshold: float,
                       iou_threshold: float = 0.3) -> DetectionResult:
    """One frame's anchor-head maps → class-labelled, NMS-filtered boxes.

    Per class, the 64 highest-scoring anchors at or above
    ``score_threshold`` are decoded, and one class-grouped rotated NMS
    keeps at most 20 boxes per class.  Boxes come out class by class in
    ``anchor_grid.config.class_names`` order, each class's by
    descending score.  ``nms_bev`` is looked up in this module at call
    time, so a wrapper bound to
    ``repro.models.pointpillars.model.nms_bev`` sees every detector's
    NMS call.
    """
    cls_flat, reg_flat = head.flatten_outputs(outputs)
    scores = 1.0 / (1.0 + np.exp(-cls_flat.data))
    names = anchor_grid.config.class_names
    passing = np.flatnonzero(scores >= score_threshold)
    passing_class = anchor_grid.class_ids[passing]
    # Keep each class's strongest candidates before the O(n^2) NMS.
    tops = []
    for class_id in range(len(names)):
        members = passing[passing_class == class_id]
        tops.append(members[np.argsort(-scores[members])[:64]])
    idx = np.concatenate(tops)
    class_ids, candidate_scores = anchor_grid.class_ids[idx], scores[idx]
    decoded = decode_boxes(reg_flat.data[idx], anchor_grid.boxes[idx])
    keep = nms_bev(decoded, candidate_scores, iou_threshold=iou_threshold,
                   max_keep=20, groups=class_ids)
    return DetectionResult(
        boxes=array_to_boxes(
            decoded[keep], labels=[names[c] for c in class_ids[keep].tolist()],
            scores=candidate_scores[keep]),
        frame_id=frame_id)
