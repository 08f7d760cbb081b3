"""SECOND-lite: sparsely-embedded voxel detector.

SECOND voxelizes the cloud in 3D and runs sparse convolutions through a
middle encoder before a 2D BEV backbone.  Dense numpy has no sparse-conv
kernels, so the middle encoder is *dense-simulated sparse*: the voxel
grid's z-axis is folded into channels (the standard height-compression
trick) and a conv stack processes only a grid whose activity mirrors the
sparse set of filled voxels.  Parameter count sits slightly above PointPillars,
matching Table 1's ordering.
"""

from __future__ import annotations

import numpy as np

from repro import nn
from repro.detection import (AnchorConfig, AnchorGrid, DetectionResult,
                             assign_targets)
from repro.nn import Tensor
from repro.pointcloud.scenes import Scene
from repro.pointcloud.voxelize import VoxelConfig, VoxelEncoder

from .base import Detector3D
from .pointpillars.backbone import PointPillarsBackbone
from .pointpillars.head import SSDHead
from .pointpillars.model import decode_anchor_head

__all__ = ["SECOND"]


class SECOND(Detector3D):
    """Voxel-based LiDAR detector with a height-folding middle encoder."""

    name = "SECOND"

    def __init__(self, voxel_config: VoxelConfig | None = None,
                 middle_channels: int = 32,
                 stage_channels: tuple = (32, 64, 128),
                 upsample_channels: int = 32,
                 score_threshold: float = 0.3, seed: int = 0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.voxel_config = voxel_config or VoxelConfig()
        self.encoder = VoxelEncoder(self.voxel_config)
        self.score_threshold = score_threshold

        nz = self.voxel_config.grid_shape[0]
        in_channels = 4 * nz
        self.middle = nn.Sequential(
            nn.ConvBNReLU(in_channels, middle_channels, 3, rng=rng),
            nn.ConvBNReLU(middle_channels, middle_channels, 3, rng=rng),
        )
        self.backbone = PointPillarsBackbone(
            in_channels=middle_channels, stage_channels=stage_channels,
            upsample_channels=upsample_channels, rng=rng)

        self.anchor_config = AnchorConfig()
        _, ny, nx = self.voxel_config.grid_shape
        self.anchor_grid = AnchorGrid(
            self.anchor_config, x_range=self.voxel_config.x_range,
            y_range=self.voxel_config.y_range,
            feature_shape=(ny // 2, nx // 2))
        self.head = SSDHead(self.backbone.out_channels,
                            self.anchor_config.anchors_per_cell, rng=rng)

    def preprocess(self, scene: Scene) -> tuple:
        voxels = self.encoder.encode(scene.points)
        dense = voxels.to_dense()            # (4, nz, ny, nx)
        nz = dense.shape[1]
        folded = dense.reshape(4 * nz, *dense.shape[2:])
        return (Tensor(folded[None]),)

    def forward(self, bev: Tensor) -> dict:
        return self.head(self.backbone(self.middle(bev)))

    def example_inputs(self) -> tuple:
        nz, ny, nx = self.voxel_config.grid_shape
        rng = np.random.default_rng(0)
        return (Tensor(rng.random((1, 4 * nz, ny, nx)).astype(np.float32)),)

    def loss(self, outputs: dict, scene: Scene) -> Tensor:
        targets = assign_targets(self.anchor_grid, scene.boxes)
        cls_flat, reg_flat = self.head.flatten_outputs(outputs)
        valid = (targets.cls_target >= 0).astype(np.float32)
        positive = (targets.cls_target == 1).astype(np.float32)
        n_pos = max(float(positive.sum()), 1.0)
        cls_loss = nn.losses.focal_loss(cls_flat, Tensor(positive),
                                        normalizer=n_pos,
                                        weights=Tensor(valid))
        reg_weights = Tensor(np.repeat(positive[:, None], 7, axis=1))
        reg_loss = nn.losses.smooth_l1_loss(reg_flat,
                                            Tensor(targets.reg_target),
                                            beta=1.0 / 9.0,
                                            weights=reg_weights)
        return cls_loss + 2.0 * reg_loss

    def decode(self, outputs: dict, scene: Scene) -> DetectionResult:
        return decode_anchor_head(self.head, self.anchor_grid, outputs,
                                  scene.frame_id, self.score_threshold)
