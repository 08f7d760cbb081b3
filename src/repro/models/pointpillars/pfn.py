"""Pillar Feature Network: the 1×1-conv point encoder of PointPillars.

Each pillar's points (9-dim augmented features) pass through a shared
1×1 convolution + BatchNorm + ReLU, then a masked max over the points
yields one feature vector per pillar.  The 1×1 convolutions here are the
layers UPAQ's Algorithm 5 (1×1→k×k transformation) exists for: fixing
their weights during quantization damages early-layer accuracy, which is
the motivation given in the paper.
"""

from __future__ import annotations

import numpy as np

from repro import nn
from repro.nn import Tensor
from repro.nn.tensor import is_grad_enabled
from repro.pointcloud.voxelize import Pillars

__all__ = ["PillarFeatureNet"]


class PillarFeatureNet(nn.Module):
    """(P, N, 9) pillars → (P, C) pillar features."""

    def __init__(self, in_features: int = 9, out_channels: int = 32,
                 rng: np.random.Generator | None = None):
        super().__init__()
        self.in_features = in_features
        self.out_channels = out_channels
        self.conv = nn.Conv2d(in_features, out_channels, kernel_size=1,
                              bias=False, rng=rng)
        self.bn = nn.BatchNorm2d(out_channels)

    def forward(self, features: Tensor, mask: Tensor) -> Tensor:
        # (P, N, F) → (1, F, P, N) so the shared point encoder is a true
        # 1×1 convolution over the pillar/point grid.
        p, n, f = features.shape
        x = features.transpose(2, 0, 1).reshape(1, f, p, n)
        x = self.bn(self.conv(x))
        if not self.training and not is_grad_enabled():
            # Inference: ReLU and the masked max straight on the arrays.
            # ``x * mask + (1 - mask) · -1e4`` is ``x`` where a point
            # exists and exactly -1e4 where none does, so one
            # ``np.where`` yields the same bytes (signed zeros included)
            # without the four graph ops or max's backward mask.
            data = x.data
            data = data * (data > 0)
            pooled = np.where(mask.data.reshape(1, 1, p, n), data,
                              np.float32(-1e4)).max(axis=3)
            return Tensor(pooled.reshape(self.out_channels, p).T)
        x = x.relu()
        # Masked max over points: empty slots contribute -inf.
        mask_4d = mask.reshape(1, 1, p, n)
        neg_inf = (1.0 - mask_4d) * (-1e4)
        x = x * mask_4d + neg_inf
        pooled = x.max(axis=3)                    # (1, C, P)
        return pooled.reshape(self.out_channels, p).transpose(1, 0)

    def encode_pillars(self, pillars: Pillars) -> tuple[Tensor, Tensor]:
        """Wrap numpy pillar tensors for the forward pass."""
        return Tensor(pillars.features), Tensor(pillars.mask)
