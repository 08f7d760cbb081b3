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
        if not self.training and not is_grad_enabled():
            return self._pool_points(features.data, mask.data)
        # (P, N, F) → (1, F, P, N) so the shared point encoder is a true
        # 1×1 convolution over the pillar/point grid.
        p, n, f = features.shape
        x = features.transpose(2, 0, 1).reshape(1, f, p, n)
        x = self.bn(self.conv(x)).relu()
        # Masked max over points: empty slots contribute -inf.
        mask_4d = mask.reshape(1, 1, p, n)
        neg_inf = (1.0 - mask_4d) * (-1e4)
        x = x * mask_4d + neg_inf
        pooled = x.max(axis=3)                    # (1, C, P)
        return pooled.reshape(self.out_channels, p).transpose(1, 0)

    def _pool_points(self, features: np.ndarray, mask: np.ndarray) -> Tensor:
        """Inference: encode the M real points only, then segment-max.

        Conv, BN and ReLU act on each point alone, so running them on
        the ``(1, F, 1, M)`` real points gives the bytes the dense grid
        gives there.  For an integer executor that holds by construction
        (exact sums); for the float conv it holds only while the BLAS
        rounds each column alike whatever the matrix width, which
        ``tests/models/test_pfn_fastpath.py`` measures over several point
        counts.  Points are gathered pillar-major, so one
        ``maximum.reduceat`` pools each pillar's run; a pillar with no
        point keeps the graph path's -1e4 fill.  The max ranks ±0.0
        ties differently from the graph path's max over slots, so
        ``+ 0.0`` maps every pooled zero to +0.0.
        """
        pillar, slot = np.nonzero(mask)
        x = features.transpose(2, 0, 1)[:, pillar, slot]     # (F, M)
        x = Tensor(x.reshape(1, len(x), 1, len(pillar)))
        y = self.bn(self.conv(x)).data.reshape(self.out_channels, -1)
        np.multiply(y, y > 0, out=y)
        counts = np.bincount(pillar, minlength=len(mask))
        held = counts > 0
        pooled = np.full((self.out_channels, len(mask)), np.float32(-1e4))
        pooled[:, held] = np.maximum.reduceat(
            y, (np.cumsum(counts) - counts)[held], axis=1)
        pooled += 0.0
        return Tensor(pooled.T)

    def encode_pillars(self, pillars: Pillars) -> tuple[Tensor, Tensor]:
        """Wrap numpy pillar tensors for the forward pass."""
        return Tensor(pillars.features), Tensor(pillars.mask)
