"""Pillar Feature Network: the 1×1-conv point encoder of PointPillars.

Each pillar's points (9-dim augmented features) pass through a shared
1×1 convolution + BatchNorm + ReLU, then a max over the pillar's points
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
from repro.pointcloud.voxelize import pillar_ids, slot_grid

__all__ = ["PillarFeatureNet"]


class PillarFeatureNet(nn.Module):
    """Pillar-major ``(9, M)`` points + ``(P,)`` counts → ``(P, C)``
    pillar features."""

    def __init__(self, in_features: int = 9, out_channels: int = 32,
                 max_points_per_pillar: int = 24,
                 rng: np.random.Generator | None = None):
        super().__init__()
        self.in_features = in_features
        self.out_channels = out_channels
        self.max_points_per_pillar = max_points_per_pillar
        self.conv = nn.Conv2d(in_features, out_channels, kernel_size=1,
                              bias=False, rng=rng)
        self.bn = nn.BatchNorm2d(out_channels)

    def forward(self, points: Tensor, counts: np.ndarray) -> Tensor:
        if not self.training and not is_grad_enabled():
            return self._pool_points(points.data, counts)
        # The graph path runs the shared point encoder as a true 1×1
        # convolution over the (P, N) slot grid, padding included, so
        # training and the recording passes (IR extraction, profiling,
        # calibration) see the (1, F, P, N) input.
        grid, mask = slot_grid(points.data, counts,
                               self.max_points_per_pillar)
        f, p, n = grid.shape
        x = self.bn(self.conv(Tensor(grid.reshape(1, f, p, n)))).relu()
        # Masked max over points: empty slots contribute -inf.
        mask_4d = Tensor(mask.reshape(1, 1, p, n))
        neg_inf = (1.0 - mask_4d) * (-1e4)
        x = x * mask_4d + neg_inf
        pooled = x.max(axis=3)                    # (1, C, P)
        return pooled.reshape(self.out_channels, p).transpose(1, 0)

    def _pool_points(self, points: np.ndarray, counts: np.ndarray) -> Tensor:
        """Inference: encode the M real points only, then pool per pillar.

        Conv, BN and ReLU act on each point alone, so running them on
        the ``(1, F, 1, M)`` points gives the bytes the slot grid gives
        there.  For an integer executor that holds by construction
        (exact sums); for the float conv it holds only while the BLAS
        rounds each column alike whatever the matrix width, which
        ``tests/models/test_pfn_fastpath.py`` measures over several point
        counts.  One ``maximum.at`` then folds every (channel, point)
        value into its pillar's cell of a ``-1e4``-filled array, so a
        pillar with no point keeps the graph path's fill.  The max ranks
        ±0.0 ties differently from the graph path's max over slots, so
        ``+ 0.0`` maps every pooled zero to +0.0.
        """
        x = Tensor(points.reshape(1, len(points), 1, points.shape[1]))
        y = self.bn(self.conv(x)).data.reshape(self.out_channels, -1)
        np.multiply(y, y > 0, out=y)
        p = len(counts)
        cell = np.arange(self.out_channels)[:, None] * p + pillar_ids(counts)
        pooled = np.full(self.out_channels * p, np.float32(-1e4))
        np.maximum.at(pooled, cell.ravel(), y.ravel())
        pooled += 0.0
        return Tensor(pooled.reshape(self.out_channels, p).T)
