"""Pillar and voxel encodings of point clouds.

``PillarEncoder`` implements the PointPillars front end: points are
binned into vertical columns (pillars) on a BEV grid, and each point is
augmented to the 9-dimensional feature used by the Pillar Feature
Network: ``[x, y, z, intensity, xc, yc, zc, xp, yp]`` where ``c`` offsets
are to the pillar's point centroid and ``p`` offsets to the pillar's
geometric center.  ``VoxelEncoder`` produces the sparse 3D voxel grid
that SECOND-style middle encoders consume.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PillarConfig", "Pillars", "PillarEncoder",
           "VoxelConfig", "Voxels", "VoxelEncoder"]


@dataclass
class PillarConfig:
    """BEV grid geometry and pillar capacity limits."""

    x_range: tuple = (0.0, 51.2)
    y_range: tuple = (-25.6, 25.6)
    z_range: tuple = (-1.0, 3.0)
    pillar_size: float = 0.8          # meters per BEV cell
    max_points_per_pillar: int = 24
    max_pillars: int = 4096

    @property
    def grid_shape(self) -> tuple[int, int]:
        """(rows, cols) == (y cells, x cells) of the BEV canvas."""
        nx = int(round((self.x_range[1] - self.x_range[0]) / self.pillar_size))
        ny = int(round((self.y_range[1] - self.y_range[0]) / self.pillar_size))
        return ny, nx


@dataclass
class Pillars:
    """Encoded pillars ready for the Pillar Feature Network."""

    features: np.ndarray    # (P, max_points, 9)
    mask: np.ndarray        # (P, max_points) 1 where a real point exists
    indices: np.ndarray     # (P, 2) (row, col) BEV cell per pillar
    grid_shape: tuple[int, int]

    @property
    def num_pillars(self) -> int:
        return len(self.features)


class PillarEncoder:
    """Points → pillars, deterministic given the input order."""

    FEATURE_DIM = 9

    def __init__(self, config: PillarConfig | None = None):
        self.config = config or PillarConfig()

    def encode(self, points: np.ndarray) -> Pillars:
        cfg = self.config
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
        # Built slot-major, (max_points, 9, P): every feature of one
        # slot is a contiguous row over the pillars.  The centroid sum
        # below then reduces over the outer slot axis, adding slot 0,
        # 1, 2, ... in turn exactly as the pillar-major reduction did,
        # and the elementwise offsets run over whole rows instead of an
        # innermost axis of 3.
        features = np.zeros((max_pts, self.FEATURE_DIM, n_pillars),
                            dtype=np.float32)
        mask = np.zeros((max_pts, n_pillars), dtype=np.float32)

        # The stable sort groups points by pillar in input order, so a
        # point's slot is its rank inside its group; points past the
        # pillar's capacity are dropped.
        order = np.argsort(inverse, kind="stable")
        pillar = inverse[order]
        sizes = np.bincount(inverse, minlength=n_pillars)
        slot = np.arange(len(order)) - (np.cumsum(sizes) - sizes)[pillar]
        fits = slot < max_pts
        pillar, slot = pillar[fits], slot[fits]
        features[slot, :4, pillar] = pts[order[fits]]
        mask[slot, pillar] = 1.0

        indices = np.stack([unique_cells // nx, unique_cells % nx], axis=1)

        # Offsets to the per-pillar centroid of real points.
        valid = mask[:, None, :]
        counts = mask.sum(axis=0)
        centroid = (features[:, :3] * valid).sum(axis=0)
        centroid = centroid / np.maximum(counts, 1.0)
        features[:, 4:7] = (features[:, :3] - centroid) * valid

        # Offsets to the pillar's geometric center.
        center_x = cfg.x_range[0] + (indices[:, 1] + 0.5) * cfg.pillar_size
        center_y = cfg.y_range[0] + (indices[:, 0] + 0.5) * cfg.pillar_size
        features[:, 7] = (features[:, 0] - center_x) * mask
        features[:, 8] = (features[:, 1] - center_y) * mask

        return Pillars(features=features.transpose(2, 0, 1), mask=mask.T,
                       indices=indices, grid_shape=cfg.grid_shape)


@dataclass
class VoxelConfig:
    """3D voxel grid geometry for SECOND-style encoders."""

    x_range: tuple = (0.0, 51.2)
    y_range: tuple = (-25.6, 25.6)
    z_range: tuple = (-1.0, 3.0)
    voxel_size: tuple = (0.8, 0.8, 0.5)
    max_points_per_voxel: int = 8
    max_voxels: int = 8192

    @property
    def grid_shape(self) -> tuple[int, int, int]:
        """(nz, ny, nx) voxel counts."""
        nx = int(round((self.x_range[1] - self.x_range[0]) / self.voxel_size[0]))
        ny = int(round((self.y_range[1] - self.y_range[0]) / self.voxel_size[1]))
        nz = int(round((self.z_range[1] - self.z_range[0]) / self.voxel_size[2]))
        return nz, ny, nx


@dataclass
class Voxels:
    """Sparse voxelized cloud: mean feature per occupied voxel."""

    features: np.ndarray    # (V, 4) mean [x y z intensity] per voxel
    coords: np.ndarray      # (V, 3) (z, y, x) integer voxel coordinates
    grid_shape: tuple[int, int, int]

    @property
    def num_voxels(self) -> int:
        return len(self.features)

    def to_dense(self) -> np.ndarray:
        """(4, nz, ny, nx) dense grid (zeros where empty)."""
        nz, ny, nx = self.grid_shape
        dense = np.zeros((4, nz, ny, nx), dtype=np.float32)
        z, y, x = self.coords.T
        dense[:, z, y, x] = self.features.T
        return dense


class VoxelEncoder:
    """Points → sparse mean-feature voxels."""

    def __init__(self, config: VoxelConfig | None = None):
        self.config = config or VoxelConfig()

    def encode(self, points: np.ndarray) -> Voxels:
        cfg = self.config
        pts = np.asarray(points, dtype=np.float32)
        in_range = ((pts[:, 0] >= cfg.x_range[0]) & (pts[:, 0] < cfg.x_range[1])
                    & (pts[:, 1] >= cfg.y_range[0]) & (pts[:, 1] < cfg.y_range[1])
                    & (pts[:, 2] >= cfg.z_range[0]) & (pts[:, 2] < cfg.z_range[1]))
        pts = pts[in_range]
        vx = ((pts[:, 0] - cfg.x_range[0]) / cfg.voxel_size[0]).astype(np.int64)
        vy = ((pts[:, 1] - cfg.y_range[0]) / cfg.voxel_size[1]).astype(np.int64)
        vz = ((pts[:, 2] - cfg.z_range[0]) / cfg.voxel_size[2]).astype(np.int64)
        nz, ny, nx = cfg.grid_shape
        flat = (vz * ny + vy) * nx + vx

        unique_cells, inverse = np.unique(flat, return_inverse=True)
        if len(unique_cells) > cfg.max_voxels:
            counts = np.bincount(inverse)
            keep = np.argsort(-counts)[:cfg.max_voxels]
            keep_set = np.zeros(len(unique_cells), dtype=bool)
            keep_set[keep] = True
            point_keep = keep_set[inverse]
            pts = pts[point_keep]
            flat = flat[point_keep]
            unique_cells, inverse = np.unique(flat, return_inverse=True)

        n_voxels = len(unique_cells)
        sums = np.zeros((n_voxels, 4), dtype=np.float64)
        np.add.at(sums, inverse, pts[:, :4])
        counts = np.bincount(inverse, minlength=n_voxels)[:, None]
        features = (sums / np.maximum(counts, 1)).astype(np.float32)

        z = unique_cells // (ny * nx)
        rem = unique_cells % (ny * nx)
        coords = np.stack([z, rem // nx, rem % nx], axis=1)
        return Voxels(features=features, coords=coords,
                      grid_shape=cfg.grid_shape)
