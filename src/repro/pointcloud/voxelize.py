"""Pillar and voxel encodings of point clouds.

``PillarEncoder`` implements the PointPillars front end: points are
binned into vertical columns (pillars) on a BEV grid, and each point is
augmented to the 9-dimensional feature used by the Pillar Feature
Network: ``[x, y, z, intensity, xc, yc, zc, xp, yp]`` where ``c`` offsets
are to the pillar's point centroid and ``p`` offsets to the pillar's
geometric center.  The features are computed for the kept points only
and stored point-major, ``(9, M)`` grouped pillar by pillar;
:meth:`Pillars.dense` rebuilds the padded ``(P, max_points, 9)`` slot
grid for the code that wants it.  ``VoxelEncoder`` produces the sparse
3D voxel grid that SECOND-style middle encoders consume.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PillarConfig", "Pillars", "PillarEncoder", "pillar_ids",
           "slot_grid", "VoxelConfig", "Voxels", "VoxelEncoder"]


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
    """Encoded pillars, point-major, ready for the Pillar Feature Network.

    ``points`` holds the nine features of every kept point, grouped
    pillar by pillar (pillars in ``indices`` order, each pillar's points
    in input order); pillar ``i`` owns the ``counts[i]`` columns that
    follow those of pillars ``0 .. i - 1``.
    """

    points: np.ndarray      # (9, M) float32
    counts: np.ndarray      # (P,) points per pillar, each >= 1
    indices: np.ndarray     # (P, 2) (row, col) BEV cell per pillar
    config: PillarConfig

    @property
    def num_pillars(self) -> int:
        return len(self.counts)

    def dense(self) -> tuple[np.ndarray, np.ndarray]:
        """``(P, max_points, 9)`` features and ``(P, max_points)`` mask.

        Slot ``k`` of a pillar holds its ``k``-th point.  An empty slot
        holds zeros, the offset ones signed as the slot-by-slot formulas
        ``(0 - centroid) * 0`` and ``(0 - center) * 0`` sign them, so the
        grid is byte-equal to one encoded slot by slot.
        """
        grid, mask = slot_grid(self.points, self.counts,
                               self.config.max_points_per_pillar)
        pillar = pillar_ids(self.counts)
        centroid = _centroids(self.points[:3], pillar, self.counts)
        center = _centers(self.config, self.indices)
        fill = np.concatenate([(np.float32(0.0) - centroid) * np.float32(0.0),
                               ((0.0 - center) * 0.0).astype(np.float32)])
        grid[4:] = np.where(mask > 0, grid[4:], fill[:, :, None])
        return np.ascontiguousarray(grid.transpose(1, 2, 0)), mask


def pillar_ids(counts: np.ndarray) -> np.ndarray:
    """Pillar of every point in a pillar-major point array."""
    return np.repeat(np.arange(len(counts)), counts)


def slot_grid(points: np.ndarray, counts: np.ndarray,
              max_points: int) -> tuple[np.ndarray, np.ndarray]:
    """Pillar-major points → ``(F, P, max_points)`` slot grid + mask.

    A pillar's ``k``-th point fills slot ``k``; empty slots hold +0.0 and
    a 0 in the ``(P, max_points)`` float32 mask.
    """
    pillar = pillar_ids(counts)
    slot = np.arange(len(pillar)) - (np.cumsum(counts) - counts)[pillar]
    grid = np.zeros((len(points), len(counts), max_points), np.float32)
    grid[:, pillar, slot] = points
    mask = np.zeros((len(counts), max_points), np.float32)
    mask[pillar, slot] = 1.0
    return grid, mask


def _centroids(xyz: np.ndarray, pillar: np.ndarray,
               counts: np.ndarray) -> np.ndarray:
    """(3, P) float32 centroid of each pillar's real points.

    The sum starts from +0.0 and adds point by point in slot order
    (``add.at``, not the blocked ``reduceat``), exactly as ``sum`` over
    the zero-padded slot grid does, so the bits match a slot grid's.
    """
    sums = np.zeros((3, len(counts)), np.float32)
    for row, total in zip(xyz, sums):
        np.add.at(total, pillar, row)
    return sums / counts.astype(np.float32)


def _centers(config: PillarConfig, indices: np.ndarray) -> np.ndarray:
    """(2, P) float64 (x, y) geometric center of each pillar's cell."""
    return np.stack([
        config.x_range[0] + (indices[:, 1] + 0.5) * config.pillar_size,
        config.y_range[0] + (indices[:, 0] + 0.5) * config.pillar_size])


class PillarEncoder:
    """Points → pillars, deterministic given the input order."""

    FEATURE_DIM = 9

    def __init__(self, config: PillarConfig | None = None):
        self.config = config or PillarConfig()
        ny, nx = self.config.grid_shape
        # Per flat BEV cell: its (row, col) and its geometric center.
        self._cells = np.stack(np.divmod(np.arange(ny * nx), nx), axis=1)
        self._centers = _centers(self.config, self._cells)

    def encode(self, points: np.ndarray) -> Pillars:
        cfg = self.config
        pts = np.asarray(points, dtype=np.float32)
        in_range = ((pts[:, 0] >= cfg.x_range[0]) & (pts[:, 0] < cfg.x_range[1])
                    & (pts[:, 1] >= cfg.y_range[0]) & (pts[:, 1] < cfg.y_range[1])
                    & (pts[:, 2] >= cfg.z_range[0]) & (pts[:, 2] < cfg.z_range[1]))
        pts = pts[in_range]
        rows = ((pts[:, 1] - cfg.y_range[0]) / cfg.pillar_size).astype(np.int64)
        cols = ((pts[:, 0] - cfg.x_range[0]) / cfg.pillar_size).astype(np.int64)
        flat = rows * cfg.grid_shape[1] + cols

        # One stable sort groups the points by cell, each cell's points
        # in input order; a cell's run starts where the sorted id changes.
        order = np.argsort(flat, kind="stable")
        flat = flat[order]
        new_cell = np.empty(len(flat), bool)
        new_cell[:1] = True
        np.not_equal(flat[1:], flat[:-1], out=new_cell[1:])
        starts = np.flatnonzero(new_cell)
        sizes = np.empty_like(starts)
        sizes[:-1] = starts[1:]
        sizes[-1:] = len(flat)
        sizes -= starts
        if len(starts) > cfg.max_pillars:
            # Keep the most populated pillars.
            keep = np.sort(np.argsort(-sizes)[:cfg.max_pillars])
            starts, sizes = starts[keep], sizes[keep]
        # A pillar keeps its first max_points_per_pillar points.
        counts = np.minimum(sizes, cfg.max_points_per_pillar)
        pillar = pillar_ids(counts)
        first = np.cumsum(counts) - counts
        sorted_at = np.arange(len(pillar)) + (starts - first)[pillar]
        kept = order[sorted_at]

        features = np.empty((self.FEATURE_DIM, len(kept)), np.float32)
        features[:4] = pts[kept].T
        xyz = features[:3]
        # Offsets to the per-pillar centroid of real points.
        centroid = _centroids(xyz, pillar, counts)
        np.subtract(xyz, centroid[:, pillar], out=features[4:7])
        # Offsets to the pillar's geometric center, in float64.
        np.subtract(features[:2], self._centers[:, flat[sorted_at]],
                    out=features[7:9], casting="same_kind")
        return Pillars(points=features, counts=counts,
                       indices=self._cells[flat[starts]], config=cfg)


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
