"""Tests for pillar and voxel encoders."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pointcloud import (PillarConfig, PillarEncoder, VoxelConfig,
                              VoxelEncoder)
from repro.pointcloud.scenes import SceneConfig, SceneGenerator
from tests.pointcloud import scalar_oracle as oracle


def cloud(points):
    return np.asarray(points, dtype=np.float32)


@pytest.fixture
def pillar_encoder():
    return PillarEncoder(PillarConfig(
        x_range=(0, 8), y_range=(-4, 4), z_range=(-1, 3),
        pillar_size=1.0, max_points_per_pillar=4, max_pillars=16))


class TestPillarEncoder:
    def test_single_point_single_pillar(self, pillar_encoder):
        pillars = pillar_encoder.encode(cloud([[0.5, -3.5, 0.0, 0.7]]))
        assert pillars.num_pillars == 1
        np.testing.assert_array_equal(pillars.indices[0], [0, 0])
        _, mask = pillars.dense()
        assert mask[0, 0] == 1.0
        assert mask[0, 1:].sum() == 0

    def test_points_in_same_cell_share_pillar(self, pillar_encoder):
        pillars = pillar_encoder.encode(cloud([
            [2.1, 0.1, 0.5, 0.3], [2.9, 0.8, 1.0, 0.4]]))
        assert pillars.num_pillars == 1
        assert pillars.dense()[1][0].sum() == 2

    def test_out_of_range_points_dropped(self, pillar_encoder):
        pillars = pillar_encoder.encode(cloud([
            [100.0, 0.0, 0.0, 0.1], [2.0, 0.0, 0.5, 0.1]]))
        assert pillars.num_pillars == 1

    def test_max_points_per_pillar_truncates(self, pillar_encoder):
        points = [[2.5, 0.5, 0.5, 0.1]] * 10
        pillars = pillar_encoder.encode(cloud(points))
        assert pillars.dense()[1].sum() == 4

    def test_max_pillars_keeps_most_populated(self):
        encoder = PillarEncoder(PillarConfig(
            x_range=(0, 8), y_range=(-4, 4), pillar_size=1.0,
            max_points_per_pillar=8, max_pillars=1))
        points = ([[0.5, 0.5, 0.5, 0.1]] * 5    # popular cell
                  + [[5.5, 2.5, 0.5, 0.1]])     # lonely cell
        pillars = encoder.encode(cloud(points))
        assert pillars.num_pillars == 1
        assert pillars.dense()[1].sum() == 5

    def test_centroid_offsets_zero_mean(self, pillar_encoder):
        points = [[2.1, 0.3, 0.5, 0.1], [2.9, 0.7, 1.5, 0.1]]
        pillars = pillar_encoder.encode(cloud(points))
        offsets = pillars.dense()[0][0, :2, 4:7]
        np.testing.assert_allclose(offsets.sum(axis=0), np.zeros(3),
                                   atol=1e-5)

    def test_center_offsets_bounded_by_cell(self, pillar_encoder):
        points = [[2.1, 0.3, 0.5, 0.1], [2.9, -0.7, 1.5, 0.1]]
        pillars = pillar_encoder.encode(cloud(points))
        center_offsets = pillars.dense()[0][:, :, 7:9]
        assert np.abs(center_offsets).max() <= 0.5 + 1e-6  # half a cell

    def test_feature_dim_is_nine(self, pillar_encoder):
        pillars = pillar_encoder.encode(cloud([[1, 0, 0, 0.5]]))
        assert pillars.dense()[0].shape[-1] == 9

    @given(st.integers(1, 60))
    @settings(max_examples=20, deadline=None)
    def test_mask_matches_feature_support(self, n_points):
        rng = np.random.default_rng(n_points)
        points = np.column_stack([
            rng.uniform(0, 8, n_points), rng.uniform(-4, 4, n_points),
            rng.uniform(-1, 3, n_points), rng.uniform(0, 1, n_points),
        ]).astype(np.float32)
        encoder = PillarEncoder(PillarConfig(
            x_range=(0, 8), y_range=(-4, 4), pillar_size=1.0,
            max_points_per_pillar=4, max_pillars=64))
        features, mask = encoder.encode(points).dense()
        # Wherever the mask is 0, all features must be 0.
        empty = mask == 0
        assert np.abs(features[empty]).sum() == 0


def _assert_matches_oracle(config, points):
    """Point-major pillars equal the oracle's real slots, pillar-major,
    and ``dense()`` equals its whole slot grid, signed zeros included."""
    pillars = PillarEncoder(config).encode(points)
    features, mask, indices = oracle.encode_pillars(config, points)
    real = mask > 0
    expected = (np.ascontiguousarray(features[real].T),
                real.sum(axis=1), indices)
    got = (pillars.points, pillars.counts, pillars.indices)
    for have, want in zip(got, expected):
        assert have.dtype == want.dtype and have.shape == want.shape
        assert have.tobytes() == want.tobytes()
    for have, want in zip(pillars.dense(), (features, mask)):
        assert have.dtype == want.dtype and have.shape == want.shape
        assert have.tobytes() == want.tobytes()
    return pillars


def _small_config(max_points=4, max_pillars=16):
    return PillarConfig(x_range=(0, 8), y_range=(-4, 4), z_range=(-1, 3),
                        pillar_size=1.0, max_points_per_pillar=max_points,
                        max_pillars=max_pillars)


class TestPillarScatterParity:
    """The vectorized scatter is byte-equal to the per-point loop."""

    def test_empty_cloud(self):
        pillars = _assert_matches_oracle(_small_config(),
                                         np.zeros((0, 4), np.float32))
        assert pillars.num_pillars == 0

    def test_all_out_of_range(self):
        points = cloud([[-1.0, 0.0, 0.0, 0.1], [9.0, 0.0, 0.0, 0.2],
                        [2.0, 5.0, 0.0, 0.3], [2.0, 0.0, 3.5, 0.4]])
        pillars = _assert_matches_oracle(_small_config(), points)
        assert pillars.num_pillars == 0

    def test_duplicates_overflow_a_pillar(self):
        points = cloud([[2.5, 0.5, 0.5, 0.1]] * 7 + [[2.2, 0.9, 1.0, 0.9]]
                       + [[6.5, -3.5, 0.0, 0.2]] * 2)
        pillars = _assert_matches_oracle(_small_config(max_points=4), points)
        np.testing.assert_array_equal(pillars.counts, [2, 4])

    def test_max_pillars_overflow(self):
        rng = np.random.default_rng(3)
        cells = rng.integers(0, 8, size=(300, 2))
        points = np.column_stack([
            cells[:, 0] + rng.uniform(0, 1, 300),
            cells[:, 1] - 4 + rng.uniform(0, 1, 300),
            rng.uniform(-1, 3, 300), rng.uniform(0, 1, 300)])
        pillars = _assert_matches_oracle(
            _small_config(max_points=3, max_pillars=5), points)
        assert pillars.num_pillars == 5

    def test_negative_zero_coordinates(self):
        # An all -0.0 pillar sums its centroid from +0.0 as the slot grid
        # did, and empty slots keep the grid's (0 - centroid) * 0 and
        # (0 - center) * 0 signs; a full pillar has no empty slot.
        points = cloud([[-0.0, 0.5, -0.0, 0.1]] * 4
                       + [[1.5, -0.0, -0.0, -0.0]] * 2
                       + [[2.5, -3.5, 0.5, 0.2]]
                       + [[4.5, 2.5, -0.0, 0.3], [4.2, 2.1, 0.0, 0.4]])
        pillars = _assert_matches_oracle(_small_config(max_points=4), points)
        np.testing.assert_array_equal(pillars.counts, [1, 4, 2, 2])
        features, mask = pillars.dense()
        assert np.signbit(features[mask == 0]).any()
        assert not np.signbit(features[mask == 0]).all()

    def test_generated_scene(self):
        scene = SceneGenerator(SceneConfig(), seed=0).generate(
            0, with_image=False)
        _assert_matches_oracle(PillarConfig(), scene.points)

    @given(st.integers(0, 99999), st.integers(0, 300),
           st.integers(1, 30), st.integers(1, 6), st.integers(1, 40))
    @settings(max_examples=60, deadline=None)
    def test_random_clouds(self, seed, n_points, n_cells, max_points,
                           max_pillars):
        """Points crowd a few cells (overflowing pillars), repeat exactly,
        and spill past the grid on every axis."""
        rng = np.random.default_rng(seed)
        cells = rng.uniform([-1, -5, -2], [9, 5, 4], size=(n_cells, 3))
        picked = cells[rng.integers(0, n_cells, n_points)]
        jitter = rng.uniform(-0.5, 0.5, (n_points, 3))
        jitter[rng.uniform(size=n_points) < 0.3] = 0.0   # exact repeats
        points = np.column_stack([picked + jitter,
                                  rng.uniform(0, 1, n_points)])
        _assert_matches_oracle(_small_config(max_points, max_pillars),
                               points.astype(np.float32))


class TestVoxelEncoder:
    def test_mean_feature(self):
        encoder = VoxelEncoder(VoxelConfig(
            x_range=(0, 4), y_range=(-2, 2), z_range=(0, 2),
            voxel_size=(1.0, 1.0, 1.0)))
        voxels = encoder.encode(cloud([
            [0.2, -1.5, 0.5, 0.2], [0.8, -1.9, 0.9, 0.6]]))
        assert voxels.num_voxels == 1
        np.testing.assert_allclose(voxels.features[0],
                                   [0.5, -1.7, 0.7, 0.4], atol=1e-5)

    def test_coords_layout_zyx(self):
        encoder = VoxelEncoder(VoxelConfig(
            x_range=(0, 4), y_range=(-2, 2), z_range=(0, 2),
            voxel_size=(1.0, 1.0, 1.0)))
        voxels = encoder.encode(cloud([[3.5, 1.5, 1.5, 0.1]]))
        np.testing.assert_array_equal(voxels.coords[0], [1, 3, 3])

    def test_to_dense_roundtrip(self):
        encoder = VoxelEncoder(VoxelConfig(
            x_range=(0, 4), y_range=(-2, 2), z_range=(0, 2),
            voxel_size=(1.0, 1.0, 1.0)))
        voxels = encoder.encode(cloud([[0.5, -1.5, 0.5, 0.3]]))
        dense = voxels.to_dense()
        assert dense.shape == (4, 2, 4, 4)
        z, y, x = voxels.coords[0]
        np.testing.assert_allclose(dense[:, z, y, x], voxels.features[0])
        assert dense.sum() == pytest.approx(voxels.features.sum(), rel=1e-5)

    def test_grid_shape(self):
        config = VoxelConfig(x_range=(0, 51.2), y_range=(-25.6, 25.6),
                             z_range=(-1, 3), voxel_size=(0.8, 0.8, 0.5))
        assert config.grid_shape == (8, 64, 64)
