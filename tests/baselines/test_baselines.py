"""Tests for the four baseline compression frameworks."""

import numpy as np
import pytest

from repro import nn
from repro.baselines import (ClipQ, LidarPTQ, PsAndQs, RToss,
                             build_framework, FRAMEWORK_REGISTRY)
from repro.baselines.rtoss import ENTRY_PATTERNS
from repro.nn import Tensor


class TinyNet(nn.Module):
    def __init__(self, seed=0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.conv1 = nn.Conv2d(2, 6, 3, padding=1, rng=rng)
        self.conv2 = nn.Conv2d(6, 6, 3, padding=1, rng=rng)
        self.proj = nn.Conv2d(6, 2, 1, rng=rng)

    def forward(self, x):
        return self.proj(self.conv2(self.conv1(x).relu()).relu())

    def example_inputs(self):
        rng = np.random.default_rng(9)
        return (Tensor(rng.standard_normal((1, 2, 8, 8)).astype(np.float32)),)


@pytest.fixture
def model():
    return TinyNet()


class TestRegistry:
    def test_all_registered(self):
        assert set(FRAMEWORK_REGISTRY) >= {"psqs", "clipq", "rtoss",
                                           "lidarptq"}

    def test_build_by_fuzzy_name(self):
        assert isinstance(build_framework("Ps&Qs"), PsAndQs)
        assert isinstance(build_framework("CLIP-Q"), ClipQ)
        assert isinstance(build_framework("r-toss"), RToss)
        assert isinstance(build_framework("LiDAR-PTQ"), LidarPTQ)

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            build_framework("sparseml")


class TestPsAndQs:
    def test_hits_target_sparsity(self, model):
        fw = PsAndQs(target_sparsity=0.4, bits=8)
        report = fw.compress(model, *model.example_inputs())
        assert report.overall_sparsity == pytest.approx(0.4, abs=0.08)

    def test_uniform_bits(self, model):
        report = PsAndQs(bits=8).compress(model, *model.example_inputs())
        assert {c.bits for c in report.choices} == {8}

    def test_scheme_unstructured(self, model):
        report = PsAndQs().compress(model, *model.example_inputs())
        from repro.hardware import get_annotation
        for _, module in report.model.named_modules():
            if hasattr(module, "kernel_size"):
                assert get_annotation(module).scheme == "unstructured"

    def test_compression_near_paper_value(self, model):
        report = PsAndQs().compress(model, *model.example_inputs())
        assert 1.4 < report.compression_ratio < 2.6   # paper: 1.89×

    def test_invalid_sparsity_raises(self):
        with pytest.raises(ValueError):
            PsAndQs(target_sparsity=1.0)


class TestClipQ:
    def test_clip_fraction_pruned(self, model):
        report = ClipQ(clip_percentile=30).compress(
            model, *model.example_inputs())
        assert report.overall_sparsity == pytest.approx(0.3, abs=0.05)

    def test_small_weights_pruned_large_kept(self, model):
        report = ClipQ(clip_percentile=50).compress(
            model, *model.example_inputs())
        orig = dict(model.named_parameters())["conv1.weight"].data
        comp = dict(report.model.named_parameters())["conv1.weight"].data
        threshold = np.percentile(np.abs(orig), 50)
        assert (comp[np.abs(orig) <= threshold * 0.999] == 0).all()
        assert (comp[np.abs(orig) > threshold * 1.3] != 0).all()

    def test_invalid_percentile_raises(self):
        with pytest.raises(ValueError):
            ClipQ(clip_percentile=100.0)


class TestRToss:
    def test_entry_patterns_have_requested_entries(self):
        for n, patterns in ENTRY_PATTERNS.items():
            for mask in patterns:
                assert mask.sum() <= n
                assert mask.sum() >= 2

    def test_3x3_kernels_patterned(self, model):
        report = RToss(n_entries=3, connectivity_percentile=0).compress(
            model, *model.example_inputs())
        weights = dict(report.model.named_parameters())["conv1.weight"].data
        nnz = (weights != 0).reshape(-1, 9).sum(axis=1)
        assert (nnz <= 3).all()

    def test_connectivity_pruning_kills_weak_kernels(self, model):
        report = RToss(n_entries=3, connectivity_percentile=40).compress(
            model, *model.example_inputs())
        weights = dict(report.model.named_parameters())["conv1.weight"].data
        kernel_nnz = (weights != 0).reshape(-1, 9).sum(axis=1)
        assert (kernel_nnz == 0).sum() >= int(0.3 * len(kernel_nnz))

    def test_1x1_layers_untouched(self, model):
        report = RToss().compress(model, *model.example_inputs())
        orig = dict(model.named_parameters())["proj.weight"].data
        comp = dict(report.model.named_parameters())["proj.weight"].data
        np.testing.assert_array_equal(orig, comp)

    def test_no_quantization(self, model):
        report = RToss().compress(model, *model.example_inputs())
        assert all(c.bits == 32 for c in report.choices)

    def test_per_kernel_masks_differ(self, model):
        # Unlike UPAQ, R-TOSS picks the mask per kernel.
        report = RToss(connectivity_percentile=0).compress(
            model, *model.example_inputs())
        weights = dict(report.model.named_parameters())["conv1.weight"].data
        masks = (weights != 0).reshape(-1, 9)
        assert len({tuple(m) for m in masks.tolist()}) > 1

    def test_invalid_entries_raises(self):
        with pytest.raises(ValueError):
            RToss(n_entries=7)


class TestLidarPTQ:
    def test_no_pruning(self, model):
        report = LidarPTQ().compress(model, *model.example_inputs())
        assert report.overall_sparsity < 0.05
        # Calibration observes through the layer-call seam: no module
        # of either model is left with an instance ``forward``.
        for net in (model, report.model):
            assert all("forward" not in vars(m) for m in net.modules())

    def test_boundary_layers_high_precision(self, model):
        report = LidarPTQ(bits=8, boundary_bits=16).compress(
            model, *model.example_inputs())
        by_layer = {c.layer: c.bits for c in report.choices}
        assert by_layer["conv1"] == 16
        assert by_layer["proj"] == 16
        assert by_layer["conv2"] == 8

    def test_no_finetuning_flag(self):
        assert LidarPTQ.uses_finetuning is False

    def test_quantization_error_small(self, model):
        report = LidarPTQ().compress(model, *model.example_inputs())
        orig = dict(model.named_parameters())["conv2.weight"].data
        comp = dict(report.model.named_parameters())["conv2.weight"].data
        rel_err = np.abs(orig - comp).max() / np.abs(orig).max()
        assert rel_err < 0.02

    def test_adaptive_rounding_beats_or_matches_nearest_on_output(self):
        """Error-feedback rounding should reduce accumulated output bias."""
        rng = np.random.default_rng(5)
        weights = rng.standard_normal((8, 64)).astype(np.float64) * 0.1
        x = np.abs(rng.standard_normal((64, 256)))   # post-ReLU activations
        from repro.baselines.lidar_ptq import _adaptive_round
        from repro.core import quantize_to_int
        _, scale = quantize_to_int(weights.astype(np.float32), 6)
        moments = (x ** 2).mean(axis=1)
        adaptive = _adaptive_round(weights, scale, 6, moments)
        codes, _ = quantize_to_int(weights.astype(np.float32), 6)
        nearest = codes * scale
        err_adaptive = np.abs((adaptive - weights) @ x).mean()
        err_nearest = np.abs((nearest - weights) @ x).mean()
        assert err_adaptive <= err_nearest * 1.05


class TestFinetune:
    def test_masked_finetune_preserves_zeros(self):
        from repro.models import PointPillars
        from repro.pointcloud import (LidarConfig, SceneConfig,
                                      SceneGenerator)
        from repro.pointcloud.voxelize import PillarConfig

        pillar_cfg = PillarConfig(x_range=(0, 25.6), y_range=(-12.8, 12.8),
                                  pillar_size=0.8)
        model = PointPillars(pillar_config=pillar_cfg, pfn_channels=8,
                             stage_channels=(8, 16, 32),
                             stage_depths=(1, 1, 1), upsample_channels=8)
        scene_cfg = SceneConfig(
            x_range=(5, 24), y_range=(-10, 10),
            lidar=LidarConfig(channels=8, azimuth_steps=60))
        scene = SceneGenerator(scene_cfg, seed=0).generate(0,
                                                           with_image=False)
        fw = PsAndQs(target_sparsity=0.5, bits=8, iterations=1)
        report = fw.compress(model, *model.example_inputs())
        zero_before = {
            name: (param.data == 0)
            for name, param in report.model.named_parameters()
            if name.endswith("weight") and name[:-7] in report.masks}
        fw.finetune(report, [scene], epochs=1, lr=1e-3)
        for name, zeros in zero_before.items():
            weights = dict(report.model.named_parameters())[name].data
            assert (weights[zeros] == 0).all(), f"{name} regrew weights"
