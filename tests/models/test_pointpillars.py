"""Tests for the PointPillars detector."""

import numpy as np
import pytest

from repro import nn
from repro.models import PointPillars
from repro.models.pointpillars import PillarFeatureNet, SSDHead
from repro.nn import Tensor

from .conftest import TINY_PILLARS


class TestPillarFeatureNet:
    def test_output_shape(self):
        pfn = PillarFeatureNet(out_channels=16, max_points_per_pillar=8)
        points = Tensor(np.random.default_rng(0)
                        .standard_normal((9, 80)).astype(np.float32))
        out = pfn(points, np.full(10, 8))
        assert out.shape == (10, 16)

    def test_masked_points_ignored(self):
        # The graph path pads each pillar to max_points_per_pillar
        # slots; however many padding slots there are, they must not
        # change the output.
        rng = np.random.default_rng(1)
        points = Tensor(rng.standard_normal((9, 9)).astype(np.float32))
        counts = np.array([3, 3, 3])
        outs = []
        for max_points in (6, 12):
            pfn = PillarFeatureNet(out_channels=4,
                                   max_points_per_pillar=max_points,
                                   rng=np.random.default_rng(2))
            pfn.eval()
            outs.append(pfn(points, counts).data)
        np.testing.assert_allclose(outs[0], outs[1], atol=1e-5)

    def test_uses_1x1_convolution(self):
        pfn = PillarFeatureNet(out_channels=4)
        assert pfn.conv.kernel_size == 1   # Algorithm 5's target layer


class TestSSDHeadFlattening:
    def test_flatten_matches_anchor_order(self):
        """The flattened head output must align with AnchorGrid ordering."""
        head = SSDHead(in_channels=4, anchors_per_cell=6)
        h, w = 3, 4
        rng = np.random.default_rng(0)
        features = Tensor(rng.standard_normal((1, 4, h, w))
                          .astype(np.float32))
        outputs = head(features)
        cls_flat, reg_flat = head.flatten_outputs(outputs)
        assert cls_flat.shape == (h * w * 6,)
        assert reg_flat.shape == (h * w * 6, 7)
        # Anchor (row=1, col=2, a=3) sits at index ((1*w)+2)*6 + 3.
        idx = (1 * w + 2) * 6 + 3
        assert cls_flat.data[idx] == pytest.approx(
            outputs["cls"].data[0, 3, 1, 2])
        np.testing.assert_allclose(
            reg_flat.data[idx],
            outputs["reg"].data[0, 3 * 7:(3 + 1) * 7, 1, 2])


class TestPointPillarsModel:
    def test_forward_shapes(self, tiny_pointpillars, tiny_scene):
        out = tiny_pointpillars.forward(
            *tiny_pointpillars.preprocess(tiny_scene))
        ny, nx = tiny_pointpillars.pillar_config.grid_shape
        assert out["cls"].shape == (1, 6, ny // 2, nx // 2)
        assert out["reg"].shape == (1, 42, ny // 2, nx // 2)

    def test_example_inputs_run(self, tiny_pointpillars):
        out = tiny_pointpillars.forward(*tiny_pointpillars.example_inputs())
        assert np.isfinite(out["cls"].data).all()

    def test_loss_finite_and_differentiable(self, tiny_scene):
        model = PointPillars(seed=1, **TINY_PILLARS)
        outputs = model.forward(*model.preprocess(tiny_scene))
        loss = model.loss(outputs, tiny_scene)
        assert np.isfinite(loss.item())
        loss.backward()
        grads = [p.grad for p in model.parameters() if p.grad is not None]
        assert len(grads) > 0
        assert all(np.isfinite(g).all() for g in grads)

    def test_predict_returns_result(self, tiny_pointpillars, tiny_scene):
        result = tiny_pointpillars.predict(tiny_scene)
        assert result.frame_id == tiny_scene.frame_id
        for box in result.boxes:
            assert box.label in ("Car", "Pedestrian", "Cyclist")
            assert 0.0 <= box.score <= 1.0

    def test_train_step_reduces_loss(self, tiny_scene):
        model = PointPillars(seed=2, **TINY_PILLARS)
        opt = nn.optim.Adam(model.parameters(), lr=5e-3)
        first = model.train_step(opt, tiny_scene)
        for _ in range(8):
            last = model.train_step(opt, tiny_scene)
        assert last < first

    def test_anchor_grid_matches_head_output(self, tiny_pointpillars):
        ny, nx = tiny_pointpillars.pillar_config.grid_shape
        assert len(tiny_pointpillars.anchor_grid) == (ny // 2) * (nx // 2) * 6
