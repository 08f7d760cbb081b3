"""Lowered integer execution in the inference engine.

Acceptance: ``InferenceEngine(execution="lowered")`` runs a compressed
PointPillars end-to-end through integer executors and its detections
match ``execution="reference"`` bit-for-bit after the final rescale;
``from_packed`` adopts the blob-embedded IR with no re-trace.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import UPAQCompressor, hck_config, pack_model
from repro.hardware import default_devices
from repro.ir import lower_executors, lowerable_nodes
from repro.models import PointPillars
from repro.nn.graph import layer_map
from repro.nn.tensor import Tensor
from repro.pointcloud import (LidarConfig, SceneConfig,
                              SceneGenerator)
from repro.runtime import InferenceEngine, LoweredProgram

from tests.models.conftest import TINY_PILLARS


def _tiny_pp(seed=0):
    return PointPillars(seed=seed, **TINY_PILLARS)


@pytest.fixture(scope="module")
def compressed():
    model = _tiny_pp(seed=1)
    report = UPAQCompressor(hck_config()).compress(
        model, *model.example_inputs())
    report.model.eval()
    return report


@pytest.fixture(scope="module")
def scenes():
    cfg = SceneConfig(x_range=(5, 24), y_range=(-10, 10),
                      lidar=LidarConfig(channels=10, azimuth_steps=80))
    generator = SceneGenerator(cfg, seed=0)
    return [generator.generate(i, with_image=False) for i in range(3)]


@pytest.fixture(scope="module")
def jetson():
    return default_devices()["jetson"]


def _box_tuples(result):
    return [(b.x, b.y, b.z, b.dx, b.dy, b.dz, b.yaw, b.label, b.score)
            for b in result.boxes]


def _empty_scene(scene):
    points = np.asarray(scene.points)
    return dataclasses.replace(
        scene, points=np.zeros((0, points.shape[1]), dtype=points.dtype))


class TestLoweredProgram:
    def test_compressed_model_lowers_executors(self, compressed):
        executors = lower_executors(compressed.ir, compressed.model)
        assert executors
        assert set(executors) \
            == {node.name for node in lowerable_nodes(compressed.ir)}

    @staticmethod
    def _first_layer(program, model):
        """The first lowered conv, its executor, and an input for it."""
        name = program.layer_names[0]
        module = layer_map(model)[name]
        x = Tensor(np.random.default_rng(0).standard_normal(
            (1, module.in_channels, 4, 4)).astype(np.float32))
        return module, program.executors[name], x

    def test_attached_routes_without_patching(self, compressed):
        """Inside the block each lowered layer runs its executor; the
        model itself is never patched."""
        model = compressed.model
        program = LoweredProgram(lower_executors(compressed.ir, model))
        module, executor, x = self._first_layer(program, model)
        with program.attached(model):
            assert all("forward" not in vars(m) for m in model.modules())
            np.testing.assert_array_equal(module(x).data,
                                          executor.forward(x).data)
        assert all("forward" not in vars(m) for m in model.modules())
        np.testing.assert_array_equal(module(x).data,
                                      module.forward(x).data)

    def test_restores_on_exception(self, compressed):
        model = compressed.model
        program = LoweredProgram(lower_executors(compressed.ir, model))
        module, _, x = self._first_layer(program, model)
        with pytest.raises(RuntimeError):
            with program.attached(model):
                raise RuntimeError("inference blew up")
        assert all("forward" not in vars(m) for m in model.modules())
        np.testing.assert_array_equal(module(x).data,
                                      module.forward(x).data)

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="execution mode"):
            LoweredProgram({}, mode="float128")


class TestEngineParity:
    """The headline guarantee: lowered ≡ reference, bit for bit."""

    def test_detections_match_bit_for_bit(self, compressed, scenes,
                                          jetson):
        reference = InferenceEngine(compressed.model, jetson,
                                    execution="reference",
                                    ir=compressed.ir)
        lowered = InferenceEngine(compressed.model, jetson,
                                  execution="lowered", ir=compressed.ir)
        ref_report = reference.run(scenes)
        low_report = lowered.run(scenes)
        assert len(low_report.predictions) == len(scenes)
        for ref, low in zip(ref_report.predictions,
                            low_report.predictions):
            assert _box_tuples(low) == _box_tuples(ref)

    def test_lowered_path_actually_runs_executors(self, compressed,
                                                  jetson):
        engine = InferenceEngine(compressed.model, jetson,
                                 execution="lowered", ir=compressed.ir)
        assert engine.program.mode == "lowered"
        assert len(engine.program) > 0

    def test_quantization_changes_detections_vs_uncompressed(
            self, compressed, scenes, jetson):
        """Sanity that parity is not vacuous: the quantized executors
        really do produce different numerics than the float model."""
        float_model = _tiny_pp(seed=1)
        float_model.eval()
        float_result = float_model.predict(scenes[0])
        engine = InferenceEngine(compressed.model, jetson,
                                 execution="lowered", ir=compressed.ir)
        [lowered_result] = engine.program.predict_window(engine.model,
                                                         [scenes[0]])
        assert _box_tuples(lowered_result) != _box_tuples(float_result)

    def test_bad_execution_mode_rejected(self, jetson):
        # A removed mode name must fail loudly, never fall back.
        for mode in ("fast", "lowered-sparse"):
            with pytest.raises(ValueError, match="execution mode"):
                InferenceEngine(_tiny_pp(), jetson, execution=mode)

    def test_uncompressed_model_runs_plain_forward(self, scenes, jetson):
        """A dense fp32 model has no lowerable nodes; both modes fall
        back to the normal float forward and agree exactly."""
        model = _tiny_pp(seed=5)
        model.eval()
        engine = InferenceEngine(model, jetson, execution="lowered")
        assert len(engine.program) == 0
        plain = model.predict(scenes[0])
        [routed] = engine.program.predict_window(engine.model,
                                                 [scenes[0]])
        assert _box_tuples(routed) == _box_tuples(plain)


class TestEmptyFrameBoundary:
    """A zero-point scene scatters onto an all-zero canvas: every
    executor sees all-zero codes, and the frame must still yield a valid
    prediction — bit-identical across modes and batching."""

    def test_empty_scene_matches_across_modes(self, compressed, scenes,
                                              jetson):
        empty = _empty_scene(scenes[0])
        outputs = {}
        for mode in ("reference", "lowered"):
            engine = InferenceEngine(compressed.model, jetson,
                                     execution=mode, ir=compressed.ir)
            [result] = engine.program.predict_window(engine.model,
                                                     [empty])
            assert result.boxes is not None
            outputs[mode] = _box_tuples(result)
        assert outputs["lowered"] == outputs["reference"]

    def test_empty_scene_inside_batched_window(self, compressed, scenes,
                                               jetson):
        window = [scenes[0], _empty_scene(scenes[1]), scenes[2]]
        batched_engine = InferenceEngine(compressed.model, jetson,
                                         execution="lowered",
                                         ir=compressed.ir, batch_size=3)
        batched = batched_engine.program.predict_window(
            batched_engine.model, window)
        solo = InferenceEngine(compressed.model, jetson,
                               execution="lowered", ir=compressed.ir)
        sequential = [solo.program.predict_window(solo.model, [scene])[0]
                      for scene in window]
        assert len(batched) == len(window)
        for b, s in zip(batched, sequential):
            assert _box_tuples(b) == _box_tuples(s)


class TestFromPackedIR:
    def test_engine_adopts_blob_ir_without_retrace(self, compressed,
                                                   scenes, jetson,
                                                   monkeypatch):
        blob = pack_model(compressed.model, ir=compressed.ir)

        def _no_retrace(*args, **kwargs):
            raise AssertionError("engine re-traced a blob-restored model")
        monkeypatch.setattr("repro.ir.extract.compute_graph", _no_retrace)

        engine = InferenceEngine.from_packed(
            blob, _tiny_pp(seed=2), jetson, execution="lowered")
        assert engine.ir is not None
        assert engine.plan.compression_ratio \
            == compressed.compression_ratio
        report = engine.run(scenes[:1])
        assert report.num_frames == 1

    def test_packed_engine_matches_live_engine(self, compressed, scenes,
                                               jetson):
        blob = pack_model(compressed.model, ir=compressed.ir)
        packed_engine = InferenceEngine.from_packed(
            blob, _tiny_pp(seed=2), jetson, execution="lowered")
        live_engine = InferenceEngine(compressed.model, jetson,
                                      execution="lowered",
                                      ir=compressed.ir)
        packed = packed_engine.run(scenes[:2])
        live = live_engine.run(scenes[:2])
        for a, b in zip(packed.predictions, live.predictions):
            assert _box_tuples(a) == _box_tuples(b)
