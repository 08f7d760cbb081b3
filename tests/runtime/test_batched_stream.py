"""Micro-batched streaming: window execution ≡ sequential execution.

Acceptance for engine-level batching: for any ``batch_size`` the
stream report — predictions, FrameRecords, telemetry counters,
fallback bookkeeping — is identical to the ``batch_size=1`` run.
Faults keep their per-frame semantics: a corrupt frame in the middle
of a window degrades only itself, and a mid-window watchdog demotion
re-predicts the remaining frames on the fallback rung exactly as
sequential execution would have.
"""

import dataclasses

import numpy as np
import pytest

from repro import nn
from repro.cli import main
from repro.core import UPAQCompressor, hck_config
from repro.hardware import default_devices
from repro.models import PointPillars
from repro.pointcloud import (LidarConfig, PillarConfig, SceneConfig,
                              SceneGenerator)
from repro.runtime import (DegradationLadder, DegradationPolicy,
                           InferenceEngine, LadderRung, ServingEngine)


def _tiny_pp(seed=1):
    return PointPillars(
        pillar_config=PillarConfig(x_range=(0, 25.6), y_range=(-12.8, 12.8)),
        pfn_channels=8, stage_channels=(8, 16, 32), stage_depths=(1, 1, 1),
        upsample_channels=8, seed=seed)


@pytest.fixture(scope="module")
def compressed():
    model = _tiny_pp()
    report = UPAQCompressor(hck_config()).compress(
        model, *model.example_inputs())
    report.model.eval()
    return report


@pytest.fixture(scope="module")
def scenes():
    cfg = SceneConfig(x_range=(5, 24), y_range=(-10, 10),
                      lidar=LidarConfig(channels=10, azimuth_steps=80))
    generator = SceneGenerator(cfg, seed=0)
    return [generator.generate(i, with_image=False) for i in range(7)]


@pytest.fixture(scope="module")
def jetson():
    return default_devices()["jetson"]


def _boxes(report):
    return [[(b.x, b.y, b.z, b.dx, b.dy, b.dz, b.yaw, b.label, b.score)
             for b in p.boxes] for p in report.predictions]


def _poisoned(scene):
    points = scene.points.copy()
    points[0, 0] = np.nan
    return dataclasses.replace(scene, points=points)


class TestBatchedEqualsSequential:
    @pytest.mark.parametrize("execution", ["lowered", "reference"])
    @pytest.mark.parametrize("batch_size", [2, 3, 5, 7])
    def test_reports_identical(self, compressed, scenes, jetson,
                               batch_size, execution):
        def run(n):
            engine = InferenceEngine(compressed.model, jetson,
                                     execution=execution,
                                     ir=compressed.ir, telemetry=True,
                                     batch_size=n)
            return engine.run(scenes)

        sequential = run(1)
        batched = run(batch_size)
        assert batched.frames == sequential.frames
        assert _boxes(batched) == _boxes(sequential)
        assert set(batched.telemetry) == set(sequential.telemetry)
        for name, counter in sequential.telemetry.items():
            assert counter == batched.telemetry[name]

    def test_partial_final_window(self, compressed, scenes, jetson):
        """A stream shorter than the window still emits every frame."""
        engine = InferenceEngine(compressed.model, jetson,
                                 execution="lowered", ir=compressed.ir,
                                 batch_size=64)
        report = engine.run(scenes[:3])
        assert report.num_frames == 3
        assert [f.frame_id for f in report.frames] \
            == [s.frame_id for s in scenes[:3]]


class TestMidWindowFaults:
    def test_corrupt_frame_degrades_only_itself(self, compressed,
                                                scenes, jetson):
        """A NaN-poisoned frame in the middle of a batched window holds
        the last good detections; every neighbor is byte-identical to
        the sequential run of the same poisoned stream."""
        stream = list(scenes[:5])
        stream[2] = _poisoned(stream[2])

        def run(n):
            engine = InferenceEngine(compressed.model, jetson,
                                     execution="lowered",
                                     ir=compressed.ir, batch_size=n)
            return engine.run(stream)

        sequential = run(1)
        batched = run(4)
        assert batched.frames == sequential.frames
        assert _boxes(batched) == _boxes(sequential)
        statuses = [f.status for f in batched.frames]
        assert statuses == ["ok", "ok", "degraded", "ok", "ok"]
        boxes = _boxes(batched)
        assert boxes[2] == boxes[1]         # last-good hold
        assert batched.frames[2].device_latency_s == 0.0

    def test_skip_policy_in_window(self, compressed, scenes, jetson):
        stream = [_poisoned(scenes[0]), scenes[1], scenes[2]]
        engine = InferenceEngine(compressed.model, jetson,
                                 execution="lowered", ir=compressed.ir,
                                 policy=DegradationPolicy(
                                     on_corrupt="skip"),
                                 batch_size=3)
        report = engine.run(stream)
        assert [f.status for f in report.frames] \
            == ["dropped", "ok", "ok"]
        assert report.predictions[0].boxes == []

    def test_watchdog_splits_window(self, compressed, scenes, jetson):
        """An impossible deadline trips the watchdog mid-window; the
        remaining frames re-run on the fallback rung — identical to
        sequential execution, including the fallback flags."""
        def run(n):
            ladder = DegradationLadder(
                [LadderRung(name="primary", model=compressed.model,
                            ir=compressed.ir),
                 LadderRung(name="fallback", model=_tiny_pp(seed=5))],
                promote_after=0, probation=0)
            engine = InferenceEngine(
                None, jetson, deadline_s=1e-9, execution="lowered",
                ladder=ladder,
                policy=DegradationPolicy(max_consecutive_misses=2),
                batch_size=n)
            report = engine.run(scenes[:6])
            assert engine.on_fallback
            return report

        sequential = run(1)
        batched = run(4)
        for report in (sequential, batched):
            assert report.fallback_activations == 1
            assert [f.fallback for f in report.frames] \
                == [False, False, True, True, True, True]
        assert batched.frames == sequential.frames
        assert _boxes(batched) == _boxes(sequential)


class TestEvalOnce:
    """The engine switches every rung to eval once, at construction;
    inference after that never writes module state."""

    def test_construction_evals_every_rung(self, compressed, jetson):
        float_model = _tiny_pp(seed=2)
        compressed.model.train()
        float_model.train()
        InferenceEngine(None, jetson, ladder=DegradationLadder([
            LadderRung(name="hck", model=compressed.model,
                       ir=compressed.ir),
            LadderRung(name="float", model=float_model)]))
        for model in (compressed.model, float_model):
            assert not any(m.training for m in model.modules())

    def test_inference_never_calls_eval(self, compressed, scenes, jetson,
                                        monkeypatch):
        engines = [InferenceEngine(compressed.model, jetson,
                                   execution="lowered", ir=compressed.ir,
                                   batch_size=n) for n in (1, 4)]
        serving = ServingEngine(engines[1], replicas=2)
        calls = []
        original = nn.Module.eval
        monkeypatch.setattr(nn.Module, "eval",
                            lambda self: calls.append(self) or original(self))
        for engine in engines:
            assert len(engine.run(scenes).predictions) == len(scenes)
        with serving:
            reports = serving.serve({"a": scenes, "b": scenes[:3]})
        assert len(reports["a"].predictions) == len(scenes)
        assert calls == []


class TestBatchSizeValidation:
    @pytest.mark.parametrize("bad", [0, -1, 2.5, True, "2"])
    def test_rejects_non_positive_int(self, jetson, bad):
        with pytest.raises(ValueError, match="batch_size"):
            InferenceEngine(_tiny_pp(), jetson, batch_size=bad)

    def test_default_is_one(self, jetson):
        assert InferenceEngine(_tiny_pp(), jetson).batch_size == 1


class TestStreamBatchCLI:
    def test_batch_flag_runs(self, capsys, monkeypatch):
        import repro.models.registry as registry
        monkeypatch.setitem(registry.MODEL_REGISTRY, "tinypp",
                            lambda **kw: _tiny_pp())
        code = main(["stream", "--model", "tinypp", "--frames", "4",
                     "--batch", "2"])
        assert code == 0
        assert "stream: 4 frames" in capsys.readouterr().out

    @pytest.mark.parametrize("bad", ["0", "-3"])
    def test_rejects_bad_batch(self, capsys, monkeypatch, bad):
        import repro.models.registry as registry
        monkeypatch.setitem(registry.MODEL_REGISTRY, "tinypp",
                            lambda **kw: _tiny_pp())
        code = main(["stream", "--model", "tinypp", "--frames", "2",
                     "--batch", bad])
        assert code == 2
        assert "--batch must be >= 1" in capsys.readouterr().err
