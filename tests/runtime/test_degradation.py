"""Degradation policies, the deadline watchdog, and the chaos acceptance
test: a seeded fault-injected stream completes with counters exactly
matching the injected schedule, twice over."""

import math

import numpy as np
import pytest

from repro.core import (BlobCorruptionError, UPAQCompressor, hck_config,
                        pack_model)
from repro.hardware import default_devices
from repro.hardware.device import DeviceModel
from repro.models import PointPillars
from repro.pointcloud import (LidarConfig, SceneConfig, SceneGenerator,
                              PillarConfig)
from repro.runtime import (DegradationLadder, DegradationPolicy,
                           FaultInjector, FaultSpec, InferenceEngine,
                           LadderRung, StreamReport)


def _tiny_pp(seed=0):
    return PointPillars(
        pillar_config=PillarConfig(x_range=(0, 25.6), y_range=(-12.8, 12.8)),
        pfn_channels=8, stage_channels=(8, 16, 32), stage_depths=(1, 1, 1),
        upsample_channels=8, seed=seed)


def _fallback_ladder(primary, fallback):
    """Two rungs, never promoting: the watchdog swaps once and stays."""
    return DegradationLadder([LadderRung(name="primary", model=primary),
                              LadderRung(name="fallback", model=fallback)],
                             promote_after=0, probation=0)


@pytest.fixture(scope="module")
def scenes():
    cfg = SceneConfig(x_range=(5, 24), y_range=(-10, 10),
                      lidar=LidarConfig(channels=10, azimuth_steps=80))
    generator = SceneGenerator(cfg, seed=0)
    return [generator.generate(i, with_image=False) for i in range(20)]


@pytest.fixture(scope="module")
def jetson():
    return default_devices()["jetson"]


class TestChaosAcceptance:
    """Seeded 10% drop / 5% corruption / jitter run, counters exact."""

    SPEC = FaultSpec(drop_rate=0.10, corrupt_rate=0.05,
                     jitter="lognormal", jitter_scale_s=0.002, seed=7)

    def _run(self, scenes, jetson):
        engine = InferenceEngine(_tiny_pp(), jetson, deadline_s=0.1,
                                 fault_injector=FaultInjector(self.SPEC))
        return engine.run(scenes)

    def test_counters_match_injected_schedule(self, scenes, jetson):
        report = self._run(scenes, jetson)
        schedule = FaultInjector(self.SPEC).schedule(
            [s.frame_id for s in scenes])
        expected_dropped = sum(f.dropped for f in schedule)
        expected_degraded = sum(f.corrupted for f in schedule)
        assert report.num_frames == len(scenes)
        assert report.dropped_frames == expected_dropped
        assert report.degraded_frames == expected_degraded
        assert report.ok_frames == len(scenes) - expected_dropped \
            - expected_degraded
        assert len(report.predictions) == len(scenes)
        # The jitter of every processed frame lands in its latency.
        by_id = {f.frame_id: f for f in schedule}
        base = InferenceEngine(_tiny_pp(), jetson).frame_cost()[0]
        for record in report.frames:
            if record.status == "ok":
                assert record.device_latency_s == pytest.approx(
                    base + by_id[record.frame_id].jitter_s)
            else:
                assert record.device_latency_s == 0.0

    def test_same_seed_runs_are_identical(self, scenes, jetson):
        a = self._run(scenes, jetson)
        b = self._run(scenes, jetson)
        assert a.frames == b.frames
        assert a.status_counts == b.status_counts
        assert a.deadline_hit_rate == b.deadline_hit_rate
        for pa, pb in zip(a.predictions, b.predictions):
            assert len(pa.boxes) == len(pb.boxes)

    def test_status_counts_partition_the_stream(self, scenes, jetson):
        report = self._run(scenes, jetson)
        counts = report.status_counts
        assert sum(counts.values()) == report.num_frames
        assert set(counts) == {"ok", "degraded", "dropped", "failed"}
        # "failed" only ever comes from serving-window crashes, never
        # from chaos injection on a solo engine.
        assert counts["failed"] == 0


class TestDegradationPolicy:
    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError):
            DegradationPolicy(on_corrupt="retry")
        with pytest.raises(ValueError):
            DegradationPolicy(max_consecutive_misses=-1)

    def test_last_good_holds_previous_detections(self, scenes, jetson):
        injector = FaultInjector(FaultSpec(corrupt_rate=1.0, seed=0))
        engine = InferenceEngine(_tiny_pp(), jetson,
                                 fault_injector=injector)
        clean_first = engine.model.predict(scenes[0])
        # First frame corrupt with no last-good → empty; stream a clean
        # engine over [clean, corrupt] to see the hold.
        held_engine = InferenceEngine(
            _tiny_pp(), jetson,
            policy=DegradationPolicy(on_corrupt="last_good"))
        corrupt = scenes[1]
        poisoned = injector.apply(corrupt, injector.faults_for(
            corrupt.frame_id))
        report = held_engine.run([scenes[0], poisoned])
        assert [f.status for f in report.frames] == ["ok", "degraded"]
        assert len(report.predictions[1].boxes) == len(clean_first.boxes)
        assert report.predictions[1].frame_id == corrupt.frame_id

    def test_skip_policy_marks_dropped(self, scenes, jetson):
        engine = InferenceEngine(
            _tiny_pp(), jetson,
            policy=DegradationPolicy(on_corrupt="skip"),
            fault_injector=FaultInjector(FaultSpec(corrupt_rate=1.0,
                                                   seed=0)))
        report = engine.run(scenes[:3])
        assert all(f.status == "dropped" for f in report.frames)
        assert all(not p.boxes for p in report.predictions)

    def test_nan_frames_detected_without_injector(self, scenes, jetson):
        """A corrupt frame from the wild (no injector) still degrades."""
        import copy
        poisoned = copy.copy(scenes[0])
        poisoned.points = scenes[0].points.copy()
        poisoned.points[0, 2] = np.nan
        engine = InferenceEngine(_tiny_pp(), jetson)
        report = engine.run([poisoned])
        assert report.frames[0].status == "degraded"


class TestDeadlineWatchdog:
    def test_fallback_swap_after_consecutive_misses(self, scenes, jetson):
        model = _tiny_pp()
        compressed = UPAQCompressor(hck_config()).compress(
            model, *model.example_inputs()).model
        # Deadline between the compressed and uncompressed cost: the
        # primary misses every frame, the fallback recovers.
        slow_engine = InferenceEngine(_tiny_pp(), jetson)
        fast_engine = InferenceEngine(compressed, jetson)
        slow_cost = slow_engine.frame_cost()[0]
        fast_cost = fast_engine.frame_cost()[0]
        deadline = (slow_cost + fast_cost) / 2
        engine = InferenceEngine(
            None, jetson, deadline_s=deadline,
            policy=DegradationPolicy(max_consecutive_misses=3),
            ladder=_fallback_ladder(_tiny_pp(), compressed))
        report = engine.run(scenes[:8])
        assert engine.on_fallback
        assert report.fallback_activations == 1
        statuses = [(f.deadline_met, f.fallback) for f in report.frames]
        # Three misses on the primary, then the fallback meets it.
        assert statuses[:3] == [(False, False)] * 3
        assert all(met and fb for met, fb in statuses[3:])

    def test_watchdog_disabled_without_fallback(self, scenes, jetson):
        engine = InferenceEngine(
            _tiny_pp(), jetson, deadline_s=1e-9,
            policy=DegradationPolicy(max_consecutive_misses=2))
        report = engine.run(scenes[:5])
        assert not engine.on_fallback
        assert report.fallback_activations == 0
        assert report.deadline_hit_rate == 0.0

    def test_miss_limit_zero_never_swaps(self, scenes, jetson):
        engine = InferenceEngine(
            None, jetson, deadline_s=1e-9,
            policy=DegradationPolicy(max_consecutive_misses=0),
            ladder=_fallback_ladder(_tiny_pp(), _tiny_pp()))
        engine.run(scenes[:4])
        assert not engine.on_fallback


class TestPerFrameCost:
    def test_cost_hook_varies_each_frame(self, scenes, jetson):
        calls = []

        def hook(frame_id, latency, energy):
            calls.append(frame_id)
            return latency * (1 + frame_id), energy

        engine = InferenceEngine(_tiny_pp(), jetson, deadline_s=10.0,
                                 cost_hook=hook)
        report = engine.run(scenes[:3])
        assert calls == [s.frame_id for s in scenes[:3]]
        latencies = [f.device_latency_s for f in report.frames]
        assert latencies[0] < latencies[1] < latencies[2]

    def test_deadline_evaluated_per_frame(self, scenes, jetson):
        """A hook pushing one frame over the deadline flags only it."""
        base = InferenceEngine(_tiny_pp(), jetson).frame_cost()[0]

        def hook(frame_id, latency, energy):
            return (latency * 100 if frame_id == 1 else latency), energy

        engine = InferenceEngine(_tiny_pp(), jetson, deadline_s=base * 2,
                                 cost_hook=hook)
        report = engine.run(scenes[:3])
        assert [f.deadline_met for f in report.frames] == \
            [True, False, True]

    def test_bare_frame_cost_bypasses_hook(self, jetson):
        engine = InferenceEngine(
            _tiny_pp(), jetson,
            cost_hook=lambda i, lat, en: (lat * 999, en))
        direct = engine.frame_cost()
        hooked = engine.frame_cost(frame_id=0)
        assert hooked[0] == pytest.approx(direct[0] * 999)

    def test_frame_cost_is_priced_once_per_engine(self, jetson,
                                                   monkeypatch):
        """Per-frame costs read the level's cached cost split: the
        device model prices the plan once, however many frames run."""
        calls = []
        layer_latency = DeviceModel.layer_latency

        def counting(self, layer):
            calls.append(layer.name)
            return layer_latency(self, layer)

        monkeypatch.setattr(DeviceModel, "layer_latency", counting)
        cfg = SceneConfig(x_range=(5, 24), y_range=(-10, 10),
                          lidar=LidarConfig(channels=10, azimuth_steps=80))
        generator = SceneGenerator(cfg, seed=1)
        stream = [generator.generate(i, with_image=False)
                  for i in range(32)]
        counts = []
        for frames in (1, 32):
            calls.clear()
            engine = InferenceEngine(_tiny_pp(), jetson, deadline_s=10.0)
            report = engine.run(stream[:frames])
            assert report.ok_frames == frames
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0


class TestEmptyStream:
    def test_hit_rate_is_nan(self):
        assert math.isnan(StreamReport().deadline_hit_rate)

    def test_engine_run_on_empty_iterable(self, jetson):
        report = InferenceEngine(_tiny_pp(), jetson).run([])
        assert report.num_frames == 0
        assert math.isnan(report.deadline_hit_rate)

    def test_evaluate_raises_with_clear_message(self, jetson):
        report = InferenceEngine(_tiny_pp(), jetson).run([])
        with pytest.raises(ValueError, match="empty stream"):
            report.evaluate([])

    def test_fully_dropped_stream_has_nan_hit_rate(self, scenes, jetson):
        engine = InferenceEngine(
            _tiny_pp(), jetson,
            fault_injector=FaultInjector(FaultSpec(drop_rate=1.0, seed=0)))
        report = engine.run(scenes[:4])
        assert report.dropped_frames == 4
        assert math.isnan(report.deadline_hit_rate)


class TestFromPacked:
    """Satellite: pack → corrupt → restore raises; clean round trip
    predicts identically."""

    def _compressed_blob_and_model(self):
        model = _tiny_pp()
        report = UPAQCompressor(hck_config()).compress(
            model, *model.example_inputs())
        return pack_model(report.model), report.model

    def test_corrupt_byte_raises_blob_corruption(self, jetson):
        blob, _ = self._compressed_blob_and_model()
        mutated = bytearray(blob)
        mutated[len(mutated) // 2] ^= 0xFF
        with pytest.raises(BlobCorruptionError):
            InferenceEngine.from_packed(bytes(mutated), _tiny_pp(), jetson)

    def test_clean_roundtrip_predicts_identically(self, scenes, jetson):
        blob, compressed = self._compressed_blob_and_model()
        engine = InferenceEngine.from_packed(blob, _tiny_pp(), jetson)
        for scene in scenes[:3]:
            direct = compressed.predict(scene)
            restored = engine.model.predict(scene)
            assert len(direct.boxes) == len(restored.boxes)
            for a, b in zip(direct.boxes, restored.boxes):
                assert a.score == pytest.approx(b.score)
                assert (a.x, a.y, a.z) == \
                    pytest.approx((b.x, b.y, b.z))

    def test_from_packed_forwards_engine_kwargs(self, jetson):
        blob, _ = self._compressed_blob_and_model()
        injector = FaultInjector(FaultSpec(drop_rate=1.0, seed=0))
        engine = InferenceEngine.from_packed(
            blob, _tiny_pp(), jetson, fault_injector=injector,
            policy=DegradationPolicy(on_corrupt="skip"))
        assert engine.fault_injector is injector
        assert engine.policy.on_corrupt == "skip"
