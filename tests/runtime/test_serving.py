"""Multi-stream serving ≡ solo streaming, hammered.

Acceptance for the serving layer: per-stream reports produced under
the scheduler — frames, predictions, swap events, rung residency,
telemetry counters — are byte-equal to running each stream alone on a
solo :class:`InferenceEngine` with the same configuration.  Plus the
service contracts: typed admission rejects, bounded-queue
backpressure (never a silent drop), cross-stream micro-batch windows
forming only when shapes match, and per-stream telemetry isolation.
"""

import sys
import threading

import pytest

from repro.cli import main
from repro.core import UPAQCompressor, hck_config
from repro.hardware import default_devices
from repro.models import PointPillars
from repro.pointcloud import (LidarConfig, PillarConfig, SceneConfig,
                              SceneGenerator)
from repro.runtime import (AdmissionError, BackpressureError,
                           DegradationPolicy, InferenceEngine,
                           ServingEngine, StreamSLO)


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
def jetson():
    return default_devices()["jetson"]


def _scene_streams(count=4, frames=5, with_image=False):
    cfg = SceneConfig(x_range=(5, 24), y_range=(-10, 10),
                      lidar=LidarConfig(channels=10, azimuth_steps=80))
    streams = {}
    for index in range(count):
        generator = SceneGenerator(cfg, seed=index)
        streams[f"s{index}"] = [
            generator.generate(1000 * index + frame,
                               with_image=with_image)
            for frame in range(frames)]
    return streams


def _boxes(report):
    return [[(b.x, b.y, b.z, b.dx, b.dy, b.dz, b.yaw, b.label, b.score)
             for b in p.boxes] for p in report.predictions]


def _assert_reports_equal(got, ref):
    """Byte-equality of everything a solo report records."""
    assert got.frames == ref.frames
    assert _boxes(got) == _boxes(ref)
    assert got.swap_events == ref.swap_events
    assert got.fallback_activations == ref.fallback_activations
    assert got.rung_residency == ref.rung_residency
    assert got.deadline_s == ref.deadline_s
    assert got.telemetry == ref.telemetry


def _solo_engine(compressed, jetson, **kwargs):
    kwargs.setdefault("execution", "lowered")
    kwargs.setdefault("batch_size", 4)
    return InferenceEngine(compressed.model, jetson, ir=compressed.ir,
                           **kwargs)


# ---------------------------------------------------------------------------
# Byte-equality vs solo engines
# ---------------------------------------------------------------------------

def test_four_streams_byte_equal_to_solo(compressed, jetson):
    streams = _scene_streams(count=4, frames=5)
    with ServingEngine(_solo_engine(compressed, jetson)) as serving:
        reports = serving.serve(streams)
        stats = serving.stats()
    assert stats.frames_completed == 20
    # Concurrent clients over a shared batch_size=4 engine must have
    # formed at least one cross-stream window.
    assert stats.cross_stream_windows > 0
    for name, scenes in streams.items():
        ref = _solo_engine(compressed, jetson).run(scenes)
        _assert_reports_equal(reports[name], ref)


def test_streams_with_faults_and_ladder_byte_equal(compressed, jetson):
    """Swap events and rung residency survive the scheduler byte-equal.

    Each stream gets its own deadline and a cost hook that forces
    deadline misses on chosen frames, so the watchdog demotes (and
    with promotion enabled, climbs back) mid-stream — under serving
    the swaps must land on exactly the same frames as solo.
    """
    from repro.runtime import DegradationLadder, LadderRung

    def hook(frame_id, latency, energy):
        # Frames 2..4 of every stream blow the deadline.
        if frame_id % 1000 in (2, 3, 4):
            return latency * 1000.0, energy
        return latency, energy

    def ladder():
        other = _tiny_pp(seed=2)
        rep2 = UPAQCompressor(hck_config()).compress(
            other, *other.example_inputs())
        rep2.model.eval()
        return DegradationLadder(
            [LadderRung(name="primary", model=compressed.model,
                        ir=compressed.ir),
             LadderRung(name="cheap", model=rep2.model, ir=rep2.ir)],
            promote_after=2, probation=1)

    policy = DegradationPolicy(max_consecutive_misses=2)
    streams = _scene_streams(count=2, frames=8)
    shared = ladder()
    engine = InferenceEngine(None, jetson, ladder=shared,
                             deadline_s=0.01, execution="lowered",
                             batch_size=4, policy=policy,
                             cost_hook=hook)
    with ServingEngine(engine) as serving:
        reports = serving.serve(streams)
    solo_ladder = ladder()
    for name, scenes in streams.items():
        solo = InferenceEngine(None, jetson, ladder=solo_ladder,
                               deadline_s=0.01, execution="lowered",
                               batch_size=4, policy=policy,
                               cost_hook=hook)
        ref = solo.run(scenes)
        assert ref.swap_events, "test needs actual swaps to be meaningful"
        _assert_reports_equal(reports[name], ref)


def test_per_stream_slo_overrides_byte_equal(compressed, jetson):
    """Per-stream deadlines, policies and injectors match solo engines
    configured the same way."""
    from repro.runtime import FaultInjector, FaultSpec

    streams = _scene_streams(count=2, frames=6)
    spec = FaultSpec(drop_rate=0.2, corrupt_rate=0.2, seed=7)
    slos = {
        "s0": StreamSLO(deadline_s=0.0001,
                        policy=DegradationPolicy(on_corrupt="skip",
                                                 max_consecutive_misses=0),
                        fault_injector=FaultInjector(spec)),
        "s1": StreamSLO(deadline_s=0.5),
    }
    with ServingEngine(_solo_engine(compressed, jetson)) as serving:
        reports = serving.serve(streams, slos=slos)
    ref0 = _solo_engine(
        compressed, jetson, deadline_s=0.0001,
        policy=DegradationPolicy(on_corrupt="skip",
                                 max_consecutive_misses=0),
        fault_injector=FaultInjector(spec)).run(streams["s0"])
    ref1 = _solo_engine(compressed, jetson,
                        deadline_s=0.5).run(streams["s1"])
    _assert_reports_equal(reports["s0"], ref0)
    _assert_reports_equal(reports["s1"], ref1)


def test_telemetry_streams_isolated_and_byte_equal(compressed, jetson):
    """Per-stream telemetry counters equal the solo engine's and never
    leak across streams.

    Telemetry streams run single-frame windows (per-layer counts can't
    be split across a batched pass), so the solo reference uses
    ``batch_size=1``.
    """
    streams = _scene_streams(count=3, frames=4)
    slos = {"s0": StreamSLO(telemetry=True),
            "s1": StreamSLO(telemetry=True)}    # s2: telemetry off
    with ServingEngine(_solo_engine(compressed, jetson)) as serving:
        reports = serving.serve(streams, slos=slos)
    for name in ("s0", "s1"):
        ref = _solo_engine(compressed, jetson, batch_size=1,
                           telemetry=True).run(streams[name])
        _assert_reports_equal(reports[name], ref)
        assert reports[name].telemetry
    assert reports["s2"].telemetry == {}


def test_concurrent_windows_count_into_their_own_maps(compressed, jetson):
    """Windows run on one engine from two threads at once (what the
    process backend's local fallback does) each count into the map they
    were given: every per-window map equals a solo run's."""
    engine = _solo_engine(compressed, jetson)
    level = engine._levels[0]
    scenes = _scene_streams(count=1, frames=2)["s0"]
    solo = {}
    engine._window_results(level, scenes, collectors=solo)
    assert solo
    maps, errors = [[], []], []

    def worker(k):
        try:
            for _ in range(20):
                collectors = {}
                engine._window_results(level, scenes, collectors=collectors)
                maps[k].append(collectors)
        except BaseException as exc:    # surfaced by the assert below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,))
                   for k in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert [len(runs) for runs in maps] == [20, 20]
    assert all(collectors == solo for runs in maps for collectors in runs)


def test_threaded_clients_interleaved_submission(compressed, jetson):
    """Clients submitting frame-by-frame from their own threads (the
    serve() convenience aside) still get byte-equal reports."""
    streams = _scene_streams(count=4, frames=4)
    with ServingEngine(_solo_engine(compressed, jetson)) as serving:
        handles = {name: serving.open_stream(name) for name in streams}

        def client(name):
            for scene in streams[name]:
                handles[name].submit(scene)
            handles[name].close()

        threads = [threading.Thread(target=client, args=(name,))
                   for name in streams]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        reports = {name: handles[name].result(timeout=120)
                   for name in streams}
        for name in streams:
            assert len(handles[name].service_latencies) == 4
    for name, scenes in streams.items():
        ref = _solo_engine(compressed, jetson).run(scenes)
        _assert_reports_equal(reports[name], ref)


# ---------------------------------------------------------------------------
# Batching rules
# ---------------------------------------------------------------------------

def test_mixed_shapes_never_share_windows(compressed, jetson):
    """Streams with mismatched scene signatures (camera image present
    vs absent) are served but never batched together."""
    with_image = _scene_streams(count=1, frames=4, with_image=True)
    without = _scene_streams(count=1, frames=4)
    streams = {"cam": with_image["s0"], "lidar": without["s0"]}
    with ServingEngine(_solo_engine(compressed, jetson)) as serving:
        reports = serving.serve(streams)
        stats = serving.stats()
    assert stats.cross_stream_windows == 0
    assert stats.frames_completed == 8
    for name, scenes in streams.items():
        ref = _solo_engine(compressed, jetson).run(scenes)
        _assert_reports_equal(reports[name], ref)


def test_batch_size_one_engine_never_batches(compressed, jetson):
    streams = _scene_streams(count=2, frames=3)
    engine = _solo_engine(compressed, jetson, batch_size=1)
    with ServingEngine(engine) as serving:
        serving.serve(streams)
        stats = serving.stats()
    assert stats.cross_stream_windows == 0
    assert stats.batched_frames == 0
    assert stats.windows == 6


# ---------------------------------------------------------------------------
# Admission control and backpressure
# ---------------------------------------------------------------------------

def test_admission_rejects_past_max_streams(compressed, jetson):
    with ServingEngine(_solo_engine(compressed, jetson),
                       max_streams=2) as serving:
        serving.open_stream("a")
        serving.open_stream("b")
        with pytest.raises(AdmissionError, match="max_streams"):
            serving.open_stream("c")


def test_admission_rejects_duplicate_and_unknown_streams(
        compressed, jetson):
    streams = _scene_streams(count=1, frames=1)
    scene = streams["s0"][0]
    with ServingEngine(_solo_engine(compressed, jetson)) as serving:
        serving.open_stream("a")
        with pytest.raises(AdmissionError, match="already exists"):
            serving.open_stream("a")
        with pytest.raises(AdmissionError, match="unknown stream"):
            serving.submit("nope", scene)
        serving.close_stream("a")
        with pytest.raises(AdmissionError, match="closed"):
            serving.submit("a", scene)


def test_backpressure_typed_reject_not_silent_drop(compressed, jetson):
    """Past the bounded queue, block=False raises immediately and a
    blocking submit with a timeout raises after it — and every frame
    that was admitted is still served (nothing silently dropped)."""
    streams = _scene_streams(count=1, frames=6)
    scenes = streams["s0"]
    engine = _solo_engine(compressed, jetson, batch_size=1)
    with ServingEngine(engine, queue_depth=2) as serving:
        handle = serving.open_stream("s0",
                                     StreamSLO(queue_depth=2))
        admitted = 0
        rejected = 0
        for scene in scenes:
            try:
                handle.submit(scene, block=False)
                admitted += 1
            except BackpressureError:
                rejected += 1
        assert rejected > 0, "queue_depth=2 never filled — no pressure"
        with pytest.raises(BackpressureError):
            # Refill to the bound, then prove the timeout path.
            while True:
                handle.submit(scenes[0], block=False)
                admitted += 1
        with pytest.raises(BackpressureError, match="full"):
            handle.submit(scenes[0], timeout=0.001)
        handle.close()
        report = handle.result(timeout=120)
        stats = serving.stats()
    assert report.num_frames == admitted
    assert stats.frames_rejected >= rejected + 1
    assert stats.frames_completed == admitted


def test_blocking_submit_waits_for_space(compressed, jetson):
    """block=True rides out a full queue instead of rejecting — the
    whole stream lands, byte-equal to solo."""
    streams = _scene_streams(count=1, frames=6)
    engine = _solo_engine(compressed, jetson, batch_size=1)
    with ServingEngine(engine, queue_depth=1) as serving:
        handle = serving.open_stream("s0")
        for scene in streams["s0"]:
            handle.submit(scene, block=True)
        handle.close()
        report = handle.result(timeout=120)
    ref = _solo_engine(compressed, jetson, batch_size=1).run(
        streams["s0"])
    _assert_reports_equal(report, ref)


def test_shutdown_refuses_new_work(compressed, jetson):
    serving = ServingEngine(_solo_engine(compressed, jetson))
    serving.open_stream("a")
    serving.shutdown()
    with pytest.raises(AdmissionError):
        serving.open_stream("b")


def test_serving_engine_rejects_bad_construction(compressed, jetson):
    engine = _solo_engine(compressed, jetson)
    with pytest.raises(TypeError, match="InferenceEngine"):
        ServingEngine(lambda: engine)   # engines, not engine factories
    with pytest.raises(ValueError, match="replicas"):
        ServingEngine(engine, replicas=0)
    with pytest.raises(ValueError, match="telemetry"):
        ServingEngine(_solo_engine(compressed, jetson, telemetry=True))
    with pytest.raises(ValueError, match="max_streams"):
        ServingEngine(engine, max_streams=0)
    with pytest.raises(ValueError, match="queue_depth"):
        ServingEngine(engine, queue_depth=0)


def test_thread_slots_share_one_engine(compressed, jetson):
    """Four thread slots run windows concurrently on the caller's one
    engine, and every report — the telemetry stream's counters
    included — stays byte-equal to a solo run."""
    streams = _scene_streams(count=7, frames=6)
    slos = {"s6": StreamSLO(telemetry=True)}
    engine = _solo_engine(compressed, jetson, batch_size=2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)     # interleave the slots finely
    try:
        with ServingEngine(engine, replicas=4) as serving:
            reports = serving.serve(streams, slos=slos)
            stats = serving.stats()
    finally:
        sys.setswitchinterval(interval)
    assert stats.backend == "thread"
    assert stats.replicas == 4
    assert stats.frames_completed == 42
    assert set(stats.windows_by_replica) <= {
        f"replica{slot}" for slot in range(4)}
    for name, scenes in streams.items():
        if name in slos:
            ref = _solo_engine(compressed, jetson, batch_size=1,
                               telemetry=True).run(scenes)
            assert reports[name].telemetry
        else:
            ref = _solo_engine(compressed, jetson, batch_size=2).run(scenes)
        _assert_reports_equal(reports[name], ref)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_serve_smoke(tmp_path, monkeypatch):
    import repro.models.registry as registry
    monkeypatch.setitem(registry.MODEL_REGISTRY, "tinypp",
                        lambda **kw: _tiny_pp())
    report_path = tmp_path / "serve.json"
    code = main(["serve", "--model", "tinypp", "--preset", "none",
                 "--streams", "2", "--frames", "2", "--batch", "2",
                 "--report", str(report_path)])
    assert code == 0
    import json
    payload = json.loads(report_path.read_text())
    assert payload["streams"] == 2
    assert payload["aggregate"]["frames"] == 4
    assert payload["aggregate"]["service_p99_ms"] >= \
        payload["aggregate"]["service_p50_ms"]


def test_cli_serve_rejects_bad_args(capsys):
    assert main(["serve", "--streams", "0"]) == 2
    assert main(["serve", "--offered-load", "-1"]) == 2
    assert main(["serve", "--queue-depth", "0"]) == 2
    err = capsys.readouterr().err
    assert "--streams" in err and "--offered-load" in err
