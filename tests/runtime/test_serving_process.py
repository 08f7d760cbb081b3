"""Process-backend serving ≡ thread serving ≡ solo, hammered.

Acceptance for the process backend: the same scenario mix — ladder
demotions, injected faults, telemetry lanes — run under
``backend="thread"`` and ``backend="process"`` produces byte-identical
per-stream reports, swap events and telemetry digests, all equal to
solo :class:`InferenceEngine` runs.  Plus the resilience contracts: a
SIGKILLed worker pool respawns and the run still matches solo; a
platform without fork/spawn falls back to the thread backend instead
of failing; a hung worker only costs a local re-execution (window
timeout); and a poisoned frame finalizes its window's members with
typed ``failed`` records — freeing backpressure capacity — on both
backends.
"""

import dataclasses
import json
import os
import pickle
import signal
import time

import numpy as np
import pytest

import repro.runtime.serving as serving_mod
from repro.cli import main
from repro.core import UPAQCompressor, hck_config
from repro.core.packing import pack_ladder
from repro.hardware import default_devices
from repro.models import PointPillars
from repro.pointcloud import (LidarConfig, PillarConfig, SceneConfig,
                              SceneGenerator)
from repro.runtime import (DegradationLadder, DegradationPolicy,
                           FaultInjector, FaultSpec, InferenceEngine,
                           LadderRung, ReplicaSpec, ServingEngine,
                           StreamSLO)
from repro.runtime.engine import _INHERIT
from repro.runtime.serving import _Lane


def _tiny_pp(seed=1):
    return PointPillars(
        pillar_config=PillarConfig(x_range=(0, 25.6), y_range=(-12.8, 12.8)),
        pfn_channels=8, stage_channels=(8, 16, 32), stage_depths=(1, 1, 1),
        upsample_channels=8, seed=seed)


def _model_factory():
    """Module-level (hence picklable) architecture factory for
    blob/archive replica specs."""
    return _tiny_pp(seed=1)


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


def _scene_streams(count=4, frames=5):
    cfg = SceneConfig(x_range=(5, 24), y_range=(-10, 10),
                      lidar=LidarConfig(channels=10, azimuth_steps=80))
    streams = {}
    for index in range(count):
        generator = SceneGenerator(cfg, seed=index)
        streams[f"s{index}"] = [generator.generate(1000 * index + frame)
                                for frame in range(frames)]
    return streams


def _boxes(report):
    return [[(b.x, b.y, b.z, b.dx, b.dy, b.dz, b.yaw, b.label, b.score)
             for b in p.boxes] for p in report.predictions]


def _assert_reports_equal(got, ref):
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


def _poison(scene):
    """A scene that passes submit-time validation (finite points) but
    crashes prediction: the point feature width is too narrow for
    pillarization.  Its signature also differs from clean scenes, so
    it always rides in its own window — the failure stays contained."""
    return dataclasses.replace(scene, points=np.ones((5, 2)))


# ---------------------------------------------------------------------------
# Cross-backend byte-equality (the hammer)
# ---------------------------------------------------------------------------

def test_full_scenario_mix_byte_equal_across_backends(compressed, jetson):
    """Ladder + cost-hook misses + injected faults + telemetry lanes:
    thread backend, process backend and solo runs all byte-equal."""

    def hook(frame_id, latency, energy):
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
    fault_spec = FaultSpec(drop_rate=0.2, corrupt_rate=0.2, seed=7)
    streams = _scene_streams(count=4, frames=6)
    slos = {"s0": StreamSLO(telemetry=True),
            "s1": StreamSLO(fault_injector=FaultInjector(fault_spec)),
            "s3": StreamSLO(telemetry=True)}

    def run(backend):
        engine = InferenceEngine(None, jetson, ladder=ladder(),
                                 deadline_s=0.01, execution="lowered",
                                 batch_size=4, policy=policy,
                                 cost_hook=hook)
        kwargs = {"replicas": 2} if backend == "process" else {}
        with ServingEngine(engine, backend=backend, **kwargs) as serving:
            reports = serving.serve(streams, slos=slos)
            return reports, serving.stats(), serving.backend

    thread_reports, _, _ = run("thread")
    proc_reports, proc_stats, proc_backend = run("process")
    assert proc_backend == "process", "silent thread fallback"
    assert proc_stats.backend == "process"
    assert proc_stats.replicas == 2
    assert proc_stats.frames_completed == 24

    # Cross-backend: every stream's report identical, telemetry included.
    for name in streams:
        _assert_reports_equal(proc_reports[name], thread_reports[name])
    assert proc_reports["s0"].telemetry  # the digests were non-trivial
    assert any(r.swap_events for r in proc_reports.values()), \
        "scenario never demoted — the ladder leg of the mix is dead"

    # And equal to solo, swaps/telemetry/faults included.
    solo_ladder = ladder()
    for name, scenes in streams.items():
        telemetry = name in ("s0", "s3")
        solo = InferenceEngine(
            None, jetson, ladder=solo_ladder, deadline_s=0.01,
            execution="lowered",
            batch_size=1 if telemetry else 4,
            policy=policy, cost_hook=hook, telemetry=telemetry,
            fault_injector=FaultInjector(fault_spec)
            if name == "s1" else None)
        _assert_reports_equal(proc_reports[name], solo.run(scenes))

    # Self-describing stats: window counts attribute to worker pids
    # (or the local fallback) and to ladder rungs by name.
    assert proc_stats.windows_by_replica
    assert all(key.startswith("pid:") or key == "local"
               for key in proc_stats.windows_by_replica)
    assert sum(proc_stats.windows_by_replica.values()) == \
        proc_stats.windows
    assert set(proc_stats.windows_by_rung) <= {"primary", "cheap"}
    assert sum(proc_stats.windows_by_rung.values()) == proc_stats.windows


# ---------------------------------------------------------------------------
# Resilience: killed workers, missing start methods, hung windows
# ---------------------------------------------------------------------------

def test_worker_kill_and_recover_byte_equal(compressed, jetson):
    """SIGKILLing every pool worker mid-run breaks the pool; the
    scheduler respawns it and the streams still finish byte-equal."""
    streams = _scene_streams(count=2, frames=6)
    engine = _solo_engine(compressed, jetson, batch_size=1)
    with ServingEngine(engine, backend="process",
                       replicas=2) as serving:
        assert serving.backend == "process"
        pids = serving.worker_pids
        assert pids
        handles = {name: serving.open_stream(name) for name in streams}
        for name in streams:
            handles[name].submit(streams[name][0])
        deadline = time.monotonic() + 120
        while serving.stats().windows < 1:
            assert time.monotonic() < deadline, "no window completed"
            time.sleep(0.01)
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        for name, scenes in streams.items():
            for scene in scenes[1:]:
                handles[name].submit(scene, block=True)
            handles[name].close()
        reports = {name: handles[name].result(timeout=300)
                   for name in streams}
        stats = serving.stats()
    assert stats.pool_failures >= 1, "killed pool never detected"
    assert stats.frames_completed == 12
    assert stats.frames_failed == 0, "recovery must not fail frames"
    for name, scenes in streams.items():
        ref = _solo_engine(compressed, jetson, batch_size=1).run(scenes)
        _assert_reports_equal(reports[name], ref)


def test_no_start_method_falls_back_to_thread(compressed, jetson,
                                              monkeypatch):
    """No usable fork/spawn: backend='process' degrades to the same two
    slots as threads over the caller's one engine — building no engine
    from the spec — and still serves byte-equal."""
    monkeypatch.setattr(serving_mod, "_resolve_mp_context", lambda: None)

    def no_build(self):
        raise AssertionError("the thread fallback must build no engine")

    monkeypatch.setattr(ReplicaSpec, "build", no_build)
    streams = _scene_streams(count=2, frames=3)
    engine = _solo_engine(compressed, jetson)
    with ServingEngine(engine, backend="process",
                       replicas=2) as serving:
        assert serving.backend == "thread"
        assert serving.worker_pids == []
        reports = serving.serve(streams)
        stats = serving.stats()
    assert stats.backend == "thread"
    assert stats.replicas == 2
    assert all(key.startswith("replica")
               for key in stats.windows_by_replica)
    for name, scenes in streams.items():
        ref = _solo_engine(compressed, jetson).run(scenes)
        _assert_reports_equal(reports[name], ref)


def test_window_timeout_reexecutes_locally(compressed, jetson):
    """A per-window timeout re-runs the window on the scheduler's own
    engine — deterministic prediction keeps the report byte-equal."""
    streams = _scene_streams(count=1, frames=3)
    engine = _solo_engine(compressed, jetson, batch_size=1)
    with ServingEngine(engine, backend="process", replicas=1,
                       window_timeout_s=1e-4) as serving:
        assert serving.backend == "process"
        reports = serving.serve(streams)
        stats = serving.stats()
    assert stats.window_timeouts >= 1
    assert stats.windows_by_replica.get("local", 0) >= 1
    ref = _solo_engine(compressed, jetson, batch_size=1).run(
        streams["s0"])
    _assert_reports_equal(reports["s0"], ref)


# ---------------------------------------------------------------------------
# Poisoned frames: typed per-frame failure on both backends
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("backend", ["thread", "process"])
def test_poisoned_frame_fails_typed_and_frees_capacity(
        compressed, jetson, backend):
    """A frame whose prediction raises finalizes as status='failed'
    (empty prediction, deadline missed, zero cost), frees its pipeline
    slot, and leaves every other frame and stream byte-equal to solo."""
    streams = _scene_streams(count=2, frames=4)
    poisoned = list(streams["s0"])
    poisoned[1] = _poison(poisoned[1])
    engine = _solo_engine(compressed, jetson)
    with ServingEngine(engine, backend=backend,
                       queue_depth=2) as serving:
        reports = serving.serve({"s0": poisoned, "s1": streams["s1"]})
        stats = serving.stats()
    assert stats.failed_windows == 1
    assert stats.frames_failed == 1
    assert stats.frames_completed == 8  # failed frames free capacity
    report = reports["s0"]
    assert [f.status for f in report.frames] == \
        ["ok", "failed", "ok", "ok"]
    failed = report.frames[1]
    assert report.predictions[1].boxes == []
    assert not failed.deadline_met
    assert failed.device_latency_s == 0.0
    assert failed.device_energy_j == 0.0
    assert report.failed_frames == 1
    assert "1 failed" in report.summary()
    # The untouched stream — and s0's clean frames — still match solo.
    ref = _solo_engine(compressed, jetson).run(streams["s1"])
    _assert_reports_equal(reports["s1"], ref)
    solo0 = _solo_engine(compressed, jetson).run(streams["s0"])
    for index in (0, 2, 3):
        assert report.frames[index] == solo0.frames[index]


# ---------------------------------------------------------------------------
# Replica specs: blobs and the wire contract
# ---------------------------------------------------------------------------

def test_replica_spec_blobs_build_matches_source(compressed, jetson):
    """A blob-spec replica (pack_ladder wire form) predicts identically
    to the engine its blobs came from, with zero re-trace."""
    rungs = [LadderRung(name="primary", model=compressed.model,
                        ir=compressed.ir)]
    spec = ReplicaSpec.from_blobs(
        zip(["primary"], pack_ladder(rungs)), _model_factory, jetson,
        batch_size=4)
    restored = pickle.loads(pickle.dumps(spec))
    assert (restored.kind, restored.batch_size) == ("blobs", 4)
    replica = restored.build()
    scenes = _scene_streams(count=1, frames=3)["s0"]
    ref = _solo_engine(compressed, jetson).run(scenes)
    _assert_reports_equal(replica.run(scenes), ref)
    with pytest.raises(ValueError, match="at least one rung"):
        ReplicaSpec.from_blobs([], _model_factory, jetson)


def test_serving_rejects_spec_on_thread_backend(compressed, jetson):
    engine = _solo_engine(compressed, jetson)
    spec = ReplicaSpec.from_engine(engine)
    with pytest.raises(ValueError, match="process backend"):
        ServingEngine(engine, spec=spec)    # backend defaults to thread
    with pytest.raises(ValueError, match="window_timeout_s"):
        ServingEngine(engine, window_timeout_s=0.0)
    with pytest.raises(ValueError, match="backend"):
        ServingEngine(engine, backend="fiber")


# ---------------------------------------------------------------------------
# Scheduler policies: rung-aware co-batching + dynamic deadlines
# ---------------------------------------------------------------------------

def _fresh_lane(engine, name, *, deadline_s=None, telemetry=False):
    session = engine._new_session(deadline_s=deadline_s, policy=None,
                                  fault_injector=_INHERIT, trace=None,
                                  collectors={} if telemetry else None)
    return _Lane(name, session, 8, telemetry)


def test_hold_policy_growth_and_deadline_rules(compressed, jetson):
    """Unit-level contract of the partial-window hold decision."""
    serving = ServingEngine(_solo_engine(compressed, jetson))
    serving.shutdown()
    engine = serving._engine
    scene = _scene_streams(count=1, frames=1)["s0"][0]
    now = time.perf_counter()

    ready = _fresh_lane(engine, "ready", deadline_s=10.0)
    ready.classified.append((("run", 0, scene, None), now))
    inflight = _fresh_lane(engine, "busy")
    inflight.inflight = 1
    serving._lanes = {"ready": ready, "busy": inflight}

    # Another mixable lane has a window in flight whose emission could
    # widen this bucket — hold.
    assert serving._hold_partial_locked([ready], 0, now)

    # ...unless the oldest member's slack no longer covers the window
    # cost: dispatch, and count it.
    stale = _fresh_lane(engine, "stale", deadline_s=0.5)
    stale.classified.append((("run", 0, scene, None), now - 5.0))
    serving._lanes = {"stale": stale, "busy": inflight}
    before = serving._stats.deadline_dispatches
    assert not serving._hold_partial_locked([stale], 0, now)
    assert serving._stats.deadline_dispatches == before + 1

    # No in-flight compatible lane — nothing can grow the bucket.
    serving._lanes = {"ready": ready}
    assert not serving._hold_partial_locked([ready], 0, now)

    # A telemetry lane never mixes, so it cannot feed the bucket...
    telem = _fresh_lane(engine, "telem", telemetry=True)
    telem.inflight = 1
    serving._lanes = {"ready": ready, "telem": telem}
    assert not serving._hold_partial_locked([ready], 0, now)

    # ...nor can a closed lane with a drained pipeline.
    drained = _fresh_lane(engine, "drained")
    drained.inflight = 1
    drained.closed = True
    serving._lanes = {"ready": ready, "drained": drained}
    assert not serving._hold_partial_locked([ready], 0, now)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_serve_process_backend_smoke(tmp_path, monkeypatch):
    import repro.models.registry as registry
    monkeypatch.setitem(registry.MODEL_REGISTRY, "tinypp",
                        lambda **kw: _tiny_pp())
    report_path = tmp_path / "serve.json"
    code = main(["serve", "--model", "tinypp", "--preset", "none",
                 "--streams", "2", "--frames", "2", "--batch", "2",
                 "--backend", "process", "--replicas", "2",
                 "--report", str(report_path)])
    assert code == 0
    payload = json.loads(report_path.read_text())
    assert payload["backend_requested"] == "process"
    assert payload["backend"] == "process"
    assert payload["replicas"] == 2
    assert payload["aggregate"]["frames"] == 4
    scheduler = payload["scheduler"]
    assert scheduler["frames_failed"] == 0
    assert scheduler["pool_failures"] == 0
    assert sum(scheduler["windows_by_replica"].values()) == \
        scheduler["windows"]


def test_cli_serve_rejects_bad_replicas(capsys):
    assert main(["serve", "--replicas", "0"]) == 2
    assert "--replicas" in capsys.readouterr().err
