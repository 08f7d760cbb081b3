"""Multi-rung degradation ladder: demotion, promotion, zero-retrace
hot swap, archive round-trip, and swap-event/rung-attribution agreement.

The acceptance test: a 4-rung ladder demotes rung by rung under
injected deadline pressure and promotes all the way back to the primary
once the pressure ends, with every swap a zero-retrace hot swap
(``extract_ir`` is never called after engine construction — asserted by
monkeypatching it to explode).
"""

import io

import pytest

from repro.core import ArchiveReader, pack_archive, pack_model
from repro.hardware import default_devices
from repro.ir import extract_ir
from repro.models import PointPillars
from repro.pointcloud import (LidarConfig, PillarConfig, SceneConfig,
                              SceneGenerator)
from repro.runtime import (DegradationLadder, DegradationPolicy,
                           InferenceEngine, LadderRung, SwapEvent)

RUNG_NAMES = ("lck-16", "lck-8", "hck-8", "hck-4")


def _tiny_pp(seed=0):
    return PointPillars(
        pillar_config=PillarConfig(x_range=(0, 25.6),
                                   y_range=(-12.8, 12.8)),
        pfn_channels=8, stage_channels=(8, 16, 32), stage_depths=(1, 1, 1),
        upsample_channels=8, seed=seed)


def _rung(name, seed):
    model = _tiny_pp(seed)
    ir = extract_ir(model, *model.example_inputs())
    return LadderRung(name=name, model=model, ir=ir)


def _ladder(promote_after=3, probation=2, miss_limits=None):
    miss_limits = miss_limits or {}
    rungs = [_rung(name, seed) for seed, name in enumerate(RUNG_NAMES)]
    for rung in rungs:
        rung.miss_limit = miss_limits.get(rung.name)
    return DegradationLadder(rungs, promote_after=promote_after,
                             probation=probation)


def _pressure_hook(miss_until, miss_latency=1.0, hit_latency=1e-9):
    """Deadline pressure for frames below ``miss_until``, relief after."""
    def hook(frame_id, latency, energy):
        if frame_id < miss_until:
            return miss_latency, energy
        return hit_latency, energy
    return hook


def _engine(ladder, hook, deadline_s=0.05, miss_limit=2, batch_size=1):
    return InferenceEngine(
        None, default_devices()["jetson"], deadline_s=deadline_s,
        policy=DegradationPolicy(max_consecutive_misses=miss_limit),
        ladder=ladder, cost_hook=hook, batch_size=batch_size)


@pytest.fixture(scope="module")
def scenes():
    cfg = SceneConfig(x_range=(5, 24), y_range=(-10, 10),
                      lidar=LidarConfig(channels=10, azimuth_steps=80))
    generator = SceneGenerator(cfg, seed=0)
    return [generator.generate(i, with_image=False) for i in range(26)]


def _rung_transitions(report):
    """Per-frame rung attribution distilled into swap transitions."""
    transitions = []
    previous_rung = None
    previous_frame = None
    for record in report.frames:
        if previous_frame is not None and record.rung != previous_rung:
            transitions.append((previous_frame, previous_rung,
                                record.rung))
        previous_rung = record.rung
        previous_frame = record.frame_id
    return transitions


def assert_swaps_match_rungs(report):
    """Every swap event must be visible in the per-frame rung column."""
    transitions = _rung_transitions(report)
    assert len(transitions) == len(report.swap_events)
    for (frame_id, from_rung, to_rung), event in \
            zip(transitions, report.swap_events):
        assert event.frame_id == frame_id
        assert event.from_rung == from_rung
        assert event.to_rung == to_rung


class TestLadderAcceptance:
    """Pressure for 10 frames, relief after: down the ladder and back."""

    def _run(self, scenes, monkeypatch=None, batch_size=1):
        ladder = _ladder(promote_after=3, probation=2)
        engine = _engine(ladder, _pressure_hook(10),
                         batch_size=batch_size)
        if monkeypatch is not None:
            def explode(*args, **kwargs):
                raise AssertionError(
                    "extract_ir called after engine construction — "
                    "a hot swap re-traced")
            import repro.runtime.engine as engine_module
            monkeypatch.setattr(engine_module, "extract_ir", explode)
        return engine, engine.run(scenes)

    def test_demotes_rung_by_rung_and_promotes_back(
            self, scenes, monkeypatch):
        engine, report = self._run(scenes, monkeypatch)
        kinds = [(e.kind, e.from_rung, e.to_rung)
                 for e in report.swap_events]
        assert kinds == [
            ("demote", None, "lck-8"),
            ("demote", "lck-8", "hck-8"),
            ("demote", "hck-8", "hck-4"),
            ("promote", "hck-4", "hck-8"),
            ("promote", "hck-8", "lck-8"),
            ("promote", "lck-8", None),
        ]
        # Back on the primary once the pressure ends, and it stays.
        assert engine.active_rung is None
        assert not engine.on_fallback
        assert report.frames[-1].rung is None

    def test_every_rung_serves_frames(self, scenes, monkeypatch):
        _, report = self._run(scenes, monkeypatch)
        residency = report.rung_residency
        assert set(residency) == {"primary", "lck-8", "hck-8", "hck-4"}
        assert all(count > 0 for count in residency.values())
        assert sum(residency.values()) == len(scenes)

    def test_swap_events_match_frame_rung_transitions(
            self, scenes, monkeypatch):
        _, report = self._run(scenes, monkeypatch)
        assert_swaps_match_rungs(report)
        assert report.demotions == 3
        assert report.promotions == 3

    def test_fallback_flag_tracks_off_primary(self, scenes):
        _, report = self._run(scenes)
        for record in report.frames:
            assert record.fallback == (record.rung is not None)

    def test_summary_reports_the_ladder(self, scenes):
        _, report = self._run(scenes)
        text = report.summary()
        assert "3 demotions" in text
        assert "3 promotions" in text
        assert "primary" in report.ladder_summary()

    def test_batched_window_parity(self, scenes):
        _, sequential = self._run(scenes)
        _, batched = self._run(scenes, batch_size=3)
        assert sequential.frames == batched.frames
        assert sequential.swap_events == batched.swap_events
        for a, b in zip(sequential.predictions, batched.predictions):
            assert len(a.boxes) == len(b.boxes)


class TestLadderPolicy:
    def test_per_rung_miss_limit_overrides_policy(self, scenes):
        # Rung-0 demotes after a single miss; the policy default (3)
        # would have taken three.
        ladder = _ladder(promote_after=0, probation=0,
                         miss_limits={"lck-16": 1})
        engine = _engine(ladder, _pressure_hook(len(scenes)),
                         miss_limit=3)
        report = engine.run(scenes)
        first = report.swap_events[0]
        assert first.frame_id == scenes[0].frame_id
        assert first.to_rung == "lck-8"
        # The next demotion uses the policy default of 3 misses.
        assert report.swap_events[1].frame_id == scenes[3].frame_id

    def test_miss_limit_zero_pins_a_rung(self, scenes):
        ladder = _ladder(promote_after=0, probation=0,
                         miss_limits={"lck-8": 0})
        engine = _engine(ladder, _pressure_hook(len(scenes)))
        report = engine.run(scenes)
        # One demotion onto lck-8, then pinned: 0 disables its watchdog.
        assert [e.to_rung for e in report.swap_events] == ["lck-8"]
        assert engine.active_rung == "lck-8"

    def test_probation_miss_demotes_immediately(self, scenes):
        # Miss frames 0-1 (demote at miss_limit=2), hit 2-4 (promote at
        # promote_after=3), then miss frame 5 inside the probation
        # window: one miss demotes immediately, no 2-miss accumulation.
        def hook(frame_id, latency, energy):
            missing = frame_id in (0, 1, 5)
            return (1.0 if missing else 1e-9), energy
        ladder = _ladder(promote_after=3, probation=2)
        engine = _engine(ladder, hook)
        report = engine.run(scenes)
        kinds = [(e.frame_id, e.kind) for e in report.swap_events]
        assert kinds[:3] == [(1, "demote"), (4, "promote"), (5, "demote")]
        assert_swaps_match_rungs(report)

    def test_no_promotion_when_disabled(self, scenes):
        ladder = _ladder(promote_after=0, probation=0)
        engine = _engine(ladder, _pressure_hook(6))
        report = engine.run(scenes)
        assert report.promotions == 0
        assert engine.on_fallback          # stuck below primary forever
        assert report.frames[-1].rung is not None

    def test_bottom_rung_exhausted_keeps_serving(self, scenes):
        ladder = _ladder(promote_after=0, probation=0)
        engine = _engine(ladder, _pressure_hook(len(scenes)))
        report = engine.run(scenes)
        assert engine.active_rung == RUNG_NAMES[-1]
        assert report.demotions == len(RUNG_NAMES) - 1
        assert report.num_frames == len(scenes)


class TestLadderConstruction:
    def test_rejects_empty_ladder(self):
        with pytest.raises(ValueError, match="at least one"):
            DegradationLadder([])

    def test_rejects_duplicate_rung_names(self):
        with pytest.raises(ValueError, match="duplicate rung names"):
            DegradationLadder([_rung("a", 0), _rung("a", 1)])

    def test_rejects_negative_knobs(self):
        with pytest.raises(ValueError):
            DegradationLadder([_rung("a", 0)], promote_after=-1)

    def test_model_must_be_the_primary_rung(self):
        ladder = DegradationLadder([_rung("a", 0)])
        with pytest.raises(ValueError, match="rung-0"):
            InferenceEngine(_tiny_pp(9), default_devices()["jetson"],
                            ladder=ladder)

    def test_rung_that_cannot_be_lowered_fails_construction(
            self, monkeypatch):
        """Every rung is compiled by the constructor, so a rung that
        cannot be lowered fails there, not at its first demotion."""
        cheap = _rung("cheap", 1)
        ladder = DegradationLadder([_rung("primary", 0), cheap])
        import repro.runtime.engine as engine_module
        lower = engine_module.lower_executors

        def lower_or_fail(ir, model):
            if model is cheap.model:
                raise RuntimeError("rung cannot be lowered")
            return lower(ir, model)
        monkeypatch.setattr(engine_module, "lower_executors",
                            lower_or_fail)
        with pytest.raises(RuntimeError, match="cannot be lowered"):
            _engine(ladder, hook=None)

    def test_engine_ir_leaves_the_callers_rung_alone(self):
        model = _tiny_pp(0)
        ir = extract_ir(model, *model.example_inputs())
        primary = LadderRung(name="primary", model=model)
        engine = InferenceEngine(None, default_devices()["jetson"],
                                 ladder=DegradationLadder([primary]),
                                 ir=ir)
        assert primary.ir is None
        assert engine.ir is ir


class TestArchiveLadder:
    @pytest.fixture(scope="class")
    def archive_bytes(self):
        blobs = {}
        for seed, name in enumerate(RUNG_NAMES):
            model = _tiny_pp(seed)
            ir = extract_ir(model, *model.example_inputs())
            blobs[name] = pack_model(model, ir=ir)
        return pack_archive(
            blobs, {name: {"model": "tiny"} for name in RUNG_NAMES})

    def test_from_archive_round_trip_runs_zero_retrace(
            self, archive_bytes, scenes, monkeypatch):
        reader = ArchiveReader(io.BytesIO(archive_bytes))
        ladder = DegradationLadder.from_archive(
            reader, RUNG_NAMES, lambda meta: _tiny_pp(),
            promote_after=3, probation=2)
        engine = _engine(ladder, _pressure_hook(10))

        def explode(*args, **kwargs):
            raise AssertionError("archive ladder re-traced on swap")
        import repro.runtime.engine as engine_module
        monkeypatch.setattr(engine_module, "extract_ir", explode)
        report = engine.run(scenes)
        assert report.demotions == 3
        assert report.promotions == 3
        assert_swaps_match_rungs(report)

    def test_archive_ladder_matches_in_memory_ladder(
            self, archive_bytes, scenes):
        reader = ArchiveReader(io.BytesIO(archive_bytes))
        from_archive = DegradationLadder.from_archive(
            reader, RUNG_NAMES, lambda meta: _tiny_pp(),
            promote_after=3, probation=2)
        via_archive = _engine(from_archive, _pressure_hook(10))
        in_memory = _engine(_ladder(), _pressure_hook(10))
        a, b = via_archive.run(scenes), in_memory.run(scenes)
        assert [r.rung for r in a.frames] == [r.rung for r in b.frames]
        assert a.swap_events == b.swap_events
        for pa, pb in zip(a.predictions, b.predictions):
            assert len(pa.boxes) == len(pb.boxes)

    def test_from_archive_requires_embedded_ir(self):
        model = _tiny_pp(0)
        blob = pack_model(model)            # no ir= → nothing embedded
        reader = ArchiveReader(pack_archive({"bare": blob}))
        with pytest.raises(ValueError, match="no embedded ModelIR"):
            DegradationLadder.from_archive(reader, ["bare"],
                                           lambda meta: _tiny_pp())


class TestOneWayLadder:
    """A two-rung ``promote_after=0`` ladder: one swap, never back."""

    def _engine(self, hook):
        ladder = DegradationLadder(
            [LadderRung(name="primary", model=_tiny_pp(0)),
             LadderRung(name="fallback", model=_tiny_pp(1))],
            promote_after=0, probation=0)
        return _engine(ladder, hook)

    def test_relief_never_promotes(self, scenes):
        report = self._engine(_pressure_hook(4)).run(scenes[:8])
        assert report.fallback_activations == 1
        assert report.promotions == 0
        assert [r.rung for r in report.frames] \
            == [None, None] + ["fallback"] * 6
        assert [r.deadline_met for r in report.frames] \
            == [False] * 4 + [True] * 4

    def test_swap_is_recorded_as_a_demotion(self, scenes):
        engine = self._engine(_pressure_hook(99))
        report = engine.run(scenes[:8])
        assert report.swap_events == [
            SwapEvent(frame_id=1, kind="demote", from_rung=None,
                      to_rung="fallback")]
        assert engine.active_rung == "fallback"
        assert [r.rung for r in report.frames] \
            == [None, None] + ["fallback"] * 6
