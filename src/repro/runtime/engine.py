"""Deployment runtime: run a (compressed) detector over a scene stream.

Ties the whole stack together the way an on-vehicle deployment would:
a detector (optionally restored from a packed UPAQ blob) is compiled
once into a device plan, then consumes scenes frame by frame while the
engine accounts simulated device latency and energy per frame, enforces
a real-time deadline, and accumulates detection quality statistics.

Failure is a modeled part of the stream, not an abort: frames that
never arrive are recorded as ``dropped``, frames whose point cloud
fails validation (NaN/Inf returns) are handled by a
:class:`DegradationPolicy` — hold the last good detections or emit an
empty frame — and a deadline watchdog walks a
:class:`DegradationLadder` of model variants: consecutive misses demote
execution to the next-cheaper rung (zero-retrace, via each rung's
pre-extracted :class:`~repro.ir.ModelIR`), consecutive on-deadline
frames promote it back up through a probation window, and every swap is
recorded as a :class:`SwapEvent`.  The single ``fallback_model`` of the
original watchdog is the degenerate two-rung, never-promote ladder and
keeps its exact semantics.  Every degraded path leaves an explicit
trace in :class:`FrameRecord.status` / :class:`FrameRecord.rung` and
the :class:`StreamReport` counters, so graceful degradation is
measurable rather than anecdotal (see ``docs/ROBUSTNESS.md``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.detection import DetectionResult, evaluate_map
from repro.hardware import CompiledPlan, DeviceModel, lower_to_plan
from repro.ir import ModelIR, extract_ir, lower_executors
from repro.models.base import Detector3D

from .executors import EXECUTION_MODES, LoweredProgram
from .faults import FaultInjector, FrameFaults
from .telemetry import (JITTER_LAYER, OVERHEAD_LAYER, LayerAttribution,
                        LayerTelemetry, TraceEvent, attribute_trace,
                        telemetry_digest)

__all__ = ["FrameRecord", "StreamReport", "DegradationPolicy",
           "SwapEvent", "LadderRung", "DegradationLadder",
           "InferenceEngine"]

FRAME_STATUSES = ("ok", "degraded", "dropped", "failed")


@dataclass
class FrameRecord:
    """Accounting for one processed frame."""

    frame_id: int
    num_detections: int
    device_latency_s: float
    device_energy_j: float
    deadline_met: bool
    #: ``ok`` — inference ran on a valid frame; ``degraded`` — the frame
    #: was corrupt and the policy substituted detections; ``dropped`` —
    #: the frame never reached (or was discarded by) the engine;
    #: ``failed`` — an admitted frame's execution raised (e.g. a worker
    #: crash mid-window) and the frame was finalized with an empty
    #: prediction instead of stalling its stream.
    status: str = "ok"
    #: True while the watchdog has execution on any rung below the
    #: primary (the legacy "on the fallback model" flag).
    fallback: bool = False
    #: Name of the ladder rung that served this frame; ``None`` on the
    #: primary.  Makes mixed-rung streams attributable per frame.
    rung: str | None = None


@dataclass(frozen=True)
class SwapEvent:
    """One watchdog hot swap between ladder rungs.

    ``frame_id`` is the frame whose deadline outcome *triggered* the
    swap; the swap takes effect from the next processed frame, so this
    frame's :class:`FrameRecord.rung` still names ``from_rung``.
    """

    frame_id: int
    #: ``"demote"`` (deadline misses) or ``"promote"`` (recovery)
    kind: str
    from_rung: str | None
    to_rung: str | None


@dataclass
class LadderRung:
    """One operating point of a :class:`DegradationLadder`.

    ``ir`` is the rung's pre-extracted (typically archive-embedded)
    :class:`~repro.ir.ModelIR`; when every rung carries one, hot swaps
    are zero-retrace — the engine never traces a model after
    construction.  ``miss_limit`` overrides the policy's
    ``max_consecutive_misses`` for demotion *off* this rung (``None``
    inherits the policy value).
    """

    name: str
    model: Detector3D
    ir: ModelIR | None = None
    miss_limit: int | None = None


class DegradationLadder:
    """An ordered list of model variants the watchdog walks at runtime.

    ``rungs[0]`` is the primary; each later rung is the next-cheaper
    variant to demote to (e.g. LCK-16 → LCK-8 → HCK-8 → HCK-4).
    ``promote_after`` consecutive on-deadline frames on a lower rung
    promote execution one rung back up (``0`` disables promotion — the
    legacy one-way watchdog).  Each promotion opens a ``probation``
    window of that many processed frames during which a *single*
    deadline miss demotes immediately, so a rung that only looked
    healthy under falling load cannot flap.
    """

    def __init__(self, rungs, promote_after: int = 5,
                 probation: int = 3):
        rungs = list(rungs)
        if not rungs:
            raise ValueError("a degradation ladder needs at least one rung")
        names = [rung.name for rung in rungs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate rung names in ladder: {names}")
        if promote_after < 0:
            raise ValueError("promote_after must be >= 0 (0 disables)")
        if probation < 0:
            raise ValueError("probation must be >= 0")
        self.rungs = rungs
        self.promote_after = promote_after
        self.probation = probation

    def __len__(self) -> int:
        return len(self.rungs)

    @property
    def names(self) -> list[str]:
        return [rung.name for rung in self.rungs]

    @staticmethod
    def from_archive(reader, names, model_factory,
                     promote_after: int = 5, probation: int = 3,
                     miss_limits=None) -> "DegradationLadder":
        """Restore the named archive entries into a ready ladder.

        ``reader`` is a :class:`~repro.core.archive.ArchiveReader`;
        ``names`` orders the rungs, primary first.  ``model_factory``
        builds a fresh architecture per rung — called either with no
        arguments or, if that raises ``TypeError``, with the entry's
        recorded ``meta`` dict.  Every rung adopts the IR embedded in
        its blob, so the resulting engine hot-swaps with zero re-trace.
        Raises :class:`ValueError` when an entry lacks an embedded IR —
        a ladder without IRs would silently re-trace on every swap.
        """
        names = list(names)
        if not names:
            raise ValueError("ladder needs at least one archive entry name")
        miss_limits = dict(miss_limits or {})
        rungs = []
        for name in names:
            entry = reader.entry(name)
            try:
                model = model_factory()
            except TypeError:
                model = model_factory(entry.meta)
            report = reader.restore(name, model)
            if report.ir is None:
                raise ValueError(
                    f"archive entry {name!r} has no embedded ModelIR — "
                    f"pack variants with pack_model(model, ir=...) so "
                    f"ladder swaps never re-trace")
            model.eval()
            rungs.append(LadderRung(name=name, model=model, ir=report.ir,
                                    miss_limit=miss_limits.get(name)))
        return DegradationLadder(rungs, promote_after=promote_after,
                                 probation=probation)


@dataclass
class DegradationPolicy:
    """How the engine degrades instead of failing.

    ``on_corrupt`` selects what a corrupted frame emits: ``last_good``
    repeats the most recent valid detections (a tracking-style hold),
    ``skip`` discards the frame entirely (recorded as ``dropped``).
    ``max_consecutive_misses`` arms the deadline watchdog: after that
    many back-to-back deadline misses the engine swaps to its fallback
    model (when one was provided at construction).  ``0`` disables the
    watchdog.
    """

    on_corrupt: str = "last_good"       # "last_good" | "skip"
    max_consecutive_misses: int = 3

    def __post_init__(self):
        if self.on_corrupt not in ("last_good", "skip"):
            raise ValueError(
                f"unknown corruption policy {self.on_corrupt!r}")
        if self.max_consecutive_misses < 0:
            raise ValueError("max_consecutive_misses must be >= 0")


@dataclass
class StreamReport:
    """Aggregate results of a streaming run."""

    frames: list[FrameRecord] = field(default_factory=list)
    predictions: list[DetectionResult] = field(default_factory=list)
    deadline_s: float = 0.1
    #: Times the watchdog demoted to a lower rung (legacy counter: for
    #: a single-fallback engine this is the fallback activation count).
    fallback_activations: int = 0
    #: Every watchdog hot swap, in stream order (demotions *and*
    #: promotions) — the frame that triggered each is recorded, so swap
    #: events reconcile exactly with per-frame ``FrameRecord.rung``.
    swap_events: list[SwapEvent] = field(default_factory=list)
    #: Per-frame per-layer cost attributions (engine ``trace=True``).
    trace: list[TraceEvent] = field(default_factory=list)
    #: Per-layer executor counters (engine ``telemetry=True``) —
    #: snapshots taken when the run finished.
    telemetry: dict[str, LayerTelemetry] = field(default_factory=dict)

    @property
    def num_frames(self) -> int:
        return len(self.frames)

    @property
    def ok_frames(self) -> int:
        return sum(1 for f in self.frames if f.status == "ok")

    @property
    def degraded_frames(self) -> int:
        return sum(1 for f in self.frames if f.status == "degraded")

    @property
    def dropped_frames(self) -> int:
        return sum(1 for f in self.frames if f.status == "dropped")

    @property
    def failed_frames(self) -> int:
        return sum(1 for f in self.frames if f.status == "failed")

    @property
    def status_counts(self) -> dict:
        return {status: sum(1 for f in self.frames if f.status == status)
                for status in FRAME_STATUSES}

    @property
    def mean_latency_s(self) -> float:
        """Mean device latency over frames that actually ran inference.

        NaN for an empty (or fully dropped/degraded) stream, matching
        :attr:`deadline_hit_rate` — a 0 ms mean over zero frames would
        read as an impossibly fast stream.
        """
        processed = [f.device_latency_s for f in self.frames
                     if f.status == "ok"]
        if not processed:
            return math.nan
        return float(np.mean(processed))

    @property
    def total_energy_j(self) -> float:
        return float(sum(f.device_energy_j for f in self.frames))

    def latency_percentile(self, q: float) -> float:
        """``q``-th percentile device latency over frames that ran.

        Linear-interpolated percentile (``q`` in [0, 100]) over ``ok``
        frames only — degraded and dropped frames never ran inference,
        so their 0 ms placeholders would drag tail estimates down.  NaN
        on an empty (or fully dropped/degraded) stream, matching
        :attr:`mean_latency_s`.  ``q`` outside [0, 100] (or NaN) raises
        :class:`ValueError` — silently extrapolating a percentile would
        report a latency no frame ever had.
        """
        if not 0.0 <= q <= 100.0:       # also rejects NaN
            raise ValueError(
                f"percentile q must be in [0, 100], got {q!r}")
        processed = [f.device_latency_s for f in self.frames
                     if f.status == "ok"]
        if not processed:
            return math.nan
        return float(np.percentile(processed, q))

    @property
    def demotions(self) -> int:
        return sum(1 for e in self.swap_events if e.kind == "demote")

    @property
    def promotions(self) -> int:
        return sum(1 for e in self.swap_events if e.kind == "promote")

    @property
    def rung_residency(self) -> dict:
        """Frames served per rung name (``"primary"`` for rung None)."""
        residency: dict[str, int] = {}
        for frame in self.frames:
            label = frame.rung if frame.rung is not None else "primary"
            residency[label] = residency.get(label, 0) + 1
        return residency

    def ladder_summary(self) -> str:
        """One line of swap-event accounting for ladder streams."""
        residency = ", ".join(f"{name} {count}"
                              for name, count in
                              self.rung_residency.items())
        return (f"ladder: {self.demotions} demotions, "
                f"{self.promotions} promotions; residency: {residency}")

    @property
    def deadline_hit_rate(self) -> float:
        """Deadline hit rate over frames that actually ran inference.

        NaN for an empty (or fully dropped/degraded) stream — a 100%
        hit rate over zero frames would be misleading.
        """
        processed = [f.deadline_met for f in self.frames
                     if f.status == "ok"]
        if not processed:
            return math.nan
        return float(np.mean(processed))

    def evaluate(self, ground_truth) -> dict:
        """mAP of the streamed predictions against ground-truth boxes.

        Degraded and dropped frames contribute their (held or empty)
        predictions like any other frame, so detection quality reflects
        what the stream actually emitted.  Per-class conventions follow
        :func:`repro.detection.evaluate_map`: a class with no ground
        truth is NaN and excluded from the mean — an all-dropped stream
        against real ground truth scores a legitimate mAP of 0.0.
        """
        if not self.frames:
            raise ValueError(
                "cannot evaluate an empty stream: no frames were "
                "processed (was every frame dropped before the engine?)")
        return evaluate_map(self.predictions, ground_truth)

    def top_offenders(self, k: int = 5,
                      missed_only: bool = True) -> list[LayerAttribution]:
        """The layers that cost the most over deadline-missing frames.

        Aggregates the per-frame trace attributions (engine
        ``trace=True``) across every processed frame that missed its
        deadline — ``missed_only=False`` aggregates over all processed
        frames instead — and returns the ``k`` most latency-expensive
        layers, sorted descending.  Pseudo-layers (``"nonkernel"``
        overhead, ``"fault_jitter"``) participate: injected jitter or
        the incompressible non-kernel floor can legitimately be what
        broke the deadline.  Empty when tracing was disabled or no
        frame qualified.
        """
        if missed_only:
            frame_ids = {f.frame_id for f in self.frames
                         if f.status == "ok" and not f.deadline_met}
        else:
            frame_ids = {f.frame_id for f in self.frames
                         if f.status == "ok"}
        return attribute_trace(self.trace, frame_ids)[:k]

    def summary(self) -> str:
        hit = self.deadline_hit_rate
        hit_text = "n/a" if math.isnan(hit) else f"{hit:.0%}"
        mean = self.mean_latency_s
        mean_text = "n/a" if math.isnan(mean) else f"{mean * 1e3:.3f} ms"

        def pct_text(q):
            value = self.latency_percentile(q)
            return "n/a" if math.isnan(value) else f"{value * 1e3:.3f} ms"

        failed = self.failed_frames
        failed_text = f", {failed} failed" if failed else ""
        text = (f"stream: {self.num_frames} frames "
                f"({self.ok_frames} ok, {self.degraded_frames} degraded, "
                f"{self.dropped_frames} dropped{failed_text}), "
                f"deadline hit rate {hit_text}, "
                f"mean latency {mean_text}, "
                f"p50/p99 latency {pct_text(50)}/{pct_text(99)}, "
                f"total energy {self.total_energy_j * 1e3:.1f} mJ")
        if self.fallback_activations:
            text += (f", watchdog fallbacks: {self.fallback_activations}")
        if self.swap_events:
            text += "\n" + self.ladder_summary()
        if self.telemetry:
            text += "\n" + telemetry_digest(self.telemetry)
        return text


class _LadderLevel:
    """Per-rung compiled state: IR → plan → lowered program, cached.

    Levels are built once at engine construction and survive swaps in
    both directions, so demoting back to (or promoting back from) a
    rung reuses its compiled plan and executors — hot swaps never
    re-trace and never re-lower a rung already visited.
    """

    __slots__ = ("rung", "ir", "plan", "program", "layer_costs")

    def __init__(self, rung: LadderRung):
        self.rung = rung
        self.ir: ModelIR | None = rung.ir
        self.plan: CompiledPlan | None = None
        self.program: LoweredProgram | None = None
        self.layer_costs: tuple | None = None


#: Sentinel distinguishing "inherit the engine's value" from an
#: explicit ``None`` override in :meth:`InferenceEngine._new_session`.
_INHERIT = object()


class _StreamSession:
    """Sequential per-stream state: one client's report in progress.

    Everything the degradation machinery mutates while a stream runs —
    the last-good hold, the watchdog counters, the serving rung index,
    the report under construction — lives here rather than on the
    engine, so any number of sessions can advance concurrently over the
    same engine's compiled :class:`_LadderLevel` pool (the seam
    :class:`~repro.runtime.serving.ServingEngine` multiplexes streams
    through).  A session is strictly sequential: only one thread may
    advance it at a time, which the serving scheduler guarantees by
    keeping at most one in-flight window per stream.
    """

    __slots__ = ("report", "deadline_s", "policy", "fault_injector",
                 "trace", "collectors", "last_good", "misses", "hits",
                 "probation", "active")

    def __init__(self, *, deadline_s: float, policy: DegradationPolicy,
                 fault_injector, trace: bool, collectors):
        self.report = StreamReport(deadline_s=deadline_s)
        self.deadline_s = deadline_s
        self.policy = policy
        self.fault_injector = fault_injector
        self.trace = trace
        #: ``layer name → LayerTelemetry`` for this stream, or ``None``
        #: when telemetry is off — each session owns its counters, so
        #: concurrent streams never mix theirs.
        self.collectors = collectors
        self.last_good: DetectionResult | None = None
        self.misses = 0
        self.hits = 0
        self.probation = 0
        #: This stream's serving rung (index into the engine's levels).
        self.active = 0


class InferenceEngine:
    """Streams scenes through a detector on a simulated device.

    Parameters
    ----------
    model:
        Any :class:`Detector3D` (typically a compressed one).
    device:
        The device model whose latency/energy are charged per frame.
    deadline_s:
        Real-time budget per frame (the paper targets "tens of
        milliseconds"); frames costing more are flagged.
    policy:
        The :class:`DegradationPolicy` applied to corrupt frames and
        deadline misses; defaults to last-good hold with a 3-miss
        watchdog.
    fault_injector:
        Optional :class:`~repro.runtime.faults.FaultInjector` applied to
        every incoming frame — the chaos-testing hook.
    fallback_model:
        Optional cheaper detector (e.g. the HCK preset of the deployed
        LCK model) the watchdog swaps in after consecutive deadline
        misses — shorthand for a two-rung, never-promote ``ladder``.
    ladder:
        Optional :class:`DegradationLadder` of model variants.  Rung 0
        is the primary (``model`` may then be ``None``, or must be the
        rung-0 model); consecutive deadline misses demote execution
        rung by rung, and with ``ladder.promote_after > 0`` consecutive
        on-deadline frames promote it back up through a probation
        window.  Mutually exclusive with ``fallback_model``.
    cost_hook:
        Optional ``(frame_id, latency_s, energy_j) -> (latency_s,
        energy_j)`` callable through which every processed frame's
        device cost flows — the extension point for per-frame cost
        models beyond the injector's latency jitter.
    execution:
        ``"reference"`` (default) or ``"lowered"``.  Both run quantized
        layers through the same integer executors, each on its one
        exact accumulation path (see :mod:`repro.nn.quantized`); the
        name survives because the end-to-end benchmark (``perfbench``)
        and the fuzz baseline header record it.  Any other value raises
        ``ValueError``.  Models with no quantized layers execute their
        plain float forward in either mode.
    ir:
        Optional pre-extracted (or blob-restored)
        :class:`~repro.ir.ModelIR` for ``model``; when omitted the
        engine extracts it lazily with one traced forward pass.
    trace:
        When true, :meth:`run` records per-frame
        :class:`~repro.runtime.telemetry.TraceEvent` attributions —
        each processed frame's simulated device cost split across the
        plan's layers (plus non-kernel overhead and injected jitter),
        summing to the frame's recorded ``device_latency_s`` — so
        :meth:`StreamReport.top_offenders` can name the layers behind
        deadline misses.  Off by default (zero cost when off).
    telemetry:
        When true, count per-layer
        :class:`~repro.runtime.telemetry.LayerTelemetry` into the
        engine's collector map (the program's default map); the finished
        :class:`StreamReport.telemetry` carries snapshots and
        ``summary()`` gains a one-line digest.  Strictly opt-in and
        observation-only — no output bit depends on it.
    batch_size:
        Micro-batching window: :meth:`run` collects up to this many
        valid in-flight scenes and executes them in one batched lowered
        pass before emitting their per-frame records (in arrival
        order).  Deadline, watchdog, fault and degradation semantics
        stay per frame, and the batched pass is byte-identical to the
        sequential one (see ``docs/PERFORMANCE.md``), so ``1`` (the
        default) only disables the amortization, not any behavior.
    """

    def __init__(self, model: Detector3D | None, device: DeviceModel,
                 deadline_s: float = 0.1,
                 policy: DegradationPolicy | None = None,
                 fault_injector: FaultInjector | None = None,
                 fallback_model: Detector3D | None = None,
                 cost_hook=None, execution: str = "reference",
                 ir: ModelIR | None = None, trace: bool = False,
                 telemetry: bool = False, batch_size: int = 1,
                 ladder: DegradationLadder | None = None):
        if execution not in EXECUTION_MODES:
            raise ValueError(f"unknown execution mode {execution!r}; "
                             f"expected one of {EXECUTION_MODES}")
        if not isinstance(batch_size, int) or isinstance(batch_size, bool) \
                or batch_size < 1:
            raise ValueError(
                f"batch_size must be a positive integer, got {batch_size!r}")
        if ladder is not None and fallback_model is not None:
            raise ValueError(
                "pass either ladder or fallback_model, not both — a "
                "fallback model is the two-rung ladder")
        if ladder is not None:
            if model is not None and model is not ladder.rungs[0].model:
                raise ValueError(
                    "model must be the ladder's rung-0 (primary) model "
                    "or None when a ladder is provided")
            if ir is not None and ladder.rungs[0].ir is None:
                ladder.rungs[0].ir = ir
        elif model is None:
            raise ValueError("model is required without a ladder")
        self.device = device
        self.deadline_s = deadline_s
        self.policy = policy or DegradationPolicy()
        self.fault_injector = fault_injector
        self.fallback_model = fallback_model
        self.cost_hook = cost_hook
        self.execution = execution
        self.trace = trace
        self.telemetry = telemetry
        self.batch_size = batch_size
        #: long-lived collector map — survives a watchdog rung swap,
        #: so counters for a layer name accumulate across the swap
        #: instead of being lost with the old program
        self._collectors: dict[str, LayerTelemetry] = {}
        if ladder is None:
            rungs = [LadderRung(name="primary", model=model, ir=ir)]
            if fallback_model is not None:
                rungs.append(LadderRung(name="fallback",
                                        model=fallback_model))
            # Legacy semantics: one-way swap, no promotion.
            ladder = DegradationLadder(rungs, promote_after=0,
                                       probation=0)
        self.ladder = ladder
        self._levels = [_LadderLevel(rung) for rung in ladder.rungs]
        self._active = 0
        self.model = self._levels[0].rung.model

    # ------------------------------------------------------------------
    # Active-rung compiled state (per level, cached across swaps)
    # ------------------------------------------------------------------
    @property
    def _level(self) -> _LadderLevel:
        return self._levels[self._active]

    def _level_ir(self, level: _LadderLevel) -> ModelIR:
        """A level's IR — the single source for its plan + program.

        Extracted lazily only for rungs constructed without one (the
        legacy ``fallback_model`` path); archive-built ladders carry
        every rung's IR, so no trace ever happens after construction.
        """
        if level.ir is None:
            level.ir = extract_ir(level.rung.model,
                                  *level.rung.model.example_inputs())
        return level.ir

    def _level_plan(self, level: _LadderLevel) -> CompiledPlan:
        if level.plan is None:
            level.plan = lower_to_plan(self._level_ir(level))
        return level.plan

    def _level_program(self, level: _LadderLevel) -> LoweredProgram:
        if level.program is None:
            level.program = LoweredProgram(
                lower_executors(self._level_ir(level), level.rung.model),
                mode=self.execution)
            if self.telemetry:
                level.program.enable_telemetry(self._collectors)
        return level.program

    @property
    def ir(self) -> ModelIR:
        """The active model's IR (see :meth:`_level_ir`)."""
        return self._level_ir(self._level)

    @property
    def plan(self) -> CompiledPlan:
        return self._level_plan(self._level)

    @property
    def program(self) -> LoweredProgram:
        """Integer executors lowered from the shared IR (lazy)."""
        return self._level_program(self._level)

    def _level_costs(self, level: _LadderLevel) -> tuple:
        """Cached per-layer cost split of one level's plan.

        Returns ``(breakdown, base_latency, base_energy, overhead_lat,
        overhead_energy)`` where ``breakdown`` is the plan's per-layer
        ``(name, latency_s, energy_j)`` and the overhead terms are the
        non-kernel remainders, computed by subtraction so the parts sum
        to the whole-plan base costs exactly.
        """
        if level.layer_costs is None:
            plan = self._level_plan(level)
            breakdown = plan.cost_breakdown(self.device)
            base_latency = self.device.latency(plan)
            base_energy = self.device.energy(plan)
            kernel_lat = sum(lat for _, lat, _ in breakdown)
            kernel_energy = sum(en for _, _, en in breakdown)
            level.layer_costs = (breakdown, base_latency, base_energy,
                                 base_latency - kernel_lat,
                                 base_energy - kernel_energy)
        return level.layer_costs

    def _cost_model(self) -> tuple:
        """Cached cost split of the *active* plan (see _level_costs)."""
        return self._level_costs(self._level)

    def _trace_events(self, session: _StreamSession, frame_id: int,
                      latency_s: float, energy_j: float,
                      jitter_s: float) -> list[TraceEvent]:
        """Attribute one frame's recorded cost to the plan's layers.

        ``latency_s`` / ``energy_j`` are the frame's charged device
        costs *excluding* jitter (the cost-hook output).  Each layer
        receives its plan-cost share scaled by whatever the hook did to
        the base cost; jitter gets its own pseudo-event.  The event sums
        reproduce the frame's recorded totals within float tolerance.
        """
        breakdown, base_lat, base_energy, over_lat, over_energy = \
            self._level_costs(self._levels[session.active])
        lat_scale = latency_s / base_lat if base_lat > 0 else 0.0
        energy_scale = energy_j / base_energy if base_energy > 0 else 0.0
        events = [TraceEvent(frame_id=frame_id, layer=name,
                             latency_s=lat * lat_scale,
                             energy_j=en * energy_scale)
                  for name, lat, en in breakdown]
        events.append(TraceEvent(frame_id=frame_id, layer=OVERHEAD_LAYER,
                                 latency_s=over_lat * lat_scale,
                                 energy_j=over_energy * energy_scale,
                                 kind="overhead"))
        if jitter_s:
            events.append(TraceEvent(frame_id=frame_id, layer=JITTER_LAYER,
                                     latency_s=jitter_s, energy_j=0.0,
                                     kind="jitter"))
        return events

    def _predict(self, scene) -> DetectionResult:
        """One inference, through the lowered program when it has work."""
        program = self.program
        if not program.executors:
            return self.model.predict(scene)
        with program.attached(self.model):
            return self.model.predict(scene)

    def _predict_window(self, scenes) -> list[DetectionResult]:
        """One micro-batch of inferences through the lowered program."""
        if not scenes:
            return []
        return self.program.predict_window(self.model, scenes)

    def _window_results(self, level: _LadderLevel, scenes,
                        collectors=None) -> list[DetectionResult]:
        """One micro-batch through a specific level's program.

        ``collectors`` names the telemetry store the window counts
        into; ``None`` counts into the program's default map (the
        engine's own long-lived collectors when it was constructed with
        ``telemetry=True``).  The map travels with the window's call
        (:meth:`LoweredProgram.attached`), not in the program, so
        concurrent serving streams each count into their own map and
        any number of windows may run through one program at once.
        """
        if not scenes:
            return []
        return self._level_program(level).predict_window(
            level.rung.model, scenes, telemetry=collectors)

    @property
    def on_fallback(self) -> bool:
        """Whether the watchdog has demoted off the primary rung."""
        return self._active > 0

    @property
    def active_rung(self) -> str | None:
        """Name of the serving rung; ``None`` while on the primary."""
        if self._active == 0:
            return None
        return self._level.rung.name

    def frame_cost(self, frame_id: int | None = None) -> tuple[float, float]:
        """(latency s, energy J) charged for a frame on this device.

        With a ``frame_id`` the cost flows through :attr:`cost_hook`, so
        per-frame cost models (and tests) can vary it; without one the
        hook is bypassed and the plan's base cost is returned.
        """
        _, latency, energy, _, _ = self._cost_model()
        if frame_id is not None and self.cost_hook is not None:
            latency, energy = self.cost_hook(frame_id, latency, energy)
        return latency, energy

    # ------------------------------------------------------------------
    @staticmethod
    def _scene_valid(scene) -> bool:
        """A frame is processable iff its point cloud is finite."""
        points = getattr(scene, "points", None)
        if points is None:
            return False
        return bool(np.isfinite(points).all())

    def _switch(self, index: int) -> None:
        """Hot-swap execution to ``self._levels[index]`` — zero retrace.

        Only the active index and ``self.model`` change; every level
        keeps its compiled plan/program/cost cache, so revisiting a rung
        costs nothing and ``extract_ir`` is never re-entered for rungs
        constructed with an IR.
        """
        self._active = index
        self.model = self._level.rung.model

    def _demote(self) -> bool:
        """Swap one rung down; False when already at the bottom."""
        if self._active + 1 >= len(self._levels):
            return False
        self._switch(self._active + 1)
        return True

    def _promote(self) -> bool:
        """Swap one rung up; False when already on the primary."""
        if self._active == 0:
            return False
        self._switch(self._active - 1)
        return True

    def _held_result(self, frame_id: int,
                     last_good: DetectionResult | None) -> DetectionResult:
        if last_good is None:
            return DetectionResult(boxes=[], frame_id=frame_id)
        return DetectionResult(boxes=list(last_good.boxes),
                               frame_id=frame_id)

    # ------------------------------------------------------------------
    # Per-stream session machinery (the seam the serving engine uses)
    # ------------------------------------------------------------------
    def _new_session(self, *, deadline_s: float | None = None,
                     policy: DegradationPolicy | None = None,
                     fault_injector=_INHERIT, trace: bool | None = None,
                     collectors=None) -> _StreamSession:
        """A fresh sequential stream session over this engine's levels.

        Every ``None`` (or ``_INHERIT`` for the injector, where ``None``
        is a meaningful override) inherits the engine's own setting.
        ``collectors`` is the session's telemetry store (``None`` keeps
        telemetry off for the stream).
        """
        return _StreamSession(
            deadline_s=self.deadline_s if deadline_s is None
            else deadline_s,
            policy=self.policy if policy is None else policy,
            fault_injector=self.fault_injector
            if fault_injector is _INHERIT else fault_injector,
            trace=self.trace if trace is None else trace,
            collectors=collectors)

    def _classify(self, session: _StreamSession, scene) -> tuple:
        """Fault-inject + validate one arriving frame.

        Returns the pending-queue entry ``(kind, frame_id, scene,
        faults)`` with ``kind`` one of ``"dropped"`` / ``"corrupt"`` /
        ``"run"`` — classification is stateless per frame (the injector
        is seeded by frame id), so it can happen ahead of emission.
        """
        frame_id = scene.frame_id
        injector = session.fault_injector
        faults = injector.faults_for(frame_id) if injector is not None \
            else FrameFaults(frame_id=frame_id)
        incoming = injector.apply(scene, faults) \
            if injector is not None else scene
        if incoming is None:            # dropped before the engine
            return ("dropped", frame_id, None, faults)
        if not self._scene_valid(incoming):
            return ("corrupt", frame_id, None, faults)
        return ("run", frame_id, incoming, faults)

    def _session_rung(self, session: _StreamSession) -> str | None:
        if session.active == 0:
            return None
        return self._levels[session.active].rung.name

    def _session_cost(self, session: _StreamSession,
                      frame_id: int) -> tuple[float, float]:
        """(latency s, energy J) of one frame on the session's rung,
        read from the level's cached cost split (see _level_costs)."""
        _, latency, energy, _, _ = \
            self._level_costs(self._levels[session.active])
        if self.cost_hook is not None:
            latency, energy = self.cost_hook(frame_id, latency, energy)
        return latency, energy

    def _emit_dropped(self, session: _StreamSession,
                      frame_id: int) -> None:
        report = session.report
        report.predictions.append(
            DetectionResult(boxes=[], frame_id=frame_id))
        report.frames.append(FrameRecord(
            frame_id=frame_id, num_detections=0,
            device_latency_s=0.0, device_energy_j=0.0,
            deadline_met=True, status="dropped",
            fallback=session.active > 0,
            rung=self._session_rung(session)))

    def _emit_corrupt(self, session: _StreamSession,
                      frame_id: int) -> None:
        """Corrupt frame: no inference, degrade per the policy."""
        if session.policy.on_corrupt == "skip":
            status = "dropped"
            result = DetectionResult(boxes=[], frame_id=frame_id)
        else:
            status = "degraded"
            result = self._held_result(frame_id, session.last_good)
        report = session.report
        report.predictions.append(result)
        report.frames.append(FrameRecord(
            frame_id=frame_id, num_detections=len(result.boxes),
            device_latency_s=0.0, device_energy_j=0.0,
            deadline_met=True, status=status,
            fallback=session.active > 0,
            rung=self._session_rung(session)))

    def _emit_failed(self, session: _StreamSession,
                     frame_id: int) -> None:
        """Finalize an admitted frame whose execution raised.

        The frame gets an empty prediction and a typed ``failed``
        status so the stream's report stays aligned with its inputs and
        its in-flight slot can be released — a window-level crash must
        never stall the stream.  No cost is charged (the work never
        ran), the last-good hold is untouched (an execution error says
        nothing about scene content), and the watchdog does not step
        (no deadline outcome was observed).
        """
        report = session.report
        report.predictions.append(
            DetectionResult(boxes=[], frame_id=frame_id))
        report.frames.append(FrameRecord(
            frame_id=frame_id, num_detections=0,
            device_latency_s=0.0, device_energy_j=0.0,
            deadline_met=False, status="failed",
            fallback=session.active > 0,
            rung=self._session_rung(session)))

    def _session_window_cost(self, session: _StreamSession) -> float:
        """Estimated device latency of one window on the session's rung.

        The plan's base latency (no cost hook, no jitter — both are
        per-frame perturbations unknown before emission): the signal
        the serving scheduler compares against a queued frame's
        deadline slack to decide when holding a partial window for
        more co-batching members stops being safe.
        """
        return self._level_costs(self._levels[session.active])[1]

    def _emit_result(self, session: _StreamSession, frame_id: int,
                     result: DetectionResult, faults) -> bool:
        """Record one executed frame; True when the watchdog swapped.

        The per-frame step the batched window fans results through:
        charge the device cost (through the cost hook), trace, check
        the deadline, append the record, update the last-good hold, and
        advance the watchdog.  A ``True`` return means frames already
        predicted on the old rung must be re-run (the swap takes effect
        from the next frame).
        """
        latency, energy = self._session_cost(session, frame_id)
        report = session.report
        if session.trace:
            report.trace.extend(self._trace_events(
                session, frame_id, latency, energy, faults.jitter_s))
        latency += faults.jitter_s
        deadline_met = latency <= session.deadline_s
        report.predictions.append(result)
        report.frames.append(FrameRecord(
            frame_id=frame_id,
            num_detections=len(result.boxes),
            device_latency_s=latency,
            device_energy_j=energy,
            deadline_met=deadline_met,
            status="ok",
            fallback=session.active > 0,
            rung=self._session_rung(session)))
        session.last_good = result
        return self._watchdog_step(session, frame_id, deadline_met)

    def _finish_session(self, session: _StreamSession) -> StreamReport:
        if session.collectors is not None:
            session.report.telemetry = {
                name: counter.snapshot()
                for name, counter in session.collectors.items()}
        return session.report

    # ------------------------------------------------------------------
    def run(self, scenes) -> StreamReport:
        """Process a scene stream; returns the accounting report.

        Per frame: inject faults (when configured), validate the point
        cloud, run inference on valid frames with per-frame device cost
        (base plan cost + injector jitter, through :attr:`cost_hook`),
        degrade on corrupt frames per the policy, and arm the deadline
        watchdog on consecutive misses.  The report always carries one
        prediction per non-skipped input frame, so downstream
        evaluation stays aligned with ground truth.

        With ``batch_size > 1`` the engine buffers frames until it
        holds that many *valid* scenes, runs them as one batched
        lowered pass, then emits every buffered frame's record in
        arrival order.  Dropped/corrupt frames never trigger inference
        and don't count toward the window, and all per-frame semantics
        (deadline, watchdog, degradation, cost hook, trace) are
        evaluated exactly as in the sequential path — the batched pass
        itself is byte-identical to per-frame execution.
        """
        session = self._new_session(
            collectors=self._collectors if self.telemetry else None)
        pending: list[tuple] = []
        for scene in scenes:
            pending.append(self._classify(session, scene))
            if sum(1 for kind, *_ in pending if kind == "run") \
                    >= self.batch_size:
                self._flush_window(session, pending)
                pending = []
        if pending:
            self._flush_window(session, pending)
        # Sync the engine's notion of the active rung with where the
        # stream ended, preserving post-run introspection
        # (``on_fallback`` / ``active_rung`` / ``model``).
        self._switch(session.active)
        return self._finish_session(session)

    def _flush_window(self, session: _StreamSession,
                      pending: list[tuple]) -> None:
        """Emit one buffered window's frames, in arrival order.

        The window's valid frames run as one batched pass; records are
        then emitted per frame with sequential last-good / watchdog
        state.  If the watchdog demotes (or promotes) mid-window, the
        not-yet-emitted frames are re-predicted on the new rung —
        exactly what sequential execution would have done.
        """
        idx = 0
        while idx < len(pending):
            results = self._window_results(
                self._levels[session.active],
                [scene for kind, _, scene, _ in pending[idx:]
                 if kind == "run"],
                collectors=session.collectors)
            results = list(reversed(results))       # pop() in order
            restarted = False
            while idx < len(pending):
                kind, frame_id, scene, faults = pending[idx]
                idx += 1
                if kind == "dropped":
                    self._emit_dropped(session, frame_id)
                    continue
                if kind == "corrupt":
                    self._emit_corrupt(session, frame_id)
                    continue
                # Deadline watchdog: consecutive misses demote rung by
                # rung; with promotion enabled, consecutive on-deadline
                # frames climb back up through a probation window.
                swapped = self._emit_result(session, frame_id,
                                            results.pop(), faults)
                if swapped and results:
                    # Remaining window frames must run on the new
                    # rung, as sequentially.
                    restarted = True
                    break
            if not restarted:
                break

    def _watchdog_step(self, session: _StreamSession, frame_id: int,
                       deadline_met: bool) -> bool:
        """Advance watchdog state after one processed frame.

        Returns True when the stream's serving rung changed (demotion
        or promotion), so a batched window can restart on the new rung.
        The swap takes effect from the *next* frame — the triggering
        frame's record was already emitted on the old rung.
        """
        ladder = self.ladder
        if deadline_met:
            session.misses = 0
            if session.probation > 0:
                session.probation -= 1
            if session.active > 0 and ladder.promote_after > 0:
                session.hits += 1
                if session.hits >= ladder.promote_after \
                        and session.probation == 0:
                    from_rung = self._session_rung(session)
                    session.active -= 1
                    session.report.swap_events.append(SwapEvent(
                        frame_id=frame_id, kind="promote",
                        from_rung=from_rung,
                        to_rung=self._session_rung(session)))
                    session.hits = 0
                    session.probation = ladder.probation
                    return True
            return False

        session.hits = 0
        if session.probation > 0:
            # A miss during probation falls straight back down.
            return self._demote_now(session, frame_id)
        session.misses += 1
        limit = self._levels[session.active].rung.miss_limit
        if limit is None:
            limit = session.policy.max_consecutive_misses
        if limit and session.misses >= limit:
            return self._demote_now(session, frame_id)
        return False

    def _demote_now(self, session: _StreamSession,
                    frame_id: int) -> bool:
        """Demote one rung, recording the swap; False at the bottom.

        A failed demotion (already on the last rung) leaves the miss
        counter untouched — matching the legacy single-fallback
        behavior where an exhausted ladder keeps the watchdog armed.
        """
        if session.active + 1 >= len(self._levels):
            return False
        from_rung = self._session_rung(session)
        session.active += 1
        session.report.swap_events.append(SwapEvent(
            frame_id=frame_id, kind="demote",
            from_rung=from_rung, to_rung=self._session_rung(session)))
        session.report.fallback_activations += 1
        session.misses = 0
        session.hits = 0
        session.probation = 0
        return True

    @staticmethod
    def from_packed(blob: bytes, architecture: Detector3D,
                    device: DeviceModel,
                    deadline_s: float = 0.1,
                    **engine_kwargs) -> "InferenceEngine":
        """Restore a packed compressed checkpoint into an engine.

        The blob's integrity is verified before a weight is touched —
        see :func:`repro.core.packing.restore_model`; corruption raises
        :class:`~repro.core.packing.BlobCorruptionError` here rather
        than silently misreading on the vehicle.  When the blob embeds
        a :class:`~repro.ir.ModelIR` (packed with ``pack_model(model,
        ir=...)``), the engine adopts it directly — the plan and the
        lowered executors come from the stored IR, with no re-trace of
        the restored model.  Extra keyword arguments (``policy``,
        ``fault_injector``, ``fallback_model``, ``cost_hook``,
        ``execution``, ``trace``, ``telemetry``, ``batch_size``) pass
        through to the engine.
        """
        from repro.core.packing import restore_model
        report = restore_model(blob, architecture)
        architecture.eval()
        return InferenceEngine(architecture, device, deadline_s,
                               ir=report.ir, **engine_kwargs)
