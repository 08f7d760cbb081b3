"""Per-layer executor telemetry and per-frame cost attribution.

The paper's efficiency score (eq. 2) prices every root layer by latency
and energy, but a frame-level report cannot say *which* layer burned a
missed deadline's budget.  This module is the observability substrate
that closes that gap, in two independent pieces:

* :class:`LayerTelemetry` — counters a :mod:`repro.nn.quantized`
  executor populates while it runs: MACs actually executed,
  im2col/scatter columns skipped by pattern-aware skipping vs. the
  dense total, the activation saturation (clip) rate out of
  ``quantize_activation``, and the int64 accumulator extrema tracked
  against the 2^53 float64-exactness bound that underwrites the
  lowered ≡ reference parity guarantee.

* :class:`TraceEvent` — the engine's per-frame attribution of simulated
  device cost to individual IR nodes (from the
  :class:`~repro.hardware.deploy.CompiledPlan` per-layer costs), plus
  pseudo-events for non-kernel overhead and injected latency jitter.
  Event latencies sum (within float tolerance) to the frame's recorded
  ``device_latency_s``, so
  :meth:`~repro.runtime.engine.StreamReport.top_offenders` can rank the
  layers responsible for deadline misses.

Both pieces are strictly opt-in: counters only *observe* values the
executors compute anyway, and attaching them cannot perturb a single
output bit (the invariant ``tests/runtime/test_telemetry.py`` pins).

Counter semantics are documented in ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import math
import threading
from dataclasses import asdict, dataclass, replace

__all__ = ["ACC_EXACT_BITS", "LayerTelemetry", "TraceEvent",
           "LayerAttribution", "attribute_trace", "aggregate_telemetry",
           "telemetry_digest", "export_trace"]

#: Bit bound below which an int64 accumulation is also exact in float64
#: (the contract the ``reference`` execution mode relies on).
ACC_EXACT_BITS = 53

#: Pseudo-layer names used by the engine's trace events.
OVERHEAD_LAYER = "nonkernel"
JITTER_LAYER = "fault_jitter"


@dataclass
class LayerTelemetry:
    """Execution counters for one lowered layer.

    Populated by the :mod:`repro.nn.quantized` executors when passed
    per call (``executor.forward(x, telemetry=counter)``); all fields
    accumulate across forward calls until :meth:`reset`.

    Recording is thread-safe: one counter may be passed to executors
    driven by concurrent serving workers, so every ``record_*`` /
    :meth:`reset` / :meth:`snapshot` runs under an internal lock (a
    plain attribute set in ``__post_init__`` — not a dataclass field,
    so equality, ``replace`` and ``asdict`` see counters only).
    Totals then equal the serial sum regardless of interleaving.
    """

    layer: str = ""
    #: forward/reference invocations observed
    calls: int = 0
    #: multiply-accumulates actually executed (after column skipping)
    macs: int = 0
    #: dense im2col / scatter / input-feature columns per call, summed
    columns_total: int = 0
    #: all-zero *weight* columns skipped before the integer matmul —
    #: static pattern-pruning skips, known at compile time
    columns_skipped: int = 0
    #: activation values quantized
    activations_total: int = 0
    #: activation values clipped to ±max_code (outside the calibrated range)
    activations_saturated: int = 0
    #: accumulator extrema across calls (int64 path == float64 path)
    acc_min: int | None = None
    acc_max: int | None = None

    def __post_init__(self):
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Pickling (cross-process telemetry deltas)
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        """Counters only — the lock is process-local and unpicklable.

        Serving's process backend ships per-window counter deltas from
        worker processes back to the scheduler, so a counter must cross
        a pickle boundary; taken under the lock so the state never
        tears a concurrent ``record_*``.
        """
        with self._lock:
            state = {field: getattr(self, field)
                     for field in self.__dataclass_fields__}
        return state

    def __setstate__(self, state: dict) -> None:
        for field, value in state.items():
            setattr(self, field, value)
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Recording (called by the executors)
    # ------------------------------------------------------------------
    def record_quantization(self, total: int, saturated: int) -> None:
        with self._lock:
            self.activations_total += int(total)
            self.activations_saturated += int(saturated)

    def record_matmul(self, macs: int, columns_total: int,
                      columns_skipped: int, frames: int = 1) -> None:
        """Record one matmul covering ``frames`` micro-batched frames.

        Callers pass per-batch totals (columns already multiplied by the
        batch size), so a batched call leaves counters equal to the sum
        of the ``frames`` single-frame calls it replaced — the batching
        telemetry contract ``tests/nn/test_batched_quantized.py`` pins.
        """
        with self._lock:
            self.calls += int(frames)
            self.macs += int(macs)
            self.columns_total += int(columns_total)
            self.columns_skipped += int(columns_skipped)

    def record_accumulator(self, lo: int, hi: int) -> None:
        lo, hi = int(lo), int(hi)
        with self._lock:
            self.acc_min = lo if self.acc_min is None \
                else min(self.acc_min, lo)
            self.acc_max = hi if self.acc_max is None \
                else max(self.acc_max, hi)

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    @property
    def skip_rate(self) -> float:
        """Fraction of dense columns skipped by *static* pattern pruning.

        :attr:`pattern_skip_rate` is the explicit alias.
        """
        if self.columns_total == 0:
            return math.nan
        return self.columns_skipped / self.columns_total

    @property
    def pattern_skip_rate(self) -> float:
        """Alias of :attr:`skip_rate` under its unambiguous name."""
        return self.skip_rate

    @property
    def saturation_rate(self) -> float:
        """Fraction of activation values clipped by quantization."""
        if self.activations_total == 0:
            return math.nan
        return self.activations_saturated / self.activations_total

    @property
    def acc_absmax(self) -> int:
        """Largest accumulator magnitude observed (0 before any call)."""
        if self.acc_min is None or self.acc_max is None:
            return 0
        return max(abs(self.acc_min), abs(self.acc_max))

    @property
    def headroom_bits(self) -> float:
        """Bits of slack between the accumulator extrema and 2^53.

        Positive headroom certifies the float64 reference accumulation
        was exact (hence bit-for-bit equal to the int64 path); infinite
        when no accumulation has been observed or all sums were 0.
        """
        absmax = self.acc_absmax
        if absmax == 0:
            return math.inf
        return ACC_EXACT_BITS - math.log2(absmax)

    # ------------------------------------------------------------------
    def reset(self) -> None:
        with self._lock:
            self.calls = 0
            self.macs = 0
            self.columns_total = 0
            self.columns_skipped = 0
            self.activations_total = 0
            self.activations_saturated = 0
            self.acc_min = None
            self.acc_max = None

    def snapshot(self) -> "LayerTelemetry":
        """An independent copy (reports keep these, not live views).

        Taken under the lock so a snapshot never tears a concurrent
        ``record_*`` across fields.
        """
        with self._lock:
            return replace(self)

    def merge(self, other: "LayerTelemetry") -> "LayerTelemetry":
        """Fold another counter into this one (e.g. across streams)."""
        self.calls += other.calls
        self.macs += other.macs
        self.columns_total += other.columns_total
        self.columns_skipped += other.columns_skipped
        self.activations_total += other.activations_total
        self.activations_saturated += other.activations_saturated
        if other.acc_min is not None and other.acc_max is not None:
            self.record_accumulator(other.acc_min, other.acc_max)
        return self

    def to_json(self) -> dict:
        record = asdict(self)
        record["skip_rate"] = None if math.isnan(self.skip_rate) \
            else self.skip_rate
        record["pattern_skip_rate"] = record["skip_rate"]
        record["saturation_rate"] = None \
            if math.isnan(self.saturation_rate) else self.saturation_rate
        record["headroom_bits"] = None \
            if math.isinf(self.headroom_bits) else self.headroom_bits
        return record


@dataclass(frozen=True)
class TraceEvent:
    """One frame's simulated device cost attributed to one IR node.

    ``kind`` is ``"layer"`` for real plan layers, ``"overhead"`` for the
    non-kernel pseudo-event (BN/activation traffic + host post-process),
    and ``"jitter"`` for injected latency jitter.  Within a frame, event
    latencies sum to the frame's recorded ``device_latency_s`` and event
    energies to its ``device_energy_j`` (within float tolerance).
    """

    frame_id: int
    layer: str
    latency_s: float
    energy_j: float
    kind: str = "layer"

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class LayerAttribution:
    """Aggregated trace cost of one layer over a set of frames."""

    layer: str
    latency_s: float = 0.0
    energy_j: float = 0.0
    frames: int = 0

    def to_json(self) -> dict:
        return asdict(self)


def attribute_trace(events, frame_ids=None) -> list[LayerAttribution]:
    """Aggregate trace events by layer, most expensive (latency) first.

    ``frame_ids`` optionally restricts the aggregation — passing the set
    of deadline-missing frames is how ``top_offenders`` answers "which
    layers caused the misses".
    """
    totals: dict[str, LayerAttribution] = {}
    for event in events:
        if frame_ids is not None and event.frame_id not in frame_ids:
            continue
        entry = totals.setdefault(event.layer,
                                  LayerAttribution(layer=event.layer))
        entry.latency_s += event.latency_s
        entry.energy_j += event.energy_j
        entry.frames += 1
    return sorted(totals.values(),
                  key=lambda a: a.latency_s, reverse=True)


def aggregate_telemetry(collectors: dict) -> dict:
    """Whole-model digest of a ``layer name → LayerTelemetry`` mapping."""
    total = LayerTelemetry(layer="<all>")
    for counter in collectors.values():
        total.merge(counter)
    headrooms = [c.headroom_bits for c in collectors.values()]
    return {
        "layers": len(collectors),
        "macs": total.macs,
        "skip_rate": total.skip_rate,
        "pattern_skip_rate": total.pattern_skip_rate,
        "saturation_rate": total.saturation_rate,
        "min_headroom_bits": min(headrooms, default=math.inf),
    }


def telemetry_digest(collectors: dict) -> str:
    """The one-line summary ``StreamReport.summary()`` appends.

    Keeps the historical phrasing (``columns skipped`` names the static
    pattern skips, as it always has) so old exports and log parsers
    stay readable.
    """
    agg = aggregate_telemetry(collectors)
    skip = agg["skip_rate"]
    sat = agg["saturation_rate"]
    head = agg["min_headroom_bits"]
    skip_text = "n/a" if math.isnan(skip) else f"{skip:.0%}"
    sat_text = "n/a" if math.isnan(sat) else f"{sat:.2%}"
    head_text = "inf" if math.isinf(head) else f"{head:.1f}"
    text = (f"telemetry: {agg['layers']} layers, "
            f"{agg['macs'] / 1e6:.2f}M MACs, "
            f"columns skipped {skip_text}, "
            f"saturation {sat_text}, "
            f"acc headroom >= {head_text} bits")
    return text


def export_trace(report) -> dict:
    """Serialize a traced :class:`~repro.runtime.engine.StreamReport`.

    The JSON document ``repro stream --trace out.json`` writes: frame
    records, per-layer trace events, the deadline-miss offender ranking,
    and (when telemetry was enabled) the per-layer counters.
    """
    record = {
        "deadline_s": report.deadline_s,
        "summary": report.summary(),
        "frames": [{
            "frame_id": f.frame_id,
            "status": f.status,
            "device_latency_s": f.device_latency_s,
            "device_energy_j": f.device_energy_j,
            "deadline_met": f.deadline_met,
            "fallback": f.fallback,
        } for f in report.frames],
        "events": [event.to_json() for event in report.trace],
        "top_offenders": [entry.to_json()
                          for entry in report.top_offenders(k=10)],
    }
    if report.telemetry:
        record["telemetry"] = {name: counter.to_json()
                               for name, counter
                               in sorted(report.telemetry.items())}
    return record
