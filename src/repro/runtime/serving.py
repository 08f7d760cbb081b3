"""Multi-stream serving: N client streams over shared compiled programs.

:class:`~repro.runtime.engine.InferenceEngine` owns one model and one
stream; real deployments serve many concurrent clients whose frames
arrive interleaved.  :class:`ServingEngine` multiplexes N client
streams over one engine (one compiled
:class:`~repro.runtime.executors.LoweredProgram` per ladder rung),
giving every stream its own deadline/SLO, degradation state and
:class:`~repro.runtime.engine.StreamReport` while sharing the compiled
substrate.

Architecture — one scheduler thread owns every stream's sequential
state; a small worker pool only executes micro-batch windows:

* **Admission control** — :meth:`ServingEngine.open_stream` rejects
  streams past ``max_streams`` with a typed :class:`AdmissionError`;
  submitting to an unknown or closed stream is likewise a typed
  reject, never a silent drop.
* **Backpressure** — each stream's pipeline (queued + classified +
  in-flight frames) is bounded by its SLO's ``queue_depth``.
  ``submit(block=False)`` past the bound raises
  :class:`BackpressureError` immediately; ``block=True`` waits for
  space (optionally with a timeout).  Space frees only when a frame's
  record is *emitted*, so the bound covers the whole pipeline.
* **Cross-stream micro-batching** — the scheduler opportunistically
  fills a ``batch_size=N`` window with head frames from *different*
  streams whose serving rung and scene signature (canvas/feature
  shapes) match, runs the window as one batched lowered pass on a
  leased slot, and fans the per-frame results back to the owning
  streams in order.  A window never takes two frames from one stream
  and a stream never has two windows in flight, so per-stream
  semantics (last-good hold, watchdog ladder walk, swap-effective-
  next-frame) are *exactly* the solo engine's: a swap triggered by
  stream A's emission cannot invalidate any other window member, and
  A's own next frame dispatches on the new rung.

Because the lowered integer path is bit-for-bit identical under any
batching factor (see ``docs/PERFORMANCE.md``), the per-stream reports
produced under the scheduler are byte-equal to running each stream
alone on a solo engine — ``tests/runtime/test_serving.py`` hammers
exactly that equivalence, telemetry and swap events included.

Two execution backends share the scheduler:

* ``backend="thread"`` (default) — ``replicas=K`` is K lease slots,
  each running windows on a worker thread over the caller's one
  engine; wins come from cross-stream batching.
* ``backend="process"`` — windows run in worker *processes*, each
  holding its own replica built once from a pickled
  :class:`ReplicaSpec` (models + blob-v4-round-tripped IRs, so workers
  never trace).  Only prediction crosses the process boundary: the
  scheduler ships ``(rung, scenes, want_telemetry)`` per window and
  merges the returned results + telemetry deltas back into per-stream
  state, so classification, emission, cost accounting and the watchdog
  all stay scheduler-side and per-stream reports remain byte-equal to
  solo runs.  Resilience follows :mod:`repro.core.search`: per-window
  timeout (local re-execution), ``BrokenProcessPool`` →
  respawn-and-redispatch, and graceful fallback to the thread backend
  — the same K slots over the one engine, building nothing — when no
  multiprocessing start method is usable (``ServingStats.backend``
  records what actually ran).

Two scheduler policies ride on top (both backends): **rung-aware
co-batching** — streams the ladder demoted to the same rung bucket
together, and a partial window is *held* while a compatible stream
still has a window in flight, widening windows under exactly the load
that caused the demotion — and **dynamic window deadlines** — a held
partial window dispatches as soon as its oldest member's deadline
slack drops below the rung's estimated window cost (from
``CompiledPlan.cost_breakdown``), instead of a fixed head-of-line
fill.

Thread-safety contract with the layers below: the geometry/plan caches
(:mod:`repro.nn.functional`, :mod:`repro.nn.quantized`) and telemetry
counters (:mod:`repro.runtime.telemetry`) are lock-protected, and
program attachment
(:meth:`~repro.runtime.executors.LoweredProgram.attached`) routes
layers through a context-local map without mutating the model, the
program or its executors, with each window's telemetry map passed per
call — so any number of windows may run over one model at once (see
``docs/SERVING.md``).
"""

from __future__ import annotations

import concurrent.futures
import os
import pickle
import threading
import time
from collections import deque
from dataclasses import dataclass, field, replace

from .engine import (_INHERIT, DegradationLadder, DegradationPolicy,
                     InferenceEngine, LadderRung, StreamReport)

__all__ = ["ServingEngine", "StreamSLO", "StreamHandle", "ServingStats",
           "ReplicaSpec", "SERVING_BACKENDS", "ServingError",
           "AdmissionError", "BackpressureError"]

#: Window-execution backends a :class:`ServingEngine` can run on.
SERVING_BACKENDS = ("thread", "process")


class ServingError(RuntimeError):
    """Base class for serving-layer failures."""


class AdmissionError(ServingError):
    """A stream (or frame) was refused admission — typed, not dropped.

    Raised when opening a stream past ``max_streams``, reusing a live
    stream name, or submitting to an unknown/closed stream or a
    shut-down engine.
    """


class BackpressureError(ServingError):
    """A stream's bounded pipeline is full and the caller chose not to
    (or timed out waiting to) block."""


@dataclass(frozen=True)
class ReplicaSpec:
    """A picklable recipe for building identical engine replicas.

    The process backend ships one of these (pickled) to every worker
    process, which builds its replica exactly once at pool init.  Two
    sources, both round-tripping each rung's :class:`~repro.ir.ModelIR`
    so workers never re-trace:

    * :meth:`from_engine` — pickle the live rung models + IRs directly
      (simplest; what :class:`ServingEngine` derives automatically);
    * :meth:`from_blobs` — blob-v4 bytes per rung (e.g. from
      :func:`repro.core.packing.pack_ladder`) + a model factory — the
      compact wire form.

    The factory form requires a picklable (module-level) callable.
    Parent-side-only concerns — fault injectors, cost hooks, tracing,
    per-stream SLOs — are deliberately absent: workers only ever
    *predict*; classification, emission and the watchdog stay on the
    scheduler, which is what keeps per-stream reports byte-equal to
    solo runs.
    """

    kind: str                           # "rungs" | "blobs"
    payload: tuple
    device: object
    deadline_s: float = 0.1
    policy: DegradationPolicy | None = None
    execution: str = "lowered"
    batch_size: int = 1
    promote_after: int = 0
    probation: int = 0

    @staticmethod
    def from_engine(engine: InferenceEngine) -> "ReplicaSpec":
        """Derive a spec from a live engine (models + IRs pickled).

        Every rung ships the IR its engine level was compiled from,
        so workers never trace.
        """
        rungs = tuple((level.rung.name, level.rung.model, level.ir,
                       level.rung.miss_limit)
                      for level in engine._levels)
        return ReplicaSpec(
            kind="rungs", payload=rungs, device=engine.device,
            deadline_s=engine.deadline_s, policy=engine.policy,
            execution=engine.execution, batch_size=engine.batch_size,
            promote_after=engine.ladder.promote_after,
            probation=engine.ladder.probation)

    @staticmethod
    def from_blobs(named_blobs, model_factory, device, *,
                   deadline_s: float = 0.1,
                   policy: DegradationPolicy | None = None,
                   execution: str = "lowered", batch_size: int = 1,
                   promote_after: int = 5, probation: int = 3,
                   miss_limits=None) -> "ReplicaSpec":
        """Spec from per-rung blob-v4 bytes (primary first).

        ``named_blobs`` is ``[(rung_name, blob_bytes), ...]`` — e.g.
        ``zip(ladder.names, pack_ladder(ladder.rungs))``.
        """
        miss_limits = dict(miss_limits or {})
        entries = tuple((name, blob, miss_limits.get(name))
                        for name, blob in named_blobs)
        if not entries:
            raise ValueError("named_blobs must name at least one rung")
        return ReplicaSpec(
            kind="blobs", payload=(entries, model_factory), device=device,
            deadline_s=deadline_s, policy=policy, execution=execution,
            batch_size=batch_size, promote_after=promote_after,
            probation=probation)

    def build(self) -> InferenceEngine:
        """Construct one engine replica (zero re-trace by contract)."""
        if self.kind == "rungs":
            rungs = [LadderRung(name=name, model=model, ir=ir,
                                miss_limit=miss_limit)
                     for name, model, ir, miss_limit in self.payload]
            ladder = DegradationLadder(rungs,
                                       promote_after=self.promote_after,
                                       probation=self.probation)
        elif self.kind == "blobs":
            from repro.core.packing import restore_model
            entries, factory = self.payload
            rungs = []
            for name, blob, miss_limit in entries:
                model = factory()
                report = restore_model(blob, model)
                if report.ir is None:
                    raise ValueError(
                        f"replica blob for rung {name!r} embeds no "
                        f"ModelIR — pack with pack_model(model, ir=...)")
                rungs.append(LadderRung(name=name, model=model,
                                        ir=report.ir,
                                        miss_limit=miss_limit))
            ladder = DegradationLadder(rungs,
                                       promote_after=self.promote_after,
                                       probation=self.probation)
        else:
            raise ValueError(f"unknown replica spec kind {self.kind!r}")
        return InferenceEngine(
            None, self.device, self.deadline_s, policy=self.policy,
            execution=self.execution, batch_size=self.batch_size,
            ladder=ladder)


# ---------------------------------------------------------------------------
# Process-backend worker side (module-level: importable under spawn)
# ---------------------------------------------------------------------------

#: The worker process's replica engine, built once by :func:`_replica_init`.
_WORKER_ENGINE: InferenceEngine | None = None


def _replica_init(spec_bytes: bytes) -> None:
    """Pool initializer: build this worker's (fully compiled) replica."""
    global _WORKER_ENGINE
    _WORKER_ENGINE = pickle.loads(spec_bytes).build()


def _replica_ready(delay_s: float = 0.0) -> int:
    """Warm-up probe; the delay keeps all workers busy so every pool
    slot actually spawns (and forks happen before scheduler threads)."""
    if delay_s:
        time.sleep(delay_s)
    return os.getpid()


def _replica_window(rung: int, scenes, want_telemetry: bool) -> tuple:
    """Execute one micro-batch window on this worker's replica.

    Returns ``(pid, results, telemetry_delta)`` — the delta is a fresh
    per-window collector map (or ``None``) the scheduler merges into
    the owning stream's counters; summed deltas equal the thread
    backend's direct accumulation.
    """
    engine = _WORKER_ENGINE
    collectors: dict | None = {} if want_telemetry else None
    results = engine._window_results(engine._levels[rung], scenes,
                                     collectors=collectors)
    return os.getpid(), results, collectors


def _resolve_mp_context():
    """The multiprocessing context for replica pools, or ``None``.

    Prefers ``fork`` (workers inherit warmed module state cheaply),
    falls back to ``spawn`` (the spec travels by pickle either way);
    ``None`` means the platform offers neither and the serving engine
    should fall back to the thread backend instead of failing.
    """
    import multiprocessing
    methods = multiprocessing.get_all_start_methods()
    for method in ("fork", "spawn"):
        if method in methods:
            return multiprocessing.get_context(method)
    return None


@dataclass(frozen=True)
class StreamSLO:
    """Per-stream service-level objective and degradation overrides.

    Every ``None`` field inherits the serving engine's wrapped-engine
    setting, exactly like a solo :class:`InferenceEngine` constructed
    with those arguments — which is what keeps serving reports
    comparable to solo runs.

    Attributes
    ----------
    deadline_s:
        This stream's real-time budget per frame.
    policy:
        This stream's :class:`DegradationPolicy`.
    fault_injector:
        This stream's injector; pass ``None`` explicitly to disable
        injection even when the wrapped engine has one.
    trace:
        Per-frame cost attribution into the stream's report.
    telemetry:
        When true the stream gets its *own* per-layer counters
        (snapshotted into ``report.telemetry``).  Telemetry windows
        are never shared with other streams — per-layer counts cannot
        be split across the members of one batched pass — so a
        telemetry stream runs single-frame windows.
    queue_depth:
        Bound on this stream's pipeline (queued + classified +
        in-flight frames); ``None`` inherits the engine default.
    """

    deadline_s: float | None = None
    policy: DegradationPolicy | None = None
    fault_injector: object = _INHERIT
    trace: bool | None = None
    telemetry: bool = False
    queue_depth: int | None = None


@dataclass
class ServingStats:
    """Aggregate counters across every stream of a serving engine.

    Self-describing: the worker topology (``backend``, ``replicas``,
    per-replica window counts) travels with the counters so a recorded
    throughput number always says what produced it.
    """

    #: Backend that actually executed windows — ``"thread"`` even for
    #: ``backend="process"`` requests when the platform forced the
    #: graceful fallback.
    backend: str = "thread"
    #: Lease slots (concurrent-window bound): threads over the one
    #: engine, or worker processes.
    replicas: int = 1
    streams_opened: int = 0
    frames_submitted: int = 0
    frames_rejected: int = 0
    #: Frames whose record was emitted — ok/degraded/dropped *and*
    #: ``failed`` frames all count; every admitted frame ends up here.
    frames_completed: int = 0
    #: Admitted frames finalized with status ``failed`` because their
    #: window's execution raised (the poisoned-frame path).
    frames_failed: int = 0
    #: Micro-batch windows executed (a window of one frame counts).
    windows: int = 0
    #: Windows whose execution raised — every member frame was
    #: finalized as ``failed`` and its pipeline slot freed.
    failed_windows: int = 0
    #: Windows whose members came from two or more streams.
    cross_stream_windows: int = 0
    #: Frames that rode in a window of size > 1.
    batched_frames: int = 0
    #: Scheduler passes that held a partial window open for more
    #: same-rung members (rung-aware co-batching).
    window_holds: int = 0
    #: Partial windows dispatched because the oldest member's deadline
    #: slack dropped below the rung's estimated window cost.
    deadline_dispatches: int = 0
    #: Process-backend windows that timed out and re-ran locally.
    window_timeouts: int = 0
    #: Times the worker pool broke (e.g. a killed worker) and was
    #: respawned.
    pool_failures: int = 0
    #: Successful window executions per replica — keys are
    #: ``"replica<slot>"`` (thread), ``"pid:<pid>"`` (process) or
    #: ``"local"`` (process-backend local fallback after a timeout or
    #: a twice-broken pool).
    windows_by_replica: dict = field(default_factory=dict)
    #: Successful window executions per ladder-rung name.
    windows_by_rung: dict = field(default_factory=dict)

    def summary(self) -> str:
        text = (f"serving: {self.streams_opened} streams over "
                f"{self.replicas} {self.backend} replica(s), "
                f"{self.frames_completed}/{self.frames_submitted} frames "
                f"completed ({self.frames_rejected} rejected), "
                f"{self.windows} windows "
                f"({self.cross_stream_windows} cross-stream, "
                f"{self.batched_frames} batched frames, "
                f"{self.window_holds} holds, "
                f"{self.deadline_dispatches} deadline dispatches)")
        if self.failed_windows or self.window_timeouts \
                or self.pool_failures:
            text += (f"; faults: {self.failed_windows} failed windows "
                     f"({self.frames_failed} frames), "
                     f"{self.window_timeouts} timeouts, "
                     f"{self.pool_failures} pool failures")
        return text


def _scene_signature(scene) -> tuple:
    """Shape key deciding whether two scenes may share a window.

    Frames only batch when the model would canvas them identically:
    same point feature width and same (or same-absent) camera image
    shape.  Mismatched signatures simply never share a window — they
    are still served, just unbatched.
    """
    points = getattr(scene, "points", None)
    image = getattr(scene, "image", None)
    points_key = None if points is None else tuple(points.shape[1:])
    image_key = None if image is None else tuple(image.shape)
    return (points_key, image_key)


class _Member:
    """One frame riding in a window, with its owning lane."""

    __slots__ = ("lane", "frame_id", "scene", "faults", "t_submit")

    def __init__(self, lane, frame_id, scene, faults, t_submit):
        self.lane = lane
        self.frame_id = frame_id
        self.scene = scene
        self.faults = faults
        self.t_submit = t_submit


class _Window:
    """One dispatched micro-batch: members + the leased replica slot."""

    __slots__ = ("slot", "rung", "members", "collectors",
                 "want_telemetry")

    def __init__(self, slot, rung, members, collectors):
        self.slot = slot
        self.rung = rung
        self.members = members
        #: the owning stream's live counter map for telemetry windows
        #: (local runs count into it directly; a process worker's
        #: returned delta is merged into it), else ``None``
        self.collectors = collectors
        self.want_telemetry = collectors is not None


class _Lane:
    """One client stream's scheduler-side state.

    All fields are guarded by the serving engine's single lock; the
    scheduler thread is the only mutator of the session (emission),
    which is what guarantees per-stream sequential semantics.
    """

    __slots__ = ("name", "session", "queue", "classified", "queue_depth",
                 "inflight", "closed", "finalized", "done", "report",
                 "service_latencies", "partition")

    def __init__(self, name: str, session, queue_depth: int,
                 telemetry: bool):
        self.name = name
        self.session = session
        #: raw submitted ``(scene, t_submit)`` pairs, arrival order
        self.queue: deque = deque()
        #: classified ``((kind, frame_id, scene, faults), t_submit)``
        self.classified: deque = deque()
        self.queue_depth = queue_depth
        #: frames of this lane inside a dispatched, not-yet-emitted
        #: window (0 or 1 — at most one window in flight per lane)
        self.inflight = 0
        self.closed = False
        self.finalized = False
        self.done = threading.Event()
        self.report: StreamReport | None = None
        #: wall-clock submit→emit seconds per frame (not the simulated
        #: device latency inside the report)
        self.service_latencies: list[float] = []
        #: telemetry streams never share windows (``None`` = mixable)
        self.partition = name if telemetry else None

    @property
    def depth(self) -> int:
        return len(self.queue) + len(self.classified) + self.inflight


class StreamHandle:
    """Client-side handle to one open stream (thin, thread-safe)."""

    def __init__(self, engine: "ServingEngine", name: str):
        self._engine = engine
        self.name = name

    def submit(self, scene, *, block: bool = True,
               timeout: float | None = None) -> None:
        self._engine.submit(self.name, scene, block=block, timeout=timeout)

    def close(self) -> None:
        self._engine.close_stream(self.name)

    def result(self, timeout: float | None = None) -> StreamReport:
        return self._engine.result(self.name, timeout=timeout)

    @property
    def service_latencies(self) -> list[float]:
        return self._engine.service_latencies(self.name)


class ServingEngine:
    """Serve N concurrent client streams over shared compiled programs.

    Parameters
    ----------
    engine:
        The wrapped :class:`InferenceEngine` (its deadline, policy,
        injector, execution mode and ``batch_size`` become the
        defaults every stream inherits).  It is the only engine this
        process runs: every thread slot executes its windows on it.
        It must be constructed with ``telemetry=False``: per-stream
        telemetry flows through :class:`StreamSLO` instead, so streams
        never share counters.
    replicas:
        Number of lease slots — the number of windows that may execute
        concurrently (K threads over the one engine, or K worker
        processes).
    max_streams:
        Admission bound on concurrently open streams.
    queue_depth:
        Default per-stream pipeline bound (see :class:`StreamSLO`).
    backend:
        ``"thread"`` (default) executes windows on K threads over the
        one engine; ``"process"`` on a pool of worker processes each
        holding a :class:`ReplicaSpec`-built replica (GIL-free window
        execution).  When no multiprocessing start method is usable
        the engine falls back to the thread backend — the same K
        slots over the one engine — and records the actual backend in
        :class:`ServingStats`.
    spec:
        Optional explicit :class:`ReplicaSpec` for the process
        backend (e.g. :meth:`ReplicaSpec.from_blobs` so workers
        restore compact blobs instead of unpickling models);
        derived automatically via :meth:`ReplicaSpec.from_engine` when
        omitted.  Must round-trip ``pickle`` — verified at
        construction, never mid-stream.
    window_timeout_s:
        Process-backend per-window deadline: a window whose worker
        does not answer in time is re-executed locally on the
        scheduler's own engine (counted in
        ``ServingStats.window_timeouts``), so a hung worker can only
        cost latency, never a stream.

    Windows fill up to the wrapped engine's ``batch_size`` with head
    frames from distinct streams whose rung and scene signature match.
    The wrapped engine compiled every ladder rung when it was built,
    so windows only read that shared, immutable compiled state.
    """

    def __init__(self, engine: InferenceEngine, *, replicas: int = 1,
                 max_streams: int = 16, queue_depth: int = 8,
                 backend: str = "thread",
                 spec: ReplicaSpec | None = None,
                 window_timeout_s: float = 30.0):
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas!r}")
        if max_streams < 1:
            raise ValueError(
                f"max_streams must be >= 1, got {max_streams!r}")
        if queue_depth < 1:
            raise ValueError(
                f"queue_depth must be >= 1, got {queue_depth!r}")
        if backend not in SERVING_BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; expected "
                             f"one of {SERVING_BACKENDS}")
        if spec is not None and backend != "process":
            raise ValueError(
                "spec is only consumed by the process backend")
        if window_timeout_s <= 0:
            raise ValueError(
                f"window_timeout_s must be > 0, got {window_timeout_s!r}")
        if not isinstance(engine, InferenceEngine):
            raise TypeError(f"engine must be an InferenceEngine, got "
                            f"{type(engine).__name__}")
        if engine.telemetry:
            raise ValueError(
                "serving engines must wrap telemetry=False engines; "
                "per-stream telemetry is configured via StreamSLO")
        self._engine = engine
        self._backend = backend
        self._replicas = replicas
        self._window_timeout_s = window_timeout_s
        self._spec: ReplicaSpec | None = None
        self._spec_bytes: bytes | None = None
        self._pool = None
        self._pool_lock = threading.Lock()
        self._pool_generation = 0
        self._worker_pids: list[int] = []
        if backend == "process":
            self._spec = spec if spec is not None \
                else ReplicaSpec.from_engine(engine)
            # Fail at construction, never mid-stream, when the spec
            # cannot cross the process boundary.
            self._spec_bytes = pickle.dumps(self._spec)
            # The pool must exist (and its workers fork) before the
            # scheduler/worker threads below start — fork-after-threads
            # is the classic multiprocessing deadlock.  Graceful
            # fallback: with no usable start method (or a pool that
            # refused to come up) the same slots serve on threads.
            if not self._start_pool_locked(replicas):
                self._backend = "thread"
        self._default_queue_depth = queue_depth
        self.max_streams = max_streams
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._lanes: dict[str, _Lane] = {}
        #: free replica *slots* — just lease tokens bounding concurrent
        #: windows; the process pool does its own worker scheduling
        self._free_replicas: list[int] = list(range(replicas))
        self._completions: deque = deque()
        self._inflight_windows = 0
        self._stats = ServingStats(backend=self._backend, replicas=replicas)
        self._stopping = False
        self._fatal: BaseException | None = None
        self._rotate = 0
        self._workers = concurrent.futures.ThreadPoolExecutor(
            max_workers=replicas, thread_name_prefix="repro-serve")
        self._scheduler = threading.Thread(
            target=self._loop, name="repro-serve-scheduler", daemon=True)
        self._scheduler.start()

    # ------------------------------------------------------------------
    # Process-pool lifecycle (the core/search.py resilience template)
    # ------------------------------------------------------------------
    def _start_pool_locked(self, replicas: int) -> bool:
        """Create and warm the worker pool; False → thread fallback."""
        ctx = _resolve_mp_context()
        if ctx is None:
            return False
        try:
            pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=replicas, mp_context=ctx,
                initializer=_replica_init,
                initargs=(self._spec_bytes,))
        except (OSError, ValueError):
            return False
        try:
            # One probe per slot, each briefly busy, so every worker
            # spawns (and builds its replica) before any stream opens.
            futures = [pool.submit(_replica_ready, 0.1)
                       for _ in range(replicas)]
            pids = sorted({future.result(timeout=300.0)
                           for future in futures})
        except Exception:
            pool.shutdown(wait=False)
            return False
        self._pool = pool
        self._worker_pids = pids
        return True

    def _respawn_pool(self, generation: int) -> None:
        """Replace a broken pool exactly once per generation.

        Concurrent window threads all observing the same broken pool
        race here; the generation check makes one of them respawn and
        the rest reuse the fresh pool.
        """
        with self._pool_lock:
            if self._pool_generation != generation:
                return
            old = self._pool
            ctx = _resolve_mp_context()
            self._pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=self._replicas, mp_context=ctx,
                initializer=_replica_init,
                initargs=(self._spec_bytes,))
            self._pool_generation += 1
        old.shutdown(wait=False)

    @property
    def worker_pids(self) -> list[int]:
        """PIDs of the initial process-backend workers (empty on the
        thread backend) — exposed for kill-and-recover testing."""
        return list(self._worker_pids)

    @property
    def backend(self) -> str:
        """The backend actually executing windows (after any fallback)."""
        return self._backend

    # ------------------------------------------------------------------
    # Client API
    # ------------------------------------------------------------------
    def open_stream(self, name: str,
                    slo: StreamSLO | None = None) -> StreamHandle:
        """Admit a new stream; typed reject past ``max_streams``."""
        slo = slo or StreamSLO()
        depth = slo.queue_depth
        if depth is None:
            depth = self._default_queue_depth
        if depth < 1:
            raise ValueError(
                f"queue_depth must be >= 1, got {depth!r}")
        with self._cond:
            self._check_fatal_locked()
            if self._stopping:
                raise AdmissionError(
                    "serving engine is shutting down; no new streams")
            if name in self._lanes:
                raise AdmissionError(
                    f"stream {name!r} already exists — stream names "
                    f"are unique for the life of the engine")
            live = sum(1 for lane in self._lanes.values()
                       if not lane.finalized)
            if live >= self.max_streams:
                raise AdmissionError(
                    f"admission refused: {live} live streams at the "
                    f"max_streams={self.max_streams} bound")
            session = self._engine._new_session(
                deadline_s=slo.deadline_s, policy=slo.policy,
                fault_injector=slo.fault_injector, trace=slo.trace,
                collectors={} if slo.telemetry else None)
            self._lanes[name] = _Lane(name, session, depth, slo.telemetry)
            self._stats.streams_opened += 1
            self._cond.notify_all()
        return StreamHandle(self, name)

    def submit(self, name: str, scene, *, block: bool = True,
               timeout: float | None = None) -> None:
        """Enqueue one frame on a stream.

        Blocks while the stream's bounded pipeline is full
        (``block=True``; a ``timeout`` raises
        :class:`BackpressureError` on expiry), or raises
        :class:`BackpressureError` immediately (``block=False``).
        Unknown or closed streams raise :class:`AdmissionError`.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            lane = self._lane_locked(name)
            while True:
                self._check_fatal_locked()
                if lane.closed or self._stopping:
                    raise AdmissionError(
                        f"stream {name!r} is closed; frame refused")
                if lane.depth < lane.queue_depth:
                    break
                if not block:
                    self._stats.frames_rejected += 1
                    raise BackpressureError(
                        f"stream {name!r} pipeline full "
                        f"({lane.queue_depth} frames); frame rejected")
                remaining = None if deadline is None \
                    else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    self._stats.frames_rejected += 1
                    raise BackpressureError(
                        f"stream {name!r} still full after "
                        f"{timeout:.3f}s; frame rejected")
                self._cond.wait(remaining if remaining is not None
                                else 0.1)
            lane.queue.append((scene, time.perf_counter()))
            self._stats.frames_submitted += 1
            self._cond.notify_all()

    def close_stream(self, name: str) -> None:
        """Mark a stream end-of-input; its report finalizes once the
        pipeline drains.  Idempotent."""
        with self._cond:
            lane = self._lane_locked(name)
            lane.closed = True
            self._cond.notify_all()

    def result(self, name: str,
               timeout: float | None = None) -> StreamReport:
        """The stream's finished :class:`StreamReport` (blocks until
        the closed stream drains)."""
        with self._cond:
            lane = self._lane_locked(name)
        if not lane.done.wait(timeout):
            raise ServingError(
                f"stream {name!r} did not finish within {timeout}s "
                f"(was it closed?)")
        with self._cond:
            self._check_fatal_locked()
            if lane.report is None:
                raise ServingError(
                    f"stream {name!r} was aborted before finishing")
            return lane.report

    def service_latencies(self, name: str) -> list[float]:
        """Wall-clock submit→emit seconds per emitted frame."""
        with self._cond:
            return list(self._lane_locked(name).service_latencies)

    def stats(self) -> ServingStats:
        with self._cond:
            return replace(
                self._stats,
                windows_by_replica=dict(self._stats.windows_by_replica),
                windows_by_rung=dict(self._stats.windows_by_rung))

    def serve(self, streams: dict, slos: dict | None = None,
              interval_s: float = 0.0) -> dict:
        """Convenience: run whole scene iterables as concurrent streams.

        One paced client thread per stream submits with ``block=True``
        (``interval_s`` spaces submissions — ``1 / offered_load``),
        closes, and the call returns ``{name: StreamReport}``.
        Running the clients concurrently is what lets cross-stream
        windows actually form.
        """
        slos = slos or {}
        handles = {name: self.open_stream(name, slos.get(name))
                   for name in streams}

        def client(name):
            for scene in streams[name]:
                if interval_s > 0:
                    time.sleep(interval_s)
                handles[name].submit(scene, block=True)
            handles[name].close()

        threads = [threading.Thread(target=client, args=(name,),
                                    name=f"repro-serve-client-{name}")
                   for name in streams]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return {name: handles[name].result() for name in streams}

    def shutdown(self, timeout: float | None = None) -> None:
        """Close every stream, drain, and stop the scheduler."""
        with self._cond:
            self._stopping = True
            for lane in self._lanes.values():
                lane.closed = True
            self._cond.notify_all()
        self._scheduler.join(timeout)
        self._workers.shutdown(wait=True)
        if self._pool is not None:
            self._pool.shutdown(wait=False)
        with self._cond:
            self._check_fatal_locked()

    def __enter__(self) -> "ServingEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    # Scheduler internals (single scheduler thread + leased workers)
    # ------------------------------------------------------------------
    def _lane_locked(self, name: str) -> _Lane:
        lane = self._lanes.get(name)
        if lane is None:
            raise AdmissionError(
                f"unknown stream {name!r} — open_stream() it first")
        return lane

    def _check_fatal_locked(self) -> None:
        if self._fatal is not None:
            raise ServingError(
                "serving engine aborted on an internal error"
            ) from self._fatal

    def _loop(self) -> None:
        while True:
            dispatches: list[_Window] = []
            with self._cond:
                # Window *execution* errors are per-window (typed
                # ``failed`` frames, handled in the completion drain);
                # an exception here means the scheduler itself broke —
                # that is the only fatal path left.
                try:
                    self._drain_completions_locked()
                    self._drain_lanes_locked()
                    if self._fatal is None:
                        dispatches = self._form_windows_locked()
                except BaseException as exc:
                    if self._fatal is None:
                        self._fatal = exc
                if self._fatal is not None:
                    if self._inflight_windows == 0:
                        self._abort_locked()
                        return
                if not dispatches:
                    if self._stopping and self._fatal is None \
                            and self._inflight_windows == 0 \
                            and not self._completions \
                            and all(lane.finalized
                                    for lane in self._lanes.values()):
                        return
                    self._cond.wait(0.05)
            for window in dispatches:
                self._workers.submit(self._run_window, window)

    def _drain_lanes_locked(self) -> None:
        """Classify queued frames and emit what needs no inference.

        Classification is stateless per frame (the injector is seeded
        by frame id), so it can run ahead; dropped/corrupt frames at
        the head of a lane with no window in flight emit immediately —
        in exactly the arrival order the solo engine would have used.
        Closed, fully drained lanes finalize their reports here.
        """
        engine = self._engine
        for lane in self._lanes.values():
            while lane.queue:
                scene, t_submit = lane.queue.popleft()
                entry = engine._classify(lane.session, scene)
                lane.classified.append((entry, t_submit))
            emitted = False
            while not lane.inflight and lane.classified \
                    and lane.classified[0][0][0] != "run":
                (kind, frame_id, _, _), t_submit = \
                    lane.classified.popleft()
                if kind == "dropped":
                    engine._emit_dropped(lane.session, frame_id)
                else:
                    engine._emit_corrupt(lane.session, frame_id)
                lane.service_latencies.append(
                    time.perf_counter() - t_submit)
                self._stats.frames_completed += 1
                emitted = True
            if emitted:
                self._cond.notify_all()     # pipeline space freed
            if lane.closed and not lane.finalized and not lane.inflight \
                    and not lane.queue and not lane.classified:
                lane.report = engine._finish_session(lane.session)
                lane.finalized = True
                lane.done.set()
                self._cond.notify_all()

    def _form_windows_locked(self) -> list[_Window]:
        """Group head frames into shape-compatible windows.

        A window takes at most one frame per stream (so a mid-window
        rung swap in one stream can never invalidate another member —
        nor the swapping stream's own, since its next frame dispatches
        after emission) and only groups streams whose serving rung,
        scene signature and telemetry partition match — streams the
        ladder demoted to the same rung bucket (and so batch)
        together.  Lane order rotates per pass so no stream starves.

        A *partial* window (fewer members than ``batch_size``) is not
        dispatched head-of-line: while another compatible lane still
        has a window in flight — so the bucket can plausibly grow when
        it emits — the group is held, unless the oldest member's
        deadline slack has dropped below the rung's estimated window
        cost (:meth:`_hold_partial_locked`).  The wait is bounded by
        construction: in-flight windows always complete, and when none
        are left everything dispatches.
        """
        if not self._free_replicas:
            return []
        lanes = [lane for lane in self._lanes.values()
                 if not lane.inflight and not lane.finalized
                 and lane.classified
                 and lane.classified[0][0][0] == "run"]
        if not lanes:
            return []
        self._rotate = (self._rotate + 1) % max(len(lanes), 1)
        lanes = lanes[self._rotate:] + lanes[:self._rotate]
        buckets: dict[tuple, list[_Lane]] = {}
        for lane in lanes:
            entry, _ = lane.classified[0]
            key = (lane.session.active,
                   _scene_signature(entry[2]),
                   lane.partition)
            buckets.setdefault(key, []).append(lane)
        windows: list[_Window] = []
        batch = self._engine.batch_size
        now = time.perf_counter()
        for (rung, _, partition), members in buckets.items():
            while members and self._free_replicas:
                group, rest = members[:batch], members[batch:]
                if len(group) < batch and partition is None \
                        and not self._stopping \
                        and self._hold_partial_locked(group, rung, now):
                    self._stats.window_holds += 1
                    break           # keep the whole remainder queued
                members = rest
                window_members = []
                for lane in group:
                    (_, frame_id, scene, faults), t_submit = \
                        lane.classified.popleft()
                    lane.inflight += 1
                    window_members.append(_Member(
                        lane, frame_id, scene, faults, t_submit))
                collectors = group[0].session.collectors \
                    if partition is not None else None
                windows.append(_Window(self._free_replicas.pop(),
                                       rung, window_members, collectors))
                self._inflight_windows += 1
        return windows

    def _hold_partial_locked(self, group: list[_Lane], rung: int,
                             now: float) -> bool:
        """Whether a partial window should wait for more members.

        Hold only while growth is *possible* — some other mixable,
        unfinished lane has a window in flight whose emission could
        feed this bucket (on the same rung: that is the rung-aware
        co-batching bet, and under demotion-inducing load it usually
        pays).  Dynamic deadline: the moment the group's tightest
        member's remaining slack (its stream deadline minus the time
        already queued) no longer covers the rung's estimated window
        cost, dispatch rather than risk the miss.
        """
        growth = any(
            lane.partition is None and not lane.finalized
            and lane.inflight > 0
            and (not lane.closed or lane.queue or lane.classified)
            and lane not in group
            for lane in self._lanes.values())
        if not growth:
            return False
        window_cost = self._engine._levels[rung].latency_s
        slack = min(
            lane.session.deadline_s - (now - lane.classified[0][1])
            for lane in group)
        if slack <= window_cost:
            self._stats.deadline_dispatches += 1
            return False
        return True

    def _run_window(self, window: _Window) -> None:
        """Worker thread: execute one window on the leased backend slot.

        An exception is *returned* through the completion queue, never
        raised — the scheduler finalizes every member frame with a
        typed ``failed`` status so no client blocks on a crashed
        window.
        """
        delta = None
        key = f"replica{window.slot}"
        try:
            if self._backend == "process":
                results, delta, key = self._execute_process(window)
            else:
                results = self._run_local(window)
        except BaseException as exc:    # propagate, never hang clients
            results = exc
        with self._cond:
            self._completions.append((window, results, delta, key))
            self._cond.notify_all()

    def _execute_process(self, window: _Window) -> tuple:
        """One window on the process pool, with the search-engine
        resilience template.

        Returns ``(results, telemetry_delta, replica_key)``.  A broken
        pool (killed worker) is respawned once per generation and the
        window re-dispatched; a second break — or a per-window timeout
        — re-executes the window locally on the scheduler's own engine
        (deterministic prediction makes the result identical, so
        byte-equality survives every recovery path).  Exceptions the
        *task* raised (a poisoned frame) are returned for typed
        per-frame failure, not retried — the frame would poison every
        replica alike.
        """
        scenes = [member.scene for member in window.members]
        for _ in range(2):
            with self._pool_lock:
                pool = self._pool
                generation = self._pool_generation
            try:
                future = pool.submit(_replica_window, window.rung,
                                     scenes, window.want_telemetry)
            except (concurrent.futures.BrokenExecutor, RuntimeError):
                with self._cond:
                    self._stats.pool_failures += 1
                self._respawn_pool(generation)
                continue
            try:
                pid, results, delta = future.result(
                    self._window_timeout_s)
                return results, delta, f"pid:{pid}"
            except concurrent.futures.TimeoutError:
                future.cancel()
                with self._cond:
                    self._stats.window_timeouts += 1
                break
            except concurrent.futures.BrokenExecutor:
                with self._cond:
                    self._stats.pool_failures += 1
                self._respawn_pool(generation)
                continue
            except BaseException as exc:
                return exc, None, "local"
        return self._run_local(window), None, "local"

    def _run_local(self, window: _Window) -> list:
        """Run a window in this thread on the one in-process engine.

        Any number of windows may run on that engine at once:
        attachment never mutates the model or the program.  Telemetry
        counts straight into the owning stream's collectors, which is
        race-free because a stream never has two windows in flight.
        """
        return self._engine._window_results(
            self._engine._levels[window.rung],
            [member.scene for member in window.members],
            collectors=window.collectors)

    def _drain_completions_locked(self) -> None:
        """Fan finished windows' results back to their owning streams.

        Emission (cost, deadline, record, last-good, watchdog) runs on
        the scheduler thread against each stream's session, in window
        order — per-stream order is total because a stream never has
        two windows in flight.  A window whose execution raised
        finalizes every member with a typed ``failed`` record instead:
        the frames stay report-aligned with their inputs and their
        pipeline slots free, so a poisoned frame costs its window, not
        its streams.
        """
        engine = self._engine
        while self._completions:
            window, results, delta, key = self._completions.popleft()
            self._inflight_windows -= 1
            self._free_replicas.append(window.slot)
            now = time.perf_counter()
            if isinstance(results, BaseException):
                self._stats.failed_windows += 1
                for member in window.members:
                    lane = member.lane
                    engine._emit_failed(lane.session, member.frame_id)
                    lane.service_latencies.append(now - member.t_submit)
                    lane.inflight -= 1
                    self._stats.frames_failed += 1
                    self._stats.frames_completed += 1
                self._cond.notify_all()
                continue
            if delta and window.collectors is not None:
                # Process backend: merge the worker's per-window
                # counter delta into the owning stream's collectors —
                # summed deltas equal direct accumulation.
                for name, counter in delta.items():
                    existing = window.collectors.get(name)
                    if existing is None:
                        window.collectors[name] = counter
                    else:
                        existing.merge(counter)
            self._stats.windows += 1
            self._stats.windows_by_replica[key] = \
                self._stats.windows_by_replica.get(key, 0) + 1
            rung_name = engine._levels[window.rung].rung.name
            self._stats.windows_by_rung[rung_name] = \
                self._stats.windows_by_rung.get(rung_name, 0) + 1
            if len(window.members) > 1:
                self._stats.batched_frames += len(window.members)
            if len({member.lane.name for member in window.members}) > 1:
                self._stats.cross_stream_windows += 1
            for member, result in zip(window.members, results):
                lane = member.lane
                engine._emit_result(lane.session, member.frame_id,
                                    result, member.faults)
                lane.service_latencies.append(now - member.t_submit)
                lane.inflight -= 1
                self._stats.frames_completed += 1
            self._cond.notify_all()

    def _abort_locked(self) -> None:
        """Fatal error: wake every waiter so nothing blocks forever."""
        for lane in self._lanes.values():
            lane.finalized = True
            lane.done.set()
        self._cond.notify_all()
