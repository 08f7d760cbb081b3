"""The ``frame``, ``trunk`` and ``serve`` workloads and their metrics.

Every timed unit carries the host-reference probe time measured next
to it (``ref_ms``); gated latencies are ``unit ÷ ref`` ratios, so a
vCPU that runs 20 % slower for a while moves the numerator and the
denominator together.  Raw milliseconds are kept as per-layer
information.

Workloads (why each was chosen):

* ``frame`` — one closed-loop client, each unit
  ``InferenceEngine.run([scene])``: the vehicle's whole pipeline, scene
  in to boxes out; rotated-BEV NMS dominates it.
* ``trunk`` — the same scenes, each unit ``model.forward(*model.
  preprocess(scene))`` under the lowered program: the compressed
  network alone, no decode and no NMS — executor, lowering and
  quantised-kernel changes show here, NMS changes must not.
* ``serve`` — a process-backed :class:`ServingEngine` (``nproc``
  replicas, ``batch_size=4``, 4 streams) fed by an open-loop generator
  at a fixed multiple of the reference time (about 40 % of capacity):
  admission, co-batching, holds, dispatch and replica transport.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro.runtime import BackpressureError, ServingEngine
from repro.runtime.serving import ReplicaSpec

from . import host, pipeline
from .spans import STAGES, Recorder, attribute, check_conservation

WORKLOADS = ("frame", "trunk", "serve")
#: Tail percentile per workload, chosen so a normal run leaves at least
#: ten samples beyond it; a shorter run falls back (and says so).  Not
#: higher on ``trunk``: beyond p90 its 5 ms units are ranked by host
#: preemption more than by scene, and p99 spread 27 % over ten runs.
TAIL_PCT = {"frame": 80, "trunk": 90, "serve": 80}
#: Probe chunks measured before and after each ``frame`` unit.
FRAME_PROBE_CHUNKS = 3
#: ``trunk`` units between two single-chunk probes.
TRUNK_BLOCK = 4
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 5
SERVE_STREAMS = 4
SERVE_BATCH = 4
#: Arrivals per serve segment; the system drains and the probe runs
#: between segments, so the probe never competes with the replicas.
SERVE_SEGMENT = 8
#: Interval between arrivals (any stream), in reference-probe times.
#: Frozen at 40 % of the capacity measured at the parent commit (4 streams
#: submitting back to back: ~4 frames/s = one frame per 114 probe times
#: on 2 vCPUs).
SERVE_INTERVAL_REF = 285.0
#: Latency limit, from due time, in reference-probe times; a frame
#: that is rejected, fails, or exceeds it is a miss.
SERVE_LIMIT_REF = 1500.0


@dataclass
class Unit:
    latency_s: float
    ref_ms: float
    cpu_s: float
    ok: bool
    traced: bool = False

    @property
    def ratio(self) -> float:
        return self.latency_s * 1e3 / self.ref_ms


@dataclass
class PathResult:
    """What one workload path measured."""
    units: list[Unit] = field(default_factory=list)
    #: correct units that exceeded the latency limit (``serve``)
    late: int = 0
    #: CPU per unit, raw and ÷ ref: per unit, or per segment on ``serve``
    cpu_ms: list[float] = field(default_factory=list)
    cpu_ref: list[float] = field(default_factory=list)
    layers: dict = field(default_factory=dict)
    rss_mb: float = 0.0
    info: dict = field(default_factory=dict)


class Bench:
    """One run's inputs: the packed blob and the seed's scene pool."""

    def __init__(self, seed: int):
        self.seed = seed
        self.blob = pipeline.packed_blob()
        self.scenes = pipeline.scenes(seed)
        self._expected: dict = {}

    def expected(self, kind: str) -> dict:
        """Trusted per-scene output digests (untimed; see pipeline)."""
        if kind not in self._expected:
            self._expected[kind] = pipeline.expected_digests(
                kind, self.seed, self.blob, self.scenes)
        return self._expected[kind]

    def setup(self, reps: int = SETUP_REPS):
        """Timed set-up, ``reps`` times; returns the last engine."""
        runs = []
        for _ in range(reps):
            gc.collect()
            before = host.probe_ms(FRAME_PROBE_CHUNKS)
            engine, times = pipeline.restore_engine(self.blob,
                                                    self.scenes[0])
            after = host.probe_ms(FRAME_PROBE_CHUNKS)
            runs.append((times, (before + after) / 2))
        return engine, runs


def setup_layers(runs, extra_s=None) -> dict:
    """Per-layer set-up medians and the ref-normalised ``setup_s``."""
    extra_s = extra_s or [0.0] * len(runs)
    total_ref = [(t.total_s + x) * 1e3 / ref
                 for (t, ref), x in zip(runs, extra_s)]
    return {
        "setup.restore_ms": 1e3 * statistics.median(t.restore_s for t, _ in runs),
        "setup.lowering_ms": 1e3 * statistics.median(t.lowering_s for t, _ in runs),
        "setup.warm_ms": 1e3 * statistics.median(t.warm_s for t, _ in runs),
        "setup_s": statistics.median(total_ref) * host.NOMINAL_REF_MS / 1e3,
    }


def _trace_layers(recorder: Recorder, breakdowns, untraced: list[Unit],
                  traced: list[Unit], *, detection: bool) -> dict:
    """Stage, NMS and trace-health metrics from traced units.

    ``detection`` marks the frame path; the trunk path runs no decode
    or NMS, so it reports no detection metrics.
    """
    frames = len(traced)
    stages = [stage for stage in STAGES if stage in breakdowns[0]]
    layers = {f"{stage}_ms": 1e3 * statistics.median(
                  b[stage] for b in breakdowns)
              for stage in stages}
    counts = recorder.counts
    layers.update({
        "pointcloud.pillars": counts["pillars"] / frames,
        "trace.unattributed_pct": 100.0 * check_conservation(breakdowns),
        "trace.overhead_pct": 100.0 * (
            statistics.median(u.ratio for u in traced)
            / statistics.median(u.ratio for u in untraced) - 1.0),
    })
    collectors = list(recorder.telemetry.values())
    total_cols = sum(c.columns_total for c in collectors)
    total_acts = sum(c.activations_total for c in collectors)
    layers.update({
        "executors.macs": sum(c.macs for c in collectors) / frames,
        "executors.cols_skipped_pct": 100.0 * sum(
            c.columns_skipped for c in collectors) / max(total_cols, 1),
        "executors.saturation_pct": 100.0 * sum(
            c.activations_saturated for c in collectors) / max(total_acts, 1),
    })
    if detection:
        nms_total = sum(b["detection.nms"] for b in breakdowns)
        layers.update({
            "detection.nms_share_pct":
                100.0 * nms_total / sum(b["unit"] for b in breakdowns),
            "detection.nms_calls": counts["nms_calls"] / frames,
            "detection.nms_candidates": counts["nms_candidates"] / frames,
            "detection.nms_kept": counts["nms_kept"] / frames,
            "detection.nms_keep_ratio":
                counts["nms_kept"] / max(counts["nms_candidates"], 1),
            "pointcloud.iou_bev_calls": counts["iou_bev"] / frames,
        })
    return layers


def _unit_loop(bench: Bench, engine, seconds: float, run_unit, digest,
               expected: dict, *, chunks: int, block: int, memory: bool,
               recorder=None, min_units: int = 1) -> tuple[list[Unit], list]:
    """Time units for ``seconds``; traced runs alternate traced/untraced.

    A unit that raises or whose output digest differs from
    ``expected[frame_id]`` is kept as a failed unit; the loop goes on.
    Returns the units and, when tracing, one stage breakdown per traced
    unit.
    """
    units: list[Unit] = []
    breakdowns = []
    pool = bench.scenes
    end = time.perf_counter() + seconds
    index = 0
    while time.perf_counter() < end or len(units) < min_units:
        before = host.probe_ms(chunks, memory)
        block_units = []
        for _ in range(block):
            scene = pool[index % len(pool)]
            traced = recorder is not None and index % 2 == 0
            index += 1
            output, spans, ok = None, [], True
            if traced:
                engine.program.enable_telemetry(recorder.telemetry)
            with recorder.attached(engine.model) if traced else nullcontext():
                cpu0, t0 = time.process_time(), time.perf_counter()
                try:
                    output = run_unit(engine, scene)
                except Exception:               # a failed unit, not a crash
                    ok = False
                t1, cpu1 = time.perf_counter(), time.process_time()
            if traced:
                engine.program.disable_telemetry()
                spans = recorder.take()
            # A wrong output still ran every stage: its breakdown counts.
            if traced and ok:
                breakdowns.append(attribute(spans, t0, t1))
            ok = ok and digest(output) == expected[scene.frame_id]
            block_units.append(Unit(t1 - t0, 0.0, cpu1 - cpu0, ok, traced))
        after = host.probe_ms(chunks, memory)
        for unit in block_units:
            unit.ref_ms = (before + after) / 2
        units.extend(block_units)
    return units, breakdowns


def run_unit_path(workload: str, bench: Bench, engine, seconds: float, *,
                  traced: bool, min_units: int = 1) -> PathResult:
    """Measure the ``frame`` or ``trunk`` path on a set-up engine."""
    recorder = Recorder() if traced else None
    if workload == "frame":
        unit, digest, kind = (pipeline.run_frame, pipeline.detections_digest,
                              "detections")
        chunks, block, memory = FRAME_PROBE_CHUNKS, 1, False
    else:
        unit, digest, kind = pipeline.run_trunk, pipeline.head_digest, "head"
        chunks, block, memory = 1, TRUNK_BLOCK, True
    expected = bench.expected(kind)
    # The peak covers the timed loop only, not prepare and set-up.
    rss_reset = host.reset_peak_rss()
    units, breakdowns = _unit_loop(
        bench, engine, seconds, unit, digest, expected, chunks=chunks,
        block=block, memory=memory, recorder=recorder, min_units=min_units)
    result = PathResult(units=units, rss_mb=host.peak_rss_mb(),
                        cpu_ms=[u.cpu_s * 1e3 for u in units],
                        cpu_ref=[u.cpu_s * 1e3 / u.ref_ms for u in units])
    if traced:
        result.layers = _trace_layers(
            recorder, breakdowns, [u for u in units if not u.traced],
            [u for u in units if u.traced], detection=workload == "frame")
        if workload == "frame":
            result.layers["hardware.sim_energy_mj"] = \
                1e3 * engine.frame_cost()[1]
        result.info["spans"] = breakdowns
    result.info["rss_peak_since"] = "set-up" if rss_reset else "start"
    return result


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------
def _reap_children(timeout: float = 30.0) -> None:
    """Wait for every child process to end; kill what outlives ``timeout``."""
    deadline = time.monotonic() + timeout
    for child in multiprocessing.active_children():
        child.join(max(deadline - time.monotonic(), 0.1))
    for child in multiprocessing.active_children():
        child.kill()
        child.join(5.0)


def _child_pids() -> list[int]:
    return [child.pid for child in multiprocessing.active_children()]


def _serve_engine(bench: Bench, replicas: int) -> tuple:
    """Timed serve set-up: restore, lower, warm, spawn + warm the pool."""
    engine, times = pipeline.restore_engine(bench.blob, bench.scenes[0],
                                            batch_size=SERVE_BATCH)
    start = time.perf_counter()
    spec = ReplicaSpec.from_blobs(
        [("primary", bench.blob)], pipeline.architecture, pipeline.device(),
        batch_size=SERVE_BATCH, promote_after=0, probation=0)
    serving = ServingEngine(engine, replicas=replicas, backend="process",
                            spec=spec, max_streams=2 * SERVE_STREAMS)
    spawned = time.perf_counter()
    # One stream, one frame per replica: single-frame windows in
    # sequence, so the warm-up does the same work on every run.
    serving.serve({"warm": bench.scenes[:replicas]})
    warmed = time.perf_counter()
    return engine, serving, times, spawned - start, warmed - spawned


def _segment(serving, names, feeds, interval_s: float):
    """Submit one open-loop segment; returns per-arrival records."""
    arrivals = []
    start = time.perf_counter() + 0.001
    for j in range(SERVE_SEGMENT):
        due = start + j * interval_s
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        stream = j % len(names)
        scene = next(feeds[stream])
        lag = time.perf_counter() - due
        try:
            serving.submit(names[stream], scene, block=False)
            accepted = True
        except BackpressureError:
            accepted = False
        arrivals.append((stream, scene.frame_id, lag, accepted))
    return arrivals


def _wait_emitted(serving, names, expected: list[int],
                  timeout: float = 120.0) -> None:
    deadline = time.monotonic() + timeout
    while True:
        if all(len(serving.service_latencies(name)) >= n
               for name, n in zip(names, expected)):
            return
        if time.monotonic() > deadline:
            raise TimeoutError("serve segment did not drain")
        time.sleep(0.002)


def run_serve_path(bench: Bench, seconds: float, *,
                   setup_reps: int = SETUP_REPS) -> PathResult:
    """Measure the ``serve`` path; always reports its serving layers."""
    replicas = os.cpu_count() or 1
    setups = []
    for rep in range(setup_reps):
        gc.collect()
        before = host.probe_ms(FRAME_PROBE_CHUNKS)
        engine, serving, times, spawn_s, warm_s = _serve_engine(bench, replicas)
        after = host.probe_ms(FRAME_PROBE_CHUNKS)
        setups.append(((times, (before + after) / 2), spawn_s, warm_s))
        if rep < setup_reps - 1:
            serving.shutdown()
            _reap_children()
    try:
        return _measure_serve(bench, engine, serving, seconds, setups,
                              replicas=replicas)
    finally:
        serving.shutdown()
        _reap_children()


def _measure_serve(bench, engine, serving, seconds, setups, *,
                   replicas) -> PathResult:
    # Serving ≡ solo: every served frame must equal the trusted solo
    # ``frame`` output for its scene.
    expected = bench.expected("detections")
    pool = bench.scenes[:pipeline.SERVE_SCENES]
    names = [f"s{k}" for k in range(SERVE_STREAMS)]
    handles = [serving.open_stream(name) for name in names]

    def feed(stream):
        own = pool[stream::SERVE_STREAMS]
        while True:
            yield from own

    feeds = [feed(k) for k in range(SERVE_STREAMS)]
    stats0 = serving.stats()
    rss_reset = host.reset_peak_rss(_child_pids())
    arrivals, frame_refs, cpu_ms, cpu_ref, lags = [], [], [], [], []
    accepted = [0] * SERVE_STREAMS
    busy_cpu = busy_wall = 0.0
    end = time.perf_counter() + seconds
    segments = 0
    while time.perf_counter() < end or segments == 0:
        before = host.probe_ms(FRAME_PROBE_CHUNKS)
        pids = _child_pids()
        cpu0, kids0, t0 = (time.process_time(), host.children_cpu_s(pids),
                           time.perf_counter())
        seg = _segment(serving, names, feeds,
                       SERVE_INTERVAL_REF * before / 1e3)
        for stream, *_ , ok in seg:
            accepted[stream] += ok
        _wait_emitted(serving, names, accepted)
        t1, cpu1, kids1 = (time.perf_counter(), time.process_time(),
                           host.children_cpu_s(pids))
        after = host.probe_ms(FRAME_PROBE_CHUNKS)
        ref = (before + after) / 2
        cpu = (cpu1 - cpu0) + (kids1 - kids0)
        busy_cpu += cpu
        busy_wall += t1 - t0
        cpu_ms.append(cpu * 1e3 / len(seg))
        cpu_ref.append(cpu_ms[-1] / ref)
        arrivals.extend(seg)
        frame_refs.extend([ref] * len(seg))
        segments += 1
    rss = host.peak_rss_mb(_child_pids())
    stats1 = serving.stats()
    for name in names:
        serving.close_stream(name)
    reports = [handle.result(timeout=120.0) for handle in handles]
    latencies = [serving.service_latencies(name) for name in names]

    result = PathResult(rss_mb=rss, cpu_ms=cpu_ms, cpu_ref=cpu_ref)
    position = [0] * SERVE_STREAMS
    service_ms = []
    for (stream, frame_id, lag, ok), ref in zip(arrivals, frame_refs):
        lags.append(lag * 1e3)
        if not ok:
            result.units.append(Unit(float("nan"), ref, 0.0, False))
            continue
        i = position[stream]
        position[stream] += 1
        report = reports[stream]
        service = latencies[stream][i]
        service_ms.append(service * 1e3)
        good = (report.frames[i].status == "ok"
                and pipeline.detections_digest(report.predictions[i])
                == expected[frame_id])
        unit = Unit(lag + service, ref, 0.0, good)
        if good and unit.ratio > SERVE_LIMIT_REF:
            result.late += 1
        result.units.append(unit)

    windows = stats1.windows - stats0.windows
    by_replica = [stats1.windows_by_replica.get(key, 0)
                  - stats0.windows_by_replica.get(key, 0)
                  for key in stats1.windows_by_replica]
    by_replica += [0] * max(replicas - len(by_replica), 0)
    result.info = {"serve_interval_ref": SERVE_INTERVAL_REF,
                   "serve_interval_ms": SERVE_INTERVAL_REF * statistics.median(frame_refs),
                   "serve_limit_ref": SERVE_LIMIT_REF,
                   "replicas": replicas, "segments": segments,
                   "backend": serving.backend,
                   "rss_peak_since": "set-up" if rss_reset else "start"}
    spawn = [s for _, s, _ in setups]
    warm = [w for _, _, w in setups]
    result.layers = setup_layers([run for run, _, _ in setups],
                                 [s + w for s, w in zip(spawn, warm)])
    result.layers["setup.pool_spawn_ms"] = 1e3 * statistics.median(spawn)
    result.layers["setup.warm_ms"] += 1e3 * statistics.median(warm)
    tail = TAIL_PCT["serve"]
    result.layers.update({
        "serving.service_p50_ms": float(np.percentile(service_ms, 50)),
        "serving.service_tail_ms": float(np.percentile(service_ms, tail)),
        "gen.lag_p50_ms": float(np.percentile(lags, 50)),
        "gen.lag_max_ms": max(lags),
        "serving.frames_per_window": (stats1.frames_completed
                                      - stats0.frames_completed) / max(windows, 1),
        "serving.cross_stream_pct": 100.0 * (
            stats1.cross_stream_windows - stats0.cross_stream_windows
        ) / max(windows, 1),
        "serving.window_holds": stats1.window_holds - stats0.window_holds,
        "serving.deadline_dispatches": (stats1.deadline_dispatches
                                        - stats0.deadline_dispatches),
        "serving.rejected": stats1.frames_rejected - stats0.frames_rejected,
        "serving.failed_windows": stats1.failed_windows - stats0.failed_windows,
        "serving.window_timeouts": stats1.window_timeouts - stats0.window_timeouts,
        "serving.pool_failures": stats1.pool_failures - stats0.pool_failures,
        "serving.replica_balance": min(by_replica) / max(max(by_replica), 1),
        "serving.cpu_util_pct": 100.0 * busy_cpu / (busy_wall * replicas),
        "miss_pct": 100.0 * (sum(not u.ok for u in result.units) + result.late)
        / len(result.units),
    })
    return result
