"""Turn measured paths into the metrics ``BENCHMARK.json`` declares."""

from __future__ import annotations

import math
import os
import platform
import statistics

import numpy as np

from . import host, spans, workloads
from .workloads import WORKLOADS, Bench, PathResult

#: End-to-end metrics (tracing off): name → unit.  ``*_ref`` values are
#: per-unit ratios to the host-reference probe time (``host.ref_ms``).
END_TO_END = {
    "latency_p50_ref": "ref",
    "latency_tail_ref": "ref",
    "cpu_per_unit_ref": "ref",
    "ok_pct": "%",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

#: Per-layer metrics (traced run): name → unit.
PER_LAYER = {
    "pointcloud.voxelize_ms": "ms",
    "pointcloud.pillars": "count",
    "models.pfn_ms": "ms",
    "nn.scatter_ms": "ms",
    "models.backbone_ms": "ms",
    "models.head_ms": "ms",
    "executors.macs": "count",
    "executors.cols_skipped_pct": "%",
    "executors.saturation_pct": "%",
    "detection.decode_ms": "ms",
    "detection.nms_ms": "ms",
    "detection.nms_share_pct": "%",
    "detection.nms_calls": "count",
    "detection.nms_candidates": "count",
    "detection.nms_kept": "count",
    "detection.nms_keep_ratio": "ratio",
    "pointcloud.iou_bev_calls": "count",
    "runtime.engine_ms": "ms",
    "hardware.sim_energy_mj": "mJ",
    "serving.service_p50_ms": "ms",
    "serving.service_tail_ms": "ms",
    "gen.lag_p50_ms": "ms",
    "gen.lag_max_ms": "ms",
    "serving.frames_per_window": "count",
    "serving.cross_stream_pct": "%",
    "serving.window_holds": "count",
    "serving.deadline_dispatches": "count",
    "serving.rejected": "count",
    "serving.failed_windows": "count",
    "serving.window_timeouts": "count",
    "serving.pool_failures": "count",
    "serving.replica_balance": "ratio",
    "serving.cpu_util_pct": "%",
    "setup.restore_ms": "ms",
    "setup.lowering_ms": "ms",
    "setup.warm_ms": "ms",
    "setup.pool_spawn_ms": "ms",
    "host.ref_ms": "ms",
    "wall.latency_p50_ms": "ms",
    "wall.latency_tail_ms": "ms",
    "wall.cpu_ms_per_unit": "ms",
    "trace.overhead_pct": "%",
    "trace.unattributed_pct": "%",
    "failed_pct": "%",
    "miss_pct": "%",
}

#: Units a coverage pass measures in a traced run of another workload.
COVER_UNITS = {"frame": 8, "trunk": 40}


def tail_percentile(n: int, wanted: int) -> int:
    """``wanted``, or the highest percentile leaving ten samples beyond."""
    if n * (100 - wanted) / 100 >= 10:
        return wanted
    return max(50, math.floor(100 * (1 - 10 / max(n, 1))))


def measure(workload: str, bench: Bench, seconds: float, traced: bool, *,
            cover: bool = False, setup_reps: int = workloads.SETUP_REPS
            ) -> PathResult:
    """Set up and measure one path; ``cover`` makes it a short pass."""
    if cover:
        seconds, setup_reps = 0.0, 1
    if workload == "serve":
        return workloads.run_serve_path(bench, seconds, setup_reps=setup_reps)
    engine, setups = bench.setup(reps=setup_reps)
    # A traced run alternates traced and untraced units: at least one each.
    result = workloads.run_unit_path(
        workload, bench, engine, seconds, traced=traced,
        min_units=COVER_UNITS[workload] if cover else 1 + traced)
    result.layers.update(workloads.setup_layers(setups))
    return result


def run(workload: str, seed: int, seconds: float, traced: bool, *,
        setup_reps: int = workloads.SETUP_REPS) -> tuple[dict, dict]:
    """Measure ``workload``; returns (the result line, the run record).

    A traced run measures its own path for ``seconds`` and then makes
    a short traced pass over the other two paths, so every per-layer
    metric is measured on every workload; a metric that both measure
    comes from the workload's own path.
    """
    bench = Bench(seed)
    own = measure(workload, bench, seconds, traced, setup_reps=setup_reps)
    attempted = len(own.units)
    correct = [u for u in own.units if u.ok]
    failed = attempted - len(correct)
    timed = [u for u in own.units if math.isfinite(u.latency_s)]
    ratios = [u.ratio for u in timed]
    tail_pct = tail_percentile(len(ratios), workloads.TAIL_PCT[workload])
    info = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(traced), "nproc": os.cpu_count(),
        "python": platform.python_version(), "blas": host.blas_version(),
        "units": attempted, "tail_pct": tail_pct,
        "tail_beyond": int(np.sum(np.asarray(ratios)
                                  > np.percentile(ratios, tail_pct))),
        "ref_ms": statistics.median(u.ref_ms for u in own.units),
        "raw_p50_ms": statistics.median(u.latency_s * 1e3 for u in timed),
        "raw_cpu_ms": statistics.median(own.cpu_ms),
        "probe_iters": host.PROBE_ITERS,
        "nominal_ref_ms": host.NOMINAL_REF_MS,
        **{k: v for k, v in own.info.items() if k != "spans"},
    }
    if not traced:
        metrics = {
            "latency_p50_ref": statistics.median(ratios),
            "latency_tail_ref": float(np.percentile(ratios, tail_pct)),
            "cpu_per_unit_ref": statistics.median(own.cpu_ref),
            "ok_pct": 100.0 * (len(correct) - own.late) / attempted,
            "peak_rss_mb": own.rss_mb,
            "setup_s": own.layers["setup_s"],
        }
        units = END_TO_END
    else:
        layers = dict(own.layers)
        for other in WORKLOADS:
            if other != workload:
                covered = measure(other, bench, 0.0, True, cover=True)
                info.update({k: v for k, v in covered.info.items()
                             if k.startswith("serve_")})
                for name, value in covered.layers.items():
                    layers.setdefault(name, value)
        raw_ms = [u.latency_s * 1e3 for u in timed]
        layers.update({
            "host.ref_ms": info["ref_ms"],
            "wall.latency_p50_ms": info["raw_p50_ms"],
            "wall.latency_tail_ms": float(np.percentile(raw_ms, tail_pct)),
            "wall.cpu_ms_per_unit": info["raw_cpu_ms"],
            "failed_pct": 100.0 * failed / attempted,
        })
        info["spans"] = own.info.get("spans", [])
        info["conservation_tol_pct"] = 100 * spans.CONSERVATION_TOL
        metrics = layers
        units = PER_LAYER
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    return result, info
