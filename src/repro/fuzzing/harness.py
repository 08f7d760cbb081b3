"""The chaos sweep: run every matrix cell through the streaming engine.

For each ``scenario × preset × condition`` cell the harness

1. generates the scenario's seed-deterministic scenes (shared across
   presets/conditions — scene content depends only on the scenario and
   sweep seed),
2. compresses the model under test with the cell's preset (memoized per
   sweep; compression is itself deterministic),
3. streams the scenes through an :class:`~repro.runtime.InferenceEngine`
   configured by the condition (faults, deadline, batching, watchdog
   degradation ladder), and
4. distills the :class:`~repro.runtime.StreamReport` into per-cell
   metrics — mAP via :func:`repro.detection.evaluate_map`, stratified
   difficulty mAPs, p50/p99 device latency, deadline hit rate, frame
   status counters — plus one query-ready row per frame.

Everything downstream of the sweep seed is deterministic, so the same
:class:`~repro.fuzzing.matrix.FuzzConfig` always yields a byte-identical
report JSON; the regression gate (:mod:`repro.fuzzing.gate`) leans on
that.  Cell aggregation runs through the declarative query layer
(:mod:`repro.fuzzing.query`) — the same predicates a user types at the
``repro query`` CLI.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from repro.pointcloud import make_scenario_scenes

from .matrix import (CONDITIONS, FuzzConfig, build_fuzz_model,
                     build_preset_config, cell_key, cell_seed)
from .query import F

__all__ = ["FuzzReport", "run_fuzz", "write_report", "load_report",
           "REPORT_VERSION"]

REPORT_VERSION = 1


@dataclass
class FuzzReport:
    """Machine-readable result of one sweep."""

    config: FuzzConfig
    #: cell key → metrics dict (JSON-safe: NaN encoded as None on disk)
    cells: dict = field(default_factory=dict)
    #: one flat dict per streamed frame, for the query layer
    rows: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "version": REPORT_VERSION,
            "seed": self.config.seed,
            "frames_per_cell": self.config.frames_per_cell,
            "model": self.config.model,
            "execution": self.config.execution,
            "device": self.config.device,
            "scenarios": list(self.config.scenarios),
            "presets": list(self.config.presets),
            "conditions": list(self.config.conditions),
            "cells": {key: _json_safe(metrics)
                      for key, metrics in sorted(self.cells.items())},
            "rows": [_json_safe(row) for row in self.rows],
        }

    @staticmethod
    def from_json(payload: dict) -> "FuzzReport":
        config = FuzzConfig(
            scenarios=tuple(payload["scenarios"]),
            presets=tuple(payload["presets"]),
            conditions=tuple(payload["conditions"]),
            frames_per_cell=payload["frames_per_cell"],
            seed=payload["seed"],
            model=payload.get("model", "tiny"),
            execution=payload.get("execution", "reference"),
            device=payload.get("device", "jetson"))
        return FuzzReport(
            config=config,
            cells={key: _nan_safe(metrics)
                   for key, metrics in payload["cells"].items()},
            rows=[_nan_safe(row) for row in payload.get("rows", [])])


def _json_safe(mapping: dict) -> dict:
    """NaN → None so the payload is strict JSON."""
    out = {}
    for key, value in mapping.items():
        if isinstance(value, float) and math.isnan(value):
            out[key] = None
        else:
            out[key] = value
    return out


def _nan_safe(mapping: dict) -> dict:
    """Inverse of :func:`_json_safe` for the float-valued metric keys."""
    return {key: (math.nan if value is None else value)
            for key, value in mapping.items()}


# ---------------------------------------------------------------------------

def _build_engine(model, ir, condition, device, execution, seed_value,
                  ladder=None):
    from repro.hardware import default_devices
    from repro.runtime import (DegradationPolicy, FaultInjector, FaultSpec,
                               InferenceEngine)
    injector = None
    if condition.injects_faults:
        injector = FaultInjector(FaultSpec(
            drop_rate=condition.drop_rate,
            corrupt_rate=condition.corrupt_rate,
            nan_fraction=condition.nan_fraction,
            jitter=condition.jitter,
            jitter_scale_s=condition.jitter_ms / 1e3,
            seed=seed_value))
    cost_hook = None
    if condition.pressure_factor and condition.pressure_frames:
        def cost_hook(frame_id, latency, energy):
            if frame_id < condition.pressure_frames:
                return latency * condition.pressure_factor, energy
            return latency, energy
    policy = DegradationPolicy(on_corrupt=condition.on_corrupt,
                               max_consecutive_misses=condition.miss_limit)
    return InferenceEngine(model, default_devices()[device],
                           deadline_s=condition.deadline_ms / 1e3,
                           policy=policy, fault_injector=injector,
                           ladder=ladder,
                           cost_hook=cost_hook,
                           execution=execution,
                           batch_size=condition.batch_size, ir=ir)


def _frame_rows(key, scenario, preset, condition_name, report, scenes):
    gt_by_frame = {scene.frame_id: scene.boxes for scene in scenes}
    rows = []
    for record, result in zip(report.frames, report.predictions):
        gt = gt_by_frame.get(record.frame_id, [])
        scores = [b.score for b in result.boxes]
        rows.append({
            "scenario": scenario,
            "preset": preset,
            "condition": condition_name,
            "cell": key,
            "frame_id": record.frame_id,
            "status": record.status,
            "deadline_met": bool(record.deadline_met),
            "fallback": bool(record.fallback),
            "rung": record.rung if record.rung is not None else "primary",
            "latency_ms": record.device_latency_s * 1e3,
            "energy_mj": record.device_energy_j * 1e3,
            "num_detections": record.num_detections,
            "labels": sorted({b.label for b in result.boxes}),
            "max_score": float(max(scores)) if scores else math.nan,
            "gt_labels": sorted({b.label for b in gt}),
            "gt_count": len(gt),
        })
    return rows


def _cell_metrics(report, rows, scenes):
    """Distill one cell's stream into gate-comparable numbers.

    The row-level aggregates run through the query layer — the gate
    trusts exactly the predicates a user could type at ``repro query``.
    """
    from repro.detection import evaluate_by_difficulty
    evaluation = report.evaluate([scene.boxes for scene in scenes])
    by_difficulty = evaluate_by_difficulty(
        report.predictions, [scene.boxes for scene in scenes])

    ok = (F.status == "ok").filter(rows)
    latencies = [row["latency_ms"] for row in ok]
    missed = ((F.status == "ok") & (F.deadline_met == False)).count(rows)  # noqa: E712
    held = ((F.status == "degraded") & (F.num_detections > 0)).count(rows)
    silent = ((F.status == "ok") & (F.num_detections == 0)
              & (F.gt_count > 0)).count(rows)

    def percentile(q):
        if not latencies:
            return math.nan
        return float(np.percentile(latencies, q))

    return {
        "mAP": float(evaluation["mAP"]),
        "ap_car": float(evaluation.get("Car", math.nan)),
        "ap_pedestrian": float(evaluation.get("Pedestrian", math.nan)),
        "ap_cyclist": float(evaluation.get("Cyclist", math.nan)),
        "mAP_easy": float(by_difficulty["easy"]["mAP"]),
        "mAP_moderate": float(by_difficulty["moderate"]["mAP"]),
        "mAP_hard": float(by_difficulty["hard"]["mAP"]),
        "p50_ms": percentile(50.0),
        "p99_ms": percentile(99.0),
        "deadline_hit_rate": float(report.deadline_hit_rate),
        "ok_frames": report.ok_frames,
        "degraded_frames": report.degraded_frames,
        "dropped_frames": report.dropped_frames,
        "missed_deadline_frames": missed,
        "held_detection_frames": held,
        "silent_miss_frames": silent,
        "fallback_activations": report.fallback_activations,
        "ladder_demotions": report.demotions,
        "ladder_promotions": report.promotions,
        "total_energy_mj": float(report.total_energy_j * 1e3),
        "num_detections": int(sum(row["num_detections"] for row in rows)),
    }


def run_fuzz(config: FuzzConfig | None = None, progress=None) -> FuzzReport:
    """Sweep the configured matrix; returns the full report.

    ``progress`` is an optional ``(cell_key, metrics) -> None`` callback
    invoked as each cell finishes (the CLI uses it for live output).
    """
    config = config or FuzzConfig()
    base_model = build_fuzz_model(config.model)

    compressed: dict[str, tuple] = {}

    def model_for(preset_name: str):
        """(model, ir) for a preset — compressed once per sweep."""
        if preset_name not in compressed:
            preset = build_preset_config(preset_name)
            if preset is None:
                from repro.ir import extract_ir
                model = base_model
                ir = extract_ir(model, *model.example_inputs())
            else:
                from repro.core import UPAQCompressor
                outcome = UPAQCompressor(preset).compress(
                    base_model, *base_model.example_inputs())
                model, ir = outcome.model, outcome.ir
            model.eval()
            compressed[preset_name] = (model, ir)
        return compressed[preset_name]

    scene_cache: dict[str, list] = {}

    def scenes_for(scenario: str):
        if scenario not in scene_cache:
            scene_cache[scenario] = make_scenario_scenes(
                scenario, config.frames_per_cell, seed=config.seed)
        return scene_cache[scenario]

    report = FuzzReport(config=config)
    for scenario, preset, condition_name in config.cells():
        condition = CONDITIONS[condition_name]
        key = cell_key(scenario, preset, condition_name)
        model, ir = model_for(preset)
        ladder = None
        if condition.ladder_presets:
            from repro.runtime import DegradationLadder, LadderRung
            rungs = [LadderRung(name=preset, model=model, ir=ir)]
            for rung_preset in condition.ladder_presets:
                if rung_preset == preset:
                    continue    # the cell's preset is already rung 0
                rung_model, rung_ir = model_for(rung_preset)
                rungs.append(LadderRung(name=rung_preset,
                                        model=rung_model, ir=rung_ir))
            ladder = DegradationLadder(
                rungs, promote_after=condition.promote_after,
                probation=condition.probation)
        engine = _build_engine(model, ir, condition, config.device,
                               config.execution,
                               cell_seed(config.seed, key),
                               ladder=ladder)
        scenes = scenes_for(scenario)
        stream = engine.run(scenes)
        rows = _frame_rows(key, scenario, preset, condition_name,
                           stream, scenes)
        metrics = _cell_metrics(stream, rows, scenes)
        report.cells[key] = metrics
        report.rows.extend(rows)
        if progress is not None:
            progress(key, metrics)
    return report


def write_report(report: FuzzReport, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(report.to_json(), handle, indent=2, sort_keys=True,
                  allow_nan=False)
        handle.write("\n")


def load_report(path: str) -> FuzzReport:
    with open(path) as handle:
        return FuzzReport.from_json(json.load(handle))
