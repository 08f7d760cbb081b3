"""Outside-in span recording around the program's public calls.

The traced run wraps the public callables a frame passes through —
``model.predict``, ``model.preprocess``, ``model.forward``,
``model.pfn``, ``F.scatter_to_grid``, ``model.backbone``,
``model.head`` and the ``nms_bev`` name the detector looks up — with timing
shims that append ``(name, start, end)`` spans to an in-memory list;
``iou_bev`` gets a call counter only.  Nothing in ``src/`` changes, and
every shim is removed on exit.

Stage self-times are then derived per traced unit and must add up to
the unit's wall time (:func:`attribute`): the remainder that no named
stage covers is reported as unattributed, and a breakdown whose spans
overlap, escape the unit, or leave more than :data:`CONSERVATION_TOL`
of the time unattributed raises :class:`ConservationError` instead of
being printed.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import repro.detection.nms as nms_module
import repro.models.pointpillars.model as pointpillars_module
import repro.nn.functional as functional

#: Largest share of traced unit time that may go unattributed.
CONSERVATION_TOL = 0.05

#: Trunk stages in execution order, as ``(stage name, span name)``.
TRUNK_STAGES = (("pointcloud.voxelize", "preprocess"),
                ("models.pfn", "pfn"), ("nn.scatter", "scatter"),
                ("models.backbone", "backbone"), ("models.head", "head"))
#: Every stage a traced unit is split into.
STAGES = tuple(name for name, _ in TRUNK_STAGES) + (
    "detection.decode", "detection.nms", "runtime.engine")


class ConservationError(RuntimeError):
    """Traced stage times do not add up to the traced unit's time."""


class Recorder:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.spans: list[tuple[str, float, float]] = []
        self.counts = {"iou_bev": 0, "nms_calls": 0, "nms_candidates": 0,
                       "nms_kept": 0, "pillars": 0}
        #: executor counters (``LoweredProgram.enable_telemetry``)
        self.telemetry: dict = {}

    def timed(self, name: str, fn):
        spans = self.spans

        def shim(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.append((name, start, time.perf_counter()))
        return shim

    def take(self) -> list[tuple[str, float, float]]:
        spans, self.spans[:] = list(self.spans), []
        return spans

    @contextmanager
    def attached(self, model):
        """Install the shims on ``model`` and the detector's names."""
        counts = self.counts

        def nms_bev(boxes, scores, *args, **kwargs):
            keep = nms_fn(boxes, scores, *args, **kwargs)
            counts["nms_calls"] += 1
            counts["nms_candidates"] += len(boxes)
            counts["nms_kept"] += len(keep)
            return keep

        def iou_bev(box_a, box_b):
            counts["iou_bev"] += 1
            return iou_fn(box_a, box_b)

        def preprocess(scene):
            out = preprocess_fn(scene)
            counts["pillars"] += len(out[2])
            return out

        nms_fn, iou_fn = pointpillars_module.nms_bev, nms_module.iou_bev
        preprocess_fn = model.preprocess
        globals_patch = [
            (pointpillars_module, "nms_bev", self.timed("nms", nms_bev)),
            (functional, "scatter_to_grid",
             self.timed("scatter", functional.scatter_to_grid)),
            (nms_module, "iou_bev", iou_bev)]
        instance_patch = [
            (model, "predict", self.timed("predict", model.predict)),
            (model, "preprocess", self.timed("preprocess", preprocess)),
            (model, "forward", self.timed("forward", model.forward)),
            (model.pfn, "forward", self.timed("pfn", model.pfn.forward)),
            (model.backbone, "forward",
             self.timed("backbone", model.backbone.forward)),
            (model.head, "forward", self.timed("head", model.head.forward))]
        saved = [(owner, name, getattr(owner, name))
                 for owner, name, _ in globals_patch]
        try:
            for owner, name, shim in globals_patch:
                setattr(owner, name, shim)
            for owner, name, shim in instance_patch:
                object.__setattr__(owner, name, shim)
            yield self
        finally:
            for owner, name, _ in instance_patch:
                vars(owner).pop(name, None)
            for owner, name, original in saved:
                setattr(owner, name, original)


def _covered(spans, name) -> float:
    return sum(end - start for span, start, end in spans if span == name)


def attribute(spans, unit_start: float, unit_end: float) -> dict:
    """Split one traced unit into stage self-times (seconds).

    A ``frame`` unit is ``engine.run``: the run-time's own time is the
    unit minus ``predict``; decode is everything in ``predict`` after
    the head returns, minus NMS.  A ``trunk`` unit has no ``predict``
    span: its run-time time is the unit minus ``preprocess`` and
    ``forward`` (attaching the lowered program), and it has no decode
    or NMS stage.  Returns ``{stage: seconds}`` plus ``"unattributed"``
    and ``"unit"``.
    """
    if any(start < unit_start or end > unit_end for _, start, end in spans):
        raise ConservationError("a span escapes its traced unit")
    trunk = [next((s for s in spans if s[0] == span), None)
             for _, span in TRUNK_STAGES]
    if any(s is None for s in trunk):
        missing = [stage for (stage, _), s in zip(TRUNK_STAGES, trunk)
                   if s is None]
        raise ConservationError(f"traced unit is missing stages {missing}")
    for earlier, later in zip(trunk, trunk[1:]):
        if later[1] < earlier[2]:
            raise ConservationError(
                f"stage spans {earlier[0]} and {later[0]} overlap")
    times = {stage: s[2] - s[1] for (stage, _), s in zip(TRUNK_STAGES, trunk)}
    predict = [s for s in spans if s[0] == "predict"]
    head_end = trunk[-1][2]
    if predict:
        _, p_start, p_end = predict[0]
        nms = [s for s in spans if s[0] == "nms"]
        if any(start < head_end for _, start, _ in nms):
            raise ConservationError("NMS span starts before the head ends")
        times["detection.nms"] = _covered(nms, "nms")
        times["detection.decode"] = (p_end - head_end) - times["detection.nms"]
        times["runtime.engine"] = (unit_end - unit_start) - (p_end - p_start)
    else:
        forward = next((s for s in spans if s[0] == "forward"), None)
        if forward is None:
            raise ConservationError("traced unit is missing model.forward")
        times["runtime.engine"] = (unit_end - unit_start) - (
            forward[2] - forward[1]) - times["pointcloud.voxelize"]
    unit = unit_end - unit_start
    named = sum(times.values())
    if min(times.values()) < 0:
        raise ConservationError(f"negative stage self-time: {times}")
    times["unattributed"] = unit - named
    times["unit"] = unit
    return times


def check_conservation(breakdowns: list[dict]) -> float:
    """Unattributed share of all traced unit time; raises past the tolerance."""
    if not breakdowns:
        raise ConservationError("no traced unit completed")
    unit = sum(b["unit"] for b in breakdowns)
    unattributed = sum(b["unattributed"] for b in breakdowns)
    share = unattributed / unit
    if not 0.0 <= share <= CONSERVATION_TOL:
        raise ConservationError(
            f"stage self-times leave {100 * share:.2f}% of traced unit time "
            f"unattributed (tolerance {100 * CONSERVATION_TOL:.0f}%)")
    return share
