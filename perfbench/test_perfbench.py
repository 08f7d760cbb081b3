"""The benchmark's own tests: declared metrics, tiny runs, and failing checks.

Run from the repository root with ``python3 -m pytest perfbench -q``
(about two minutes; not part of the repository's tier-1 suite).
"""

import json
import os
import re

import numpy as np
import pytest

from perfbench import host, pipeline, report, spans, workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(scope="module")
def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _units(entries):
    return {entry["name"]: entry["unit"] for entry in entries}


def test_benchmark_json_matches_the_emitted_metrics(declared):
    assert set(declared) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    # serve runs (and is traced on every workload) but is not declared:
    # its same-code spread exceeds a tenth — see README.md.
    assert [w["name"] for w in declared["workloads"]] == ["frame", "trunk"]
    assert _units(declared["end_to_end"]) == report.END_TO_END
    assert _units(declared["per_layer"]) == report.PER_LAYER
    assert len(declared["end_to_end"]) <= 16
    assert len(declared["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in declared[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    bounds = {e["name"]: e["bound"] for e in declared["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("traced", [False, True], ids=["e2e", "traced"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_emits_every_declared_metric(declared, workload, traced):
    result, info = report.run(workload, seed=0, seconds=0.0, traced=traced,
                              setup_reps=1)
    key = "per_layer" if traced else "end_to_end"
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == _units(declared[key])
    assert all(np.isfinite(m["value"]) for m in result["metrics"].values())
    for field in ("seed", "nproc", "units", "tail_pct", "blas", "ref_ms"):
        assert field in info
    json.dumps(result)
    if traced:
        metrics = result["metrics"]
        assert metrics["trace.unattributed_pct"]["value"] <= 100 * \
            spans.CONSERVATION_TOL
        assert metrics["detection.nms_share_pct"]["value"] > 0
        assert metrics["serving.service_p50_ms"]["value"] > 0


def _drop_last_detection(monkeypatch):
    import repro.models.pointpillars.model as model_module
    nms = model_module.nms_bev
    monkeypatch.setattr(model_module, "nms_bev",
                        lambda *args, **kwargs: nms(*args, **kwargs)[:-1])


def _shift_canvas(monkeypatch):
    import repro.nn.functional as functional
    scatter = functional.scatter_to_grid
    monkeypatch.setattr(functional, "scatter_to_grid",
                        lambda *args: scatter(*args) + 1e-3)


def _shift_lowered_layers(monkeypatch):
    """Perturb the lowered executors only, not the reference path."""
    from repro.runtime.executors import LoweredProgram
    run_fn = LoweredProgram._run_fn

    def shifted(self, executor):
        run = run_fn(self, executor)
        if self.mode == "reference":
            return run
        return lambda *args, **kwargs: run(*args, **kwargs) + 1e-3

    monkeypatch.setattr(LoweredProgram, "_run_fn", shifted)


UNPINNED_SEED = pipeline.PINNED_SEEDS + 7


@pytest.mark.parametrize("workload, perturb, seed", [
    ("frame", _drop_last_detection, 0), ("frame", _drop_last_detection, 5),
    ("trunk", _shift_canvas, 0), ("trunk", _shift_canvas, 9),
    ("trunk", _shift_lowered_layers, UNPINNED_SEED)])
def test_perturbed_output_counts_as_failed(monkeypatch, workload, perturb,
                                           seed):
    perturb(monkeypatch)
    result, _ = report.run(workload, seed=seed, seconds=0.0, traced=False,
                           setup_reps=1)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert result["metrics"]["ok_pct"]["value"] == 0.0


def test_unpinned_seed_checks_against_the_reference_path():
    result, _ = report.run("trunk", seed=UNPINNED_SEED, seconds=0.0,
                           traced=False, setup_reps=1)
    assert result["correct"] and result["failed"] == 0


def test_perturbed_output_raises_failed_pct(monkeypatch):
    _drop_last_detection(monkeypatch)
    result, _ = report.run("frame", seed=0, seconds=0.0, traced=True,
                           setup_reps=1)
    assert result["metrics"]["failed_pct"]["value"] > 0


def test_every_pinned_seed_has_every_scene():
    with open(pipeline.GOLDEN_PATH) as handle:
        seeds = json.load(handle)["seeds"]
    assert sorted(map(int, seeds)) == list(range(pipeline.PINNED_SEEDS))
    for kinds in seeds.values():
        assert {kind: len(digests) for kind, digests in kinds.items()} == {
            kind: pipeline.SCENES_PER_SEED for kind in pipeline.KINDS}


def test_peak_rss_counts_from_the_reset():
    block = np.ones(64 * 2**20 // 8)            # touch 64 MiB, then free
    del block
    before = host.peak_rss_mb()
    assert host.reset_peak_rss()
    assert host.peak_rss_mb() < before - 32


def test_trunk_attribution_charges_attachment_to_the_runtime():
    trunk = [("preprocess", 1.0, 2.0), ("forward", 2.0, 6.0),
             ("pfn", 2.0, 3.0), ("scatter", 3.0, 3.5),
             ("backbone", 3.5, 5.0), ("head", 5.0, 5.9)]
    times = spans.attribute(trunk, 0.5, 6.5)
    assert "detection.nms" not in times
    assert times["runtime.engine"] == pytest.approx(6.0 - 4.0 - 1.0)
    assert times["unattributed"] == pytest.approx(0.1)


def test_attribution_conserves_unit_time():
    trunk = [("preprocess", 1.0, 2.0), ("pfn", 2.0, 3.0),
             ("scatter", 3.0, 3.5), ("backbone", 3.5, 5.0),
             ("head", 5.0, 6.0)]
    frame = trunk + [("predict", 0.9, 9.0), ("nms", 6.5, 8.0)]
    times = spans.attribute(frame, 0.5, 9.5)
    named = sum(times[stage] for stage in spans.STAGES)
    assert named + times["unattributed"] == pytest.approx(times["unit"])
    assert times["runtime.engine"] == pytest.approx(0.9)
    assert times["detection.nms"] == pytest.approx(1.5)
    assert times["detection.decode"] == pytest.approx(1.5)
    assert times["unattributed"] == pytest.approx(0.1)


@pytest.mark.parametrize("bad, message", [
    ([("preprocess", 1.0, 2.5), ("pfn", 2.0, 3.0)], "overlap"),
    ([("preprocess", 0.0, 2.0)], "escapes"),
    ([("preprocess", 1.0, 2.0)], "missing"),
])
def test_broken_traces_fail_loudly(bad, message):
    good = {"preprocess": ("preprocess", 1.0, 2.0), "pfn": ("pfn", 2.0, 3.0),
            "scatter": ("scatter", 3.0, 3.5),
            "backbone": ("backbone", 3.5, 5.0), "head": ("head", 5.0, 6.0),
            "forward": ("forward", 2.0, 6.0)}
    for span in bad:
        good[span[0]] = span
    trace = list(good.values()) if message != "missing" else bad
    with pytest.raises(spans.ConservationError, match=message):
        spans.attribute(trace, 0.5, 6.5)


def test_conservation_tolerance_is_enforced():
    ok = {"unit": 1.0, "unattributed": spans.CONSERVATION_TOL / 2}
    assert spans.check_conservation([ok]) == pytest.approx(
        spans.CONSERVATION_TOL / 2)
    leaky = {"unit": 1.0, "unattributed": 2 * spans.CONSERVATION_TOL}
    with pytest.raises(spans.ConservationError):
        spans.check_conservation([leaky])


@pytest.mark.parametrize("n, wanted, expected", [
    (100, 90, 90), (50, 80, 80), (40, 80, 75), (15, 80, 50), (5, 99, 50)])
def test_tail_percentile_leaves_ten_samples_beyond(n, wanted, expected):
    assert report.tail_percentile(n, wanted) == expected
