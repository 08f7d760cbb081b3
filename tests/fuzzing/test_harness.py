"""The sweep harness on minimal matrices, plus the fuzz/query CLI."""

import json

import pytest

from repro.cli import main
from repro.fuzzing import (CONDITIONS, PRESETS, FuzzConfig,
                           build_preset_config, cell_seed, check_gate,
                           load_report, make_baseline, run_fuzz,
                           write_baseline, write_report)


def _one_cell(scenario="dense_traffic", preset="hck-4bit",
              condition="clean", frames=2, seed=0):
    return FuzzConfig(scenarios=(scenario,), presets=(preset,),
                      conditions=(condition,), frames_per_cell=frames,
                      seed=seed)


@pytest.fixture(scope="module")
def clean_report():
    return run_fuzz(_one_cell())


class TestMatrixValidation:
    def test_unknown_axes_rejected(self):
        with pytest.raises(ValueError, match="scenario"):
            FuzzConfig(scenarios=("nope",))
        with pytest.raises(ValueError, match="preset"):
            FuzzConfig(presets=("nope",))
        with pytest.raises(ValueError, match="condition"):
            FuzzConfig(conditions=("nope",))
        with pytest.raises(ValueError, match="frames"):
            FuzzConfig(frames_per_cell=0)

    def test_preset_recipes_resolve(self):
        assert build_preset_config("float") is None
        assert build_preset_config("hck-4bit").quant_bits == (4,)
        assert build_preset_config("lck-16bit").quant_bits == (16,)
        with pytest.raises(KeyError):
            build_preset_config("nope")

    def test_cell_seed_stable_and_distinct(self):
        a = cell_seed(0, "dense_traffic|hck|clean")
        assert a == cell_seed(0, "dense_traffic|hck|clean")
        assert a != cell_seed(1, "dense_traffic|hck|clean")
        assert a != cell_seed(0, "night_rain|hck|clean")


class TestRunFuzz:
    def test_cell_shape(self, clean_report):
        assert list(clean_report.cells) == ["dense_traffic|hck-4bit|clean"]
        metrics = clean_report.cells["dense_traffic|hck-4bit|clean"]
        assert metrics["ok_frames"] + metrics["degraded_frames"] \
            + metrics["dropped_frames"] == 2
        assert metrics["p50_ms"] <= metrics["p99_ms"]
        assert len(clean_report.rows) == 2

    def test_rows_reference_cell(self, clean_report):
        for row in clean_report.rows:
            assert row["cell"] == "dense_traffic|hck-4bit|clean"
            assert row["status"] in ("ok", "degraded", "dropped")
            assert row["gt_count"] >= 0

    def test_run_twice_identical(self, clean_report):
        again = run_fuzz(_one_cell())
        assert json.dumps(clean_report.to_json(), sort_keys=True) \
            == json.dumps(again.to_json(), sort_keys=True)

    def test_seed_changes_faulty_stream(self):
        # Fault schedules derive from the sweep seed; under the faulty
        # condition different seeds must produce different cell rows.
        a = run_fuzz(_one_cell(condition="faulty", frames=4, seed=0))
        b = run_fuzz(_one_cell(condition="faulty", frames=4, seed=1))
        assert a.rows != b.rows

    def test_subset_reproduces_full_sweep_cell(self):
        # Cell content is independent of sweep composition: a 1-cell
        # sweep must byte-match the same cell from a 2-condition sweep.
        full = run_fuzz(FuzzConfig(scenarios=("dense_traffic",),
                                   presets=("hck-4bit",),
                                   conditions=("clean", "faulty"),
                                   frames_per_cell=2, seed=0))
        subset = run_fuzz(_one_cell(condition="faulty"))
        key = "dense_traffic|hck-4bit|faulty"
        assert subset.cells[key] == full.cells[key]

    def test_pressure_condition_misses_deadlines(self):
        report = run_fuzz(_one_cell(condition="pressure"))
        metrics = report.cells["dense_traffic|hck-4bit|pressure"]
        assert metrics["deadline_hit_rate"] == 0.0
        assert metrics["missed_deadline_frames"] == 2

    def test_pressure_fallback_rows_match_the_rung_preset(self):
        # The fallback rung runs the preset's own compressed model and
        # IR, so a frame it serves scores exactly as that preset does
        # when it is the primary.
        report = run_fuzz(FuzzConfig(scenarios=("dense_traffic",),
                                     presets=("hck", "hck-4bit"),
                                     conditions=("clean", "pressure"),
                                     frames_per_cell=3, seed=0))
        clean = {row["frame_id"]: row for row in report.rows
                 if row["cell"] == "dense_traffic|hck-4bit|clean"}
        served = [row for row in report.rows
                  if row["cell"] == "dense_traffic|hck|pressure"
                  and row["fallback"]]
        assert [row["rung"] for row in served] == ["hck-4bit"]
        for row in served:
            assert row["max_score"] == clean[row["frame_id"]]["max_score"]
            assert row["num_detections"] \
                == clean[row["frame_id"]]["num_detections"]

    def test_report_roundtrip(self, clean_report, tmp_path):
        path = tmp_path / "report.json"
        write_report(clean_report, str(path))
        loaded = load_report(str(path))
        assert loaded.config == clean_report.config
        assert loaded.cells == clean_report.cells
        assert loaded.rows == clean_report.rows

    def test_gate_against_own_baseline(self, clean_report):
        gate = check_gate(clean_report, make_baseline(clean_report))
        assert gate.passed
        assert gate.checked_cells == 1


class TestConditionsRegistry:
    def test_ladder_presets_are_known_presets(self):
        laddered = {name: condition.ladder_presets
                    for name, condition in CONDITIONS.items()
                    if condition.ladder_presets}
        assert {"pressure", "ladder"} <= set(laddered)
        for presets in laddered.values():
            assert set(presets) <= set(PRESETS)

    def test_faulty_actually_injects(self):
        assert CONDITIONS["faulty"].injects_faults
        assert not CONDITIONS["clean"].injects_faults


class TestCLI:
    def _fuzz(self, *extra):
        return main(["fuzz", "--scenarios", "dense_traffic",
                     "--presets", "hck-4bit", "--conditions", "clean",
                     "--frames", "2", *extra])

    def test_write_baseline_then_pass(self, tmp_path, capsys):
        baseline = str(tmp_path / "baseline.json")
        assert self._fuzz("--baseline", baseline, "--write-baseline") == 0
        gate_path = str(tmp_path / "gate.json")
        assert self._fuzz("--baseline", baseline,
                          "--gate-report", gate_path) == 0
        payload = json.loads(open(gate_path).read())
        assert payload["passed"] is True
        assert payload["checked_cells"] == 1

    def test_regression_exits_nonzero(self, tmp_path, capsys):
        # Doctor the baseline to promise a much higher mAP than the
        # sweep can deliver: the gate must fail with exit code 1.
        baseline = str(tmp_path / "baseline.json")
        report = run_fuzz(_one_cell())
        for metrics in report.cells.values():
            metrics["mAP"] = metrics["mAP"] + 50.0
        write_baseline(report, baseline)
        gate_path = str(tmp_path / "gate.json")
        assert self._fuzz("--baseline", baseline,
                          "--gate-report", gate_path) == 1
        payload = json.loads(open(gate_path).read())
        assert payload["failures"][0]["kind"] == "map_drop"

    def test_latency_regression_exits_nonzero(self, tmp_path, capsys):
        baseline = str(tmp_path / "baseline.json")
        report = run_fuzz(_one_cell())
        for metrics in report.cells.values():
            metrics["p99_ms"] = metrics["p99_ms"] / 2.0
        write_baseline(report, baseline)
        assert self._fuzz("--baseline", baseline) == 1

    def test_missing_baseline_exits_2(self, tmp_path, capsys):
        assert self._fuzz("--baseline",
                          str(tmp_path / "absent.json")) == 2

    def test_mismatched_baseline_exits_2(self, tmp_path, capsys):
        baseline = str(tmp_path / "baseline.json")
        write_baseline(run_fuzz(_one_cell(seed=5)), baseline)
        assert self._fuzz("--baseline", baseline) == 2

    def test_unknown_scenario_exits_2(self, capsys):
        assert main(["fuzz", "--scenarios", "nope"]) == 2

    def test_list(self, capsys):
        assert main(["fuzz", "--list"]) == 0
        out = capsys.readouterr().out
        assert "dense_traffic" in out and "hck-4bit" in out \
            and "pressure" in out

    def test_query_cli(self, clean_report, tmp_path, capsys):
        path = str(tmp_path / "report.json")
        write_report(clean_report, path)
        assert main(["query", "status = ok", "--report", path,
                     "--count"]) == 0
        assert capsys.readouterr().out.strip() == "2"
        assert main(["query", "latency_ms > 0 and gt_count >= 0",
                     "--report", path]) == 0
        lines = [line for line in
                 capsys.readouterr().out.strip().splitlines() if line]
        assert len(lines) == 2
        assert json.loads(lines[0])["cell"] \
            == "dense_traffic|hck-4bit|clean"

    def test_query_bad_expression_exits_2(self, tmp_path, capsys):
        assert main(["query", "status ~~~ ok",
                     "--report", str(tmp_path / "r.json")]) == 2

    def test_query_missing_report_exits_2(self, tmp_path, capsys):
        assert main(["query", "status = ok",
                     "--report", str(tmp_path / "absent.json")]) == 2
