"""The real sweep, gated and re-run — excluded from tier-1 (`-m fuzz`).

These are the acceptance tests for the scenario-matrix harness: a
multi-family, multi-preset sweep is bit-deterministic under one seed,
and its cells gate cleanly against the committed
``artifacts/fuzz_baseline.json`` (whose cells were produced by a *full*
matrix run — cell seeding is composition-independent, so this subset
must reproduce them exactly).
"""

import json
import os

import pytest

from repro.fuzzing import FuzzConfig, check_gate, load_baseline, run_fuzz

pytestmark = pytest.mark.fuzz

BASELINE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "..", "..", "artifacts", "fuzz_baseline.json")

SWEEP = FuzzConfig(
    scenarios=("dense_traffic", "occlusion_chain", "night_rain",
               "sensor_dropout", "near_duplicate"),
    presets=("hck", "lck", "hck-4bit"),
    conditions=("clean", "faulty"),
    frames_per_cell=3, seed=0)


@pytest.fixture(scope="module")
def sweep_report():
    return run_fuzz(SWEEP)


class TestSweepDeterminism:
    def test_covers_the_promised_matrix(self, sweep_report):
        assert len(SWEEP.scenarios) >= 5
        assert len(SWEEP.presets) >= 3
        assert len(sweep_report.cells) == SWEEP.num_cells == 30

    def test_rerun_is_bit_identical(self, sweep_report):
        again = run_fuzz(SWEEP)
        assert json.dumps(sweep_report.to_json(), sort_keys=True) \
            == json.dumps(again.to_json(), sort_keys=True)

    def test_faulty_cells_differ_from_clean(self, sweep_report):
        # The chaos axis is live: at least one family must show a
        # different stream under fault injection than under clean.
        differs = False
        for scenario in SWEEP.scenarios:
            clean = sweep_report.cells[f"{scenario}|hck|clean"]
            faulty = sweep_report.cells[f"{scenario}|hck|faulty"]
            if clean["dropped_frames"] != faulty["dropped_frames"] \
                    or clean["p99_ms"] != faulty["p99_ms"]:
                differs = True
        assert differs


class TestCommittedBaseline:
    def test_gate_passes_against_committed_baseline(self, sweep_report):
        gate = check_gate(sweep_report, load_baseline(BASELINE_PATH))
        assert gate.checked_cells == 30
        assert gate.new_cells == []
        assert gate.passed, gate.to_json()["failures"]

    def test_gate_report_is_deterministic(self, sweep_report):
        baseline = load_baseline(BASELINE_PATH)
        first = json.dumps(check_gate(sweep_report, baseline).to_json(),
                           sort_keys=True)
        second = json.dumps(
            check_gate(run_fuzz(SWEEP), baseline).to_json(),
            sort_keys=True)
        assert first == second

    def test_ladder_subset_reproduces_baseline_cells(self):
        # Cell seeding is composition-independent: a ladder-only subset
        # sweep must reproduce the full matrix's ladder cells exactly.
        sweep = FuzzConfig(scenarios=("dense_traffic", "night_rain"),
                           presets=("hck", "lck-16bit"),
                           conditions=("ladder",),
                           frames_per_cell=3, seed=0)
        report = run_fuzz(sweep)
        gate = check_gate(report, load_baseline(BASELINE_PATH))
        assert gate.checked_cells == 4
        assert gate.new_cells == []
        assert gate.passed, gate.to_json()["failures"]
        for metrics in report.cells.values():
            assert metrics["ladder_demotions"] >= 1
            assert metrics["ladder_promotions"] >= 1

    def test_baseline_covers_full_default_matrix(self):
        baseline = load_baseline(BASELINE_PATH)
        # 6 scenarios x 4 presets x 5 conditions committed.
        assert len(baseline["cells"]) == 120
        conditions = {key.split("|")[2] for key in baseline["cells"]}
        assert conditions == {"clean", "faulty", "pressure", "batched",
                              "ladder"}
        assert baseline["seed"] == 0
        assert baseline["frames_per_cell"] == 3
