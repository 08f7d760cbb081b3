"""Tests for the deployment runtime and the CLI."""

import pytest

from repro.cli import build_parser, main
from repro.core import UPAQCompressor, hck_config, pack_model
from repro.hardware import default_devices
from repro.models import PointPillars
from repro.pointcloud import LidarConfig, SceneConfig, SceneGenerator
from repro.pointcloud.voxelize import PillarConfig
from repro.runtime import InferenceEngine


def _tiny_pp():
    return PointPillars(
        pillar_config=PillarConfig(x_range=(0, 25.6), y_range=(-12.8, 12.8)),
        pfn_channels=8, stage_channels=(8, 16, 32), stage_depths=(1, 1, 1),
        upsample_channels=8, seed=0)


@pytest.fixture(scope="module")
def scenes():
    cfg = SceneConfig(x_range=(5, 24), y_range=(-10, 10),
                      lidar=LidarConfig(channels=10, azimuth_steps=80))
    generator = SceneGenerator(cfg, seed=0)
    return [generator.generate(i, with_image=False) for i in range(3)]


class TestInferenceEngine:
    def test_stream_accounting(self, scenes):
        engine = InferenceEngine(_tiny_pp(), default_devices()["jetson"],
                                 deadline_s=0.1)
        report = engine.run(scenes)
        assert report.num_frames == 3
        assert report.mean_latency_s > 0
        assert report.total_energy_j > 0
        assert len(report.predictions) == 3

    def test_deadline_flagging(self, scenes):
        engine = InferenceEngine(_tiny_pp(), default_devices()["jetson"],
                                 deadline_s=1e-9)
        report = engine.run(scenes[:1])
        assert report.deadline_hit_rate == 0.0
        relaxed = InferenceEngine(_tiny_pp(), default_devices()["jetson"],
                                  deadline_s=10.0)
        assert relaxed.run(scenes[:1]).deadline_hit_rate == 1.0

    def test_compressed_model_cheaper(self, scenes):
        model = _tiny_pp()
        base = InferenceEngine(model, default_devices()["jetson"])
        report = UPAQCompressor(hck_config()).compress(
            model, *model.example_inputs())
        compressed = InferenceEngine(report.model,
                                     default_devices()["jetson"])
        assert compressed.frame_cost()[0] < base.frame_cost()[0]
        assert compressed.frame_cost()[1] < base.frame_cost()[1]

    def test_from_packed_blob(self, scenes):
        model = _tiny_pp()
        report = UPAQCompressor(hck_config()).compress(
            model, *model.example_inputs())
        blob = pack_model(report.model)
        engine = InferenceEngine.from_packed(
            blob, _tiny_pp(), default_devices()["jetson"])
        stream = engine.run(scenes[:1])
        assert stream.num_frames == 1
        # Restored weights carry the compressed sparsity.
        weights = dict(engine.model.named_parameters())
        sparsity = float((weights["backbone.stage1.blocks.0.conv.weight"]
                          .data == 0).mean())
        assert sparsity > 0.5

    def test_evaluate_passthrough(self, scenes):
        engine = InferenceEngine(_tiny_pp(), default_devices()["jetson"])
        report = engine.run(scenes)
        metrics = report.evaluate([s.boxes for s in scenes])
        assert "mAP" in metrics


class TestCLI:
    def test_parser_commands(self):
        parser = build_parser()
        args = parser.parse_args(["table2", "--model", "smoke",
                                  "--scale", "quick"])
        assert args.model == "smoke"

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_generate_command(self, tmp_path, capsys):
        code = main(["generate", "--frames", "3", "--out",
                     str(tmp_path / "kitti")])
        assert code == 0
        out = capsys.readouterr().out
        assert "wrote 3 KITTI-format frames" in out
        assert (tmp_path / "kitti" / "velodyne").exists()

    def test_sensitivity_command(self, capsys, monkeypatch):
        import repro.models.registry as registry
        monkeypatch.setitem(registry.MODEL_REGISTRY, "tinypp",
                            lambda **kw: _tiny_pp())
        code = main(["sensitivity", "--model", "tinypp"])
        assert code == 0
        out = capsys.readouterr().out
        assert "err@4b" in out
        assert "pfn.conv" in out

    def test_table1_command(self, capsys):
        code = main(["table1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "PointPillars" in out
        assert "VSC" in out

    def test_stream_command_with_faults(self, capsys, monkeypatch):
        import repro.models.registry as registry
        monkeypatch.setitem(registry.MODEL_REGISTRY, "tinypp",
                            lambda **kw: _tiny_pp())
        code = main(["stream", "--model", "tinypp", "--frames", "6",
                     "--inject-faults", "--drop-rate", "0.3",
                     "--corrupt-rate", "0.2", "--fault-seed", "1",
                     "--jitter-ms", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "stream: 6 frames" in out
        assert "deadline hit rate" in out

    def test_stream_command_clean_run(self, capsys, monkeypatch):
        import repro.models.registry as registry
        monkeypatch.setitem(registry.MODEL_REGISTRY, "tinypp",
                            lambda **kw: _tiny_pp())
        code = main(["stream", "--model", "tinypp", "--frames", "2",
                     "--deadline-ms", "1000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 ok, 0 degraded, 0 dropped" in out
        assert "deadline hit rate 100%" in out

    def test_stream_parser_defaults(self):
        args = build_parser().parse_args(["stream"])
        assert args.frames == 12
        assert not args.inject_faults
        assert args.on_corrupt == "last_good"
        with pytest.raises(SystemExit) as excinfo:    # fallbacks are rungs
            build_parser().parse_args(["stream", "--fallback-model", "hck"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("argv, message", [
        (["--miss-limit", "-1"], "max_consecutive_misses"),
        (["--inject-faults", "--drop-rate", "2"], "drop_rate"),
        (["--inject-faults", "--corrupt-rate", "1.5"], "corrupt_rate"),
        (["--inject-faults", "--jitter-ms", "-1"], "jitter_scale_s"),
    ])
    def test_stream_bad_watchdog_or_fault_input_exits_2(
            self, argv, message, capsys):
        assert main(["stream", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert message in err

    def test_stream_rejects_removed_sparse_mode(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["stream", "--execution", "lowered-sparse"])
        assert excinfo.value.code == 2


class TestIrDumpCLI:
    """`repro ir dump <model>` prints the extracted ModelIR as JSON."""

    def test_dump_prints_parseable_ir_json(self, capsys, monkeypatch):
        import json

        import repro.models.registry as registry
        monkeypatch.setitem(registry.MODEL_REGISTRY, "pointpillars",
                            lambda **kw: _tiny_pp())
        assert main(["ir", "dump", "pointpillars", "--compact"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["model_name"]
        names = [node["name"] for node in record["nodes"]]
        assert names and len(set(names)) == len(names)
        for node in record["nodes"]:
            assert node["kind"] in ("conv", "deconv", "linear")
            assert "profile" in node
            assert node["compression"]["scheme"] == "dense"
        assert any(node["predecessors"] for node in record["nodes"])

    def test_dump_with_preset_shows_compression(self, capsys,
                                                monkeypatch):
        import json

        import repro.models.registry as registry
        monkeypatch.setitem(registry.MODEL_REGISTRY, "pointpillars",
                            lambda **kw: _tiny_pp())
        assert main(["ir", "dump", "pointpillars", "--preset", "hck",
                     "--compact"]) == 0
        record = json.loads(capsys.readouterr().out)
        schemes = {node["compression"]["scheme"]
                   for node in record["nodes"]}
        assert schemes - {"dense"}      # the preset compressed something

    def test_ir_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["ir"])
