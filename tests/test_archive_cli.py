"""CLI coverage for `repro pack-archive`, `repro archive ls/verify`,
and `repro stream --archive/--ladder` with the swap-event report."""

import json

import pytest

from repro.cli import build_parser, main
from repro.core import ArchiveReader, pack_archive, pack_model
from repro.ir import extract_ir
from repro.models import PointPillars
from repro.pointcloud import PillarConfig

RUNGS = ("lck-16", "hck-8", "hck-4")


def _tiny_pp(seed=0):
    return PointPillars(
        pillar_config=PillarConfig(x_range=(0, 25.6),
                                   y_range=(-12.8, 12.8)),
        pfn_channels=8, stage_channels=(8, 16, 32), stage_depths=(1, 1, 1),
        upsample_channels=8, seed=seed)


@pytest.fixture(scope="module")
def archive_path(tmp_path_factory):
    """A three-rung archive of tiny models, written through the API."""
    blobs, meta = {}, {}
    for seed, name in enumerate(RUNGS):
        model = _tiny_pp(seed)
        ir = extract_ir(model, *model.example_inputs())
        blobs[name] = pack_model(model, ir=ir)
        meta[name] = {"model": "tiny", "preset": name}
    path = tmp_path_factory.mktemp("archive") / "fleet.upak"
    path.write_bytes(pack_archive(blobs, meta))
    return path


class TestPackArchiveCLI:
    def test_pack_and_reopen(self, tmp_path, capsys):
        out = tmp_path / "float.upak"
        # The float preset packs the uncompressed model — fast enough
        # for tier-1; compressed variants are covered by the fuzz tier.
        assert main(["pack-archive", "--model", "tiny",
                     "--variants", "float", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "1 entries" in text
        reader = ArchiveReader.open(out)
        assert reader.names == ["float"]
        assert reader.entry("float").meta == {"model": "tiny",
                                              "preset": "float"}
        reader.verify()

    def test_unknown_variant_is_an_error(self, tmp_path, capsys):
        out = tmp_path / "bad.upak"
        assert main(["pack-archive", "--model", "tiny",
                     "--variants", "nope", "--out", str(out)]) == 2
        assert "unknown preset" in capsys.readouterr().err
        assert not out.exists()


class TestArchiveInspectCLI:
    def test_ls_lists_entries_in_pack_order(self, archive_path, capsys):
        assert main(["archive", "ls", str(archive_path)]) == 0
        out = capsys.readouterr().out
        positions = [out.index(name) for name in RUNGS]
        assert positions == sorted(positions)
        assert "preset=lck-16" in out
        assert "deduplicated" in out

    def test_verify_ok(self, archive_path, capsys):
        assert main(["archive", "verify", str(archive_path)]) == 0
        assert capsys.readouterr().out.startswith("OK:")

    def test_verify_flags_corruption_and_salvage(self, archive_path,
                                                 tmp_path, capsys):
        data = bytearray(archive_path.read_bytes())
        data[-20] ^= 0x01               # inside the last chunks
        damaged = tmp_path / "damaged.upak"
        damaged.write_bytes(bytes(data))
        assert main(["archive", "verify", str(damaged)]) == 1
        captured = capsys.readouterr()
        assert "CORRUPT" in captured.err
        assert "intact" in captured.out

    def test_missing_file_is_an_error(self, tmp_path, capsys):
        assert main(["archive", "ls", str(tmp_path / "nope.upak")]) == 2
        assert "cannot open archive" in capsys.readouterr().err


class TestStreamLadderCLI:
    def test_ladder_stream_writes_consistent_swap_report(
            self, archive_path, tmp_path, capsys):
        swaps = tmp_path / "swaps.json"
        code = main(["stream", "--model", "tiny", "--frames", "8",
                     "--archive", str(archive_path),
                     "--ladder", ",".join(RUNGS),
                     "--deadline-ms", "0.0001", "--miss-limit", "1",
                     "--swap-report", str(swaps)])
        assert code == 0
        out = capsys.readouterr().out
        assert "ladder from" in out
        assert "demotions" in out
        payload = json.loads(swaps.read_text())
        assert payload["ladder"] == list(RUNGS)
        assert payload["demotions"] == len(RUNGS) - 1
        # Swap events must agree with the per-frame rung attribution.
        rungs = [row["rung"] for row in payload["frame_rungs"]]
        transitions = [
            (payload["frame_rungs"][i]["frame_id"], rungs[i],
             rungs[i + 1])
            for i in range(len(rungs) - 1) if rungs[i] != rungs[i + 1]]
        events = [(e["frame_id"], e["from_rung"], e["to_rung"])
                  for e in payload["swap_events"]]
        assert events == transitions

    def test_preset_stream_scores_like_its_archived_variant(
            self, tmp_path, capsys):
        """`stream --preset hck` deploys the compressor's IR, so its
        executors (activation scales included) match the same preset
        restored from `pack-archive`: the telemetry digests agree."""
        archive = tmp_path / "hck.upak"
        assert main(["pack-archive", "--model", "tiny",
                     "--variants", "hck", "--out", str(archive)]) == 0
        capsys.readouterr()
        common = ["stream", "--model", "tiny", "--frames", "4",
                  "--telemetry"]

        def digest(extra):
            assert main(common + extra) == 0
            lines = capsys.readouterr().out.splitlines()
            return [line for line in lines
                    if line.startswith(("stream:", "telemetry:"))]

        solo = digest(["--preset", "hck"])
        archived = digest(["--archive", str(archive), "--ladder", "hck"])
        assert any(line.startswith("telemetry:") for line in solo)
        assert solo == archived

    def test_default_ladder_is_every_entry(self, archive_path, capsys):
        code = main(["stream", "--model", "tiny", "--frames", "2",
                     "--archive", str(archive_path),
                     "--deadline-ms", "1000"])
        assert code == 0
        assert " -> ".join(RUNGS) in capsys.readouterr().out

    def test_ladder_without_archive_is_an_error(self, capsys):
        assert main(["stream", "--ladder", "a,b"]) == 2
        assert "--ladder needs --archive" in capsys.readouterr().err

    def test_unknown_rung_is_an_error(self, archive_path, capsys):
        code = main(["stream", "--archive", str(archive_path),
                     "--ladder", "missing-rung"])
        assert code == 2
        assert "no archive entry" in capsys.readouterr().err

    def test_stream_parser_ladder_defaults(self):
        args = build_parser().parse_args(["stream"])
        assert args.archive is None
        assert args.ladder is None
        assert args.promote_after == 5
        assert args.probation == 3
        assert args.swap_report is None
