"""Command-line interface for the UPAQ reproduction.

Subcommands mirror the library's workflow::

    python -m repro.cli generate --frames 10 --out /tmp/kitti      # dataset
    python -m repro.cli train --model pointpillars --steps 500     # pretrain
    python -m repro.cli compress --model pointpillars --preset hck # compress
    python -m repro.cli evaluate --model pointpillars --frames 8   # mAP
    python -m repro.cli table1                                     # Table 1
    python -m repro.cli table2 --model pointpillars --scale quick  # Table 2
    python -m repro.cli sensitivity --model pointpillars           # analysis
    python -m repro.cli stream --inject-faults --fault-seed 7      # chaos
    python -m repro.cli serve --streams 4 --offered-load 30        # serving
    python -m repro.cli pack-archive --model tiny --out fleet.upak # archive
    python -m repro.cli archive ls fleet.upak                      # inspect
    python -m repro.cli stream --archive fleet.upak \\
        --ladder lck-16bit,lck-8bit,hck-8bit,hck-4bit              # ladder
    python -m repro.cli ir dump pointpillars --preset hck          # model IR
    python -m repro.cli fuzz --out /tmp/sweep.json                 # fuzz gate
    python -m repro.cli query "status = degraded" --report /tmp/sweep.json
"""

from __future__ import annotations

import argparse
import math
import sys
import time


def _cmd_generate(args) -> int:
    from repro.camera import CameraModel
    from repro.pointcloud import export_kitti, make_dataset
    data = make_dataset(args.frames, seed=args.seed, with_image=True)
    scenes = data["train"] + data["val"] + data["test"]
    export_kitti(scenes, args.out, camera=CameraModel.kitti_like())
    print(f"wrote {len(scenes)} KITTI-format frames to {args.out} "
          f"(split {len(data['train'])}/{len(data['val'])}"
          f"/{len(data['test'])})")
    return 0


def _cmd_train(args) -> int:
    from repro.harness import TrainConfig, get_pretrained
    config = TrainConfig(steps=args.steps, seed=args.seed,
                         with_image=(args.model == "smoke"))
    model, result = get_pretrained(args.model, config, cache=not args.fresh)
    if result is None:
        print(f"loaded cached {args.model} checkpoint "
              f"({model.num_parameters() / 1e3:.0f}k params)")
    else:
        print(f"trained {args.model} for {args.steps} steps; "
              f"best mAP {result.best_map:.2f}")
    return 0


def _cmd_compress(args) -> int:
    from repro.core import (UPAQCompressor, hck_config, lck_config,
                            pack_model)
    from repro.harness import TrainConfig, get_pretrained
    from repro.hardware import compile_model, default_devices

    config = {"hck": hck_config, "lck": lck_config}[args.preset](
        search_workers=args.workers, search_backend=args.backend,
        search_journal=args.journal, search_retries=args.retries,
        search_timeout_s=args.task_timeout)
    model, _ = get_pretrained(
        args.model, TrainConfig(steps=args.steps,
                                with_image=(args.model == "smoke")))
    inputs = model.example_inputs()
    report = UPAQCompressor(config).compress(model, *inputs)
    plan = compile_model(report.model, *inputs)
    device = default_devices()["jetson"]
    print(f"{config.name} on {args.model}: "
          f"{report.compression_ratio:.2f}x compression, "
          f"sparsity {report.overall_sparsity:.0%}, "
          f"mean {report.mean_bits:.1f} bits, "
          f"Jetson latency {device.latency(plan) * 1e3:.3f} ms")
    print(report.search.summary())
    if args.verbose_search:
        for stat in report.search.layers:
            cached = " (cached)" if stat.cached else ""
            print(f"  {stat.layer:42s} {stat.role:4s} "
                  f"{stat.candidates:4d} candidates "
                  f"{stat.wall_time_s * 1e3:8.2f} ms{cached}")
    if args.out:
        blob = pack_model(report.model)
        with open(args.out, "wb") as handle:
            handle.write(blob)
        print(f"packed model ({len(blob) / 1024:.1f} KiB) → {args.out}")
    return 0


def _cmd_evaluate(args) -> int:
    from repro.detection import evaluate_by_difficulty
    from repro.harness import (TrainConfig, get_pretrained,
                               validation_scenes)
    model, _ = get_pretrained(
        args.model, TrainConfig(steps=args.steps,
                                with_image=(args.model == "smoke")))
    scenes = validation_scenes(args.frames,
                               with_image=(args.model == "smoke"))
    predictions = [model.predict(scene) for scene in scenes]
    result = evaluate_by_difficulty(predictions, [s.boxes for s in scenes])

    def fmt(value, width=6, digits=2):
        # NaN means "no ground truth at this difficulty", not zero.
        if isinstance(value, float) and math.isnan(value):
            return "n/a".rjust(width)
        return f"{value:{width}.{digits}f}"

    for bucket, metrics in result.items():
        per_class = " ".join(f"{k}={fmt(v, 0, 1)}"
                             for k, v in metrics.items() if k != "mAP")
        print(f"{bucket:9s} mAP={fmt(metrics['mAP'])}  {per_class}")
    return 0


def _cmd_table1(args) -> int:
    from repro.harness import format_table1, run_table1
    print(format_table1(run_table1()))
    return 0


def _cmd_table2(args) -> int:
    from repro.harness import (Table2Config, format_fig4, format_fig5,
                               format_table2, run_table2)
    budgets = {
        "quick": dict(pretrain_steps=300, finetune_scenes=6,
                      finetune_epochs=1, eval_frames=4),
        "full": dict(pretrain_steps=6400 if args.model == "pointpillars"
                     else 1500,
                     finetune_scenes=24, finetune_epochs=3, eval_frames=12),
    }
    rows = run_table2(Table2Config(model_name=args.model,
                                   search_workers=args.workers,
                                   **budgets[args.scale]))
    label = "PointPillars" if args.model == "pointpillars" else "SMOKE"
    print(format_table2(label, rows))
    print()
    print(format_fig4(label, rows))
    print()
    print(format_fig5(label, rows))
    return 0


def _cmd_report(args) -> int:
    from repro.harness import RunnerConfig, run_all
    budgets = {
        "quick": dict(pretrain_steps=300, finetune_scenes=6,
                      finetune_epochs=1, eval_frames=4),
        "full": dict(pretrain_steps=6400, finetune_scenes=24,
                     finetune_epochs=3, eval_frames=12),
    }
    smoke_budgets = {
        "quick": dict(pretrain_steps=200, finetune_scenes=4,
                      finetune_epochs=1, eval_frames=4),
        "full": dict(pretrain_steps=1500, finetune_scenes=24,
                     finetune_epochs=3, eval_frames=10),
    }
    config = RunnerConfig(output_dir=args.out,
                          pointpillars=budgets[args.scale],
                          smoke=smoke_budgets[args.scale],
                          include_smoke=not args.skip_smoke,
                          search_workers=args.workers)
    results = run_all(config)
    print(f"report written to {results['report_path']}")
    return 0


def _build_stream_model(name: str):
    """Fresh architecture for a streamed / archived model name."""
    if name == "tiny":
        from repro.fuzzing import build_fuzz_model
        return build_fuzz_model("tiny")
    from repro.models import build_model
    return build_model(name)


def _cmd_stream(args) -> int:
    """Stream scenes through a deployment engine, optionally under chaos."""
    from repro.core import UPAQCompressor, hck_config, lck_config
    from repro.hardware import default_devices
    from repro.pointcloud import SceneGenerator
    from repro.runtime import (DegradationPolicy, FaultInjector, FaultSpec,
                               InferenceEngine)

    if args.batch < 1:
        print(f"error: --batch must be >= 1, got {args.batch} "
              "(1 disables micro-batching)", file=sys.stderr)
        return 2
    if args.ladder and not args.archive:
        print("error: --ladder needs --archive (rung names index "
              "archive entries)", file=sys.stderr)
        return 2
    presets = {"hck": hck_config, "lck": lck_config}
    with_image = args.model == "smoke"
    model = None
    fallback = None
    ladder = None
    if args.archive:
        if args.fallback_model != "none":
            print("error: --fallback-model conflicts with --archive; "
                  "the ladder already orders the fallbacks",
                  file=sys.stderr)
            return 2
        from repro.core import ArchiveError, ArchiveReader
        from repro.runtime import DegradationLadder
        try:
            reader = ArchiveReader.open(args.archive)
        except (OSError, ArchiveError) as error:
            print(f"error: cannot open archive {args.archive}: {error}",
                  file=sys.stderr)
            return 2
        names = [part.strip() for part in args.ladder.split(",")
                 if part.strip()] if args.ladder else reader.names

        def factory(meta):
            return _build_stream_model(meta.get("model", args.model))

        try:
            ladder = DegradationLadder.from_archive(
                reader, names, factory,
                promote_after=args.promote_after,
                probation=args.probation)
        except (KeyError, ValueError, ArchiveError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        print(f"ladder from {args.archive}: " + " -> ".join(names))
    else:
        model = _build_stream_model(args.model)
        if args.preset != "none":
            model = UPAQCompressor(presets[args.preset]()).compress(
                model, *model.example_inputs()).model
        if args.fallback_model != "none":
            base = _build_stream_model(args.model)
            fallback = UPAQCompressor(
                presets[args.fallback_model]()).compress(
                base, *base.example_inputs()).model

    injector = None
    if args.inject_faults:
        injector = FaultInjector(FaultSpec(
            drop_rate=args.drop_rate, corrupt_rate=args.corrupt_rate,
            jitter="lognormal" if args.jitter_ms > 0 else "none",
            jitter_scale_s=args.jitter_ms / 1e3, seed=args.fault_seed))
    policy = DegradationPolicy(on_corrupt=args.on_corrupt,
                               max_consecutive_misses=args.miss_limit)
    engine = InferenceEngine(model, default_devices()[args.device],
                             deadline_s=args.deadline_ms / 1e3,
                             policy=policy, fault_injector=injector,
                             fallback_model=fallback, ladder=ladder,
                             execution=args.execution,
                             trace=bool(args.trace),
                             telemetry=args.telemetry,
                             batch_size=args.batch)
    generator = SceneGenerator(seed=args.seed)
    scenes = [generator.generate(i, with_image=with_image)
              for i in range(args.frames)]
    report = engine.run(scenes)
    print(report.summary())
    if engine.on_fallback:
        if ladder is not None:
            print(f"stream ended on rung {engine.active_rung!r} after "
                  f"repeated deadline misses")
        else:
            print(f"watchdog swapped to the {args.fallback_model.upper()} "
                  f"fallback model after repeated deadline misses")
    if args.swap_report:
        import json
        payload = {
            "ladder": list(engine.ladder.names),
            "swap_events": [{"frame_id": event.frame_id,
                             "kind": event.kind,
                             "from_rung": event.from_rung,
                             "to_rung": event.to_rung}
                            for event in report.swap_events],
            "frame_rungs": [{"frame_id": record.frame_id,
                             "rung": record.rung}
                            for record in report.frames],
            "rung_residency": report.rung_residency,
            "demotions": report.demotions,
            "promotions": report.promotions,
        }
        with open(args.swap_report, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"swap-event report ({len(report.swap_events)} events) "
              f"→ {args.swap_report}")
    if args.trace:
        import json

        from repro.runtime import export_trace
        with open(args.trace, "w") as handle:
            json.dump(export_trace(report), handle, indent=2)
        offenders = report.top_offenders(k=3)
        print(f"trace: {len(report.trace)} events → {args.trace}")
        if offenders:
            worst = ", ".join(
                f"{entry.layer} ({entry.latency_s * 1e3:.3f} ms)"
                for entry in offenders)
            print(f"deadline-miss attribution: {worst}")
    return 0


def _cmd_serve(args) -> int:
    """Serve N synthetic client streams through a ServingEngine."""
    import json

    import numpy as np

    from repro.core import UPAQCompressor, hck_config, lck_config
    from repro.hardware import default_devices
    from repro.pointcloud import SceneGenerator
    from repro.runtime import InferenceEngine, ServingEngine

    if args.streams < 1:
        print(f"error: --streams must be >= 1, got {args.streams}",
              file=sys.stderr)
        return 2
    if args.frames < 1:
        print(f"error: --frames must be >= 1, got {args.frames}",
              file=sys.stderr)
        return 2
    if args.batch < 1:
        print(f"error: --batch must be >= 1, got {args.batch}",
              file=sys.stderr)
        return 2
    if args.queue_depth < 1:
        print(f"error: --queue-depth must be >= 1, got "
              f"{args.queue_depth}", file=sys.stderr)
        return 2
    if args.offered_load is not None and args.offered_load <= 0:
        print(f"error: --offered-load must be > 0 fps, got "
              f"{args.offered_load}", file=sys.stderr)
        return 2
    if args.replicas < 1:
        print(f"error: --replicas must be >= 1, got {args.replicas}",
              file=sys.stderr)
        return 2
    presets = {"hck": hck_config, "lck": lck_config}

    def build_engine():
        model = _build_stream_model(args.model)
        if args.preset != "none":
            model = UPAQCompressor(presets[args.preset]()).compress(
                model, *model.example_inputs()).model
        return InferenceEngine(model, default_devices()[args.device],
                               deadline_s=args.deadline_ms / 1e3,
                               execution=args.execution,
                               batch_size=args.batch)

    # The process backend derives replica specs from one engine; the
    # thread backend needs a factory for replicas > 1 (each replica
    # attaches to its own model instance).  Compression is seeded, so
    # factory-built engines are identical.
    engine = build_engine() \
        if args.backend == "process" or args.replicas == 1 \
        else build_engine
    serving = ServingEngine(engine, replicas=args.replicas,
                            backend=args.backend,
                            max_streams=args.streams,
                            queue_depth=args.queue_depth)
    if args.backend == "process" and serving.backend != "process":
        print("warning: process backend unavailable on this platform; "
              "fell back to thread replicas", file=sys.stderr)
    streams = {}
    for index in range(args.streams):
        generator = SceneGenerator(seed=args.seed + index)
        streams[f"stream{index}"] = [
            generator.generate(frame, with_image=False)
            for frame in range(args.frames)]
    interval = 0.0 if args.offered_load is None \
        else 1.0 / args.offered_load
    start = time.perf_counter()
    reports = serving.serve(streams, interval_s=interval)
    elapsed = time.perf_counter() - start
    stats = serving.stats()
    per_stream = {}
    all_latencies = []
    for name, report in sorted(reports.items()):
        latencies = serving.service_latencies(name)
        all_latencies.extend(latencies)
        p50 = float(np.percentile(latencies, 50)) if latencies else 0.0
        p99 = float(np.percentile(latencies, 99)) if latencies else 0.0
        per_stream[name] = {
            "frames": report.num_frames,
            "ok": report.ok_frames,
            "service_p50_ms": p50 * 1e3,
            "service_p99_ms": p99 * 1e3,
        }
        print(f"{name}: {report.summary().splitlines()[0]}")
        print(f"{name}: wall service p50/p99 "
              f"{p50 * 1e3:.3f}/{p99 * 1e3:.3f} ms")
    serving.shutdown()
    total_frames = sum(r.num_frames for r in reports.values())
    throughput = total_frames / elapsed if elapsed > 0 else 0.0
    agg_p50 = float(np.percentile(all_latencies, 50)) \
        if all_latencies else 0.0
    agg_p99 = float(np.percentile(all_latencies, 99)) \
        if all_latencies else 0.0
    print(stats.summary())
    print(f"aggregate: {total_frames} frames in {elapsed:.3f}s "
          f"({throughput:.1f} fps), wall service p50/p99 "
          f"{agg_p50 * 1e3:.3f}/{agg_p99 * 1e3:.3f} ms")
    if args.report:
        payload = {
            "streams": args.streams,
            "frames_per_stream": args.frames,
            "offered_load_fps": args.offered_load,
            "batch": args.batch,
            "execution": args.execution,
            "backend": stats.backend,
            "backend_requested": args.backend,
            "replicas": stats.replicas,
            "aggregate": {
                "frames": total_frames,
                "elapsed_s": elapsed,
                "throughput_fps": throughput,
                "service_p50_ms": agg_p50 * 1e3,
                "service_p99_ms": agg_p99 * 1e3,
            },
            "per_stream": per_stream,
            "scheduler": {
                "windows": stats.windows,
                "cross_stream_windows": stats.cross_stream_windows,
                "batched_frames": stats.batched_frames,
                "frames_rejected": stats.frames_rejected,
                "frames_failed": stats.frames_failed,
                "failed_windows": stats.failed_windows,
                "window_holds": stats.window_holds,
                "deadline_dispatches": stats.deadline_dispatches,
                "window_timeouts": stats.window_timeouts,
                "pool_failures": stats.pool_failures,
                "windows_by_replica": stats.windows_by_replica,
                "windows_by_rung": stats.windows_by_rung,
            },
        }
        with open(args.report, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"serving report → {args.report}")
    return 0


def _cmd_pack_archive(args) -> int:
    """Compress preset variants of one model into a variant archive."""
    from repro.core import ArchiveWriter, UPAQCompressor, pack_model
    from repro.fuzzing import build_preset_config
    from repro.ir import extract_ir

    variants = [part.strip() for part in args.variants.split(",")
                if part.strip()]
    if not variants:
        print("error: empty --variants list", file=sys.stderr)
        return 2
    writer = ArchiveWriter()
    for name in variants:
        try:
            preset = build_preset_config(name)
        except KeyError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        model = _build_stream_model(args.model)
        if preset is None:
            ir = extract_ir(model, *model.example_inputs())
        else:
            outcome = UPAQCompressor(preset).compress(
                model, *model.example_inputs())
            model, ir = outcome.model, outcome.ir
        blob = pack_model(model, ir=ir)
        writer.add(name, blob, model=args.model, preset=name)
        print(f"  {name:12s} {len(blob) / 1024:8.1f} KiB packed")
    payload = writer.finish()
    with open(args.out, "wb") as handle:
        handle.write(payload)
    stats = writer.stats
    print(f"wrote {args.out}: {stats.entries} entries, "
          f"{stats.chunks_stored} chunks "
          f"({stats.shared_chunks} deduplicated), "
          f"{len(payload) / 1024:.1f} KiB on disk / "
          f"{stats.logical_bytes / 1024:.1f} KiB logical")
    return 0


def _open_archive(path):
    from repro.core import ArchiveError, ArchiveReader
    try:
        return ArchiveReader.open(path)
    except (OSError, ArchiveError) as error:
        print(f"error: cannot open archive {path}: {error}",
              file=sys.stderr)
        return None


def _cmd_archive_ls(args) -> int:
    reader = _open_archive(args.path)
    if reader is None:
        return 2
    print(f"{'name':16s} {'bytes':>10s} {'chunks':>7s}  meta")
    for entry in reader.entries:
        meta = " ".join(f"{key}={value}"
                        for key, value in sorted(entry.meta.items()))
        print(f"{entry.name:16s} {entry.length:10d} "
              f"{len(entry.chunks):7d}  {meta}")
    print(reader.summary())
    return 0


def _cmd_archive_verify(args) -> int:
    from repro.core import ArchiveError
    reader = _open_archive(args.path)
    if reader is None:
        return 2
    try:
        reader.verify()
    except ArchiveError as error:
        print(f"CORRUPT: {error}", file=sys.stderr)
        salvage = reader.salvage()
        for name in salvage.intact:
            print(f"  intact  {name}")
        for name, reason in salvage.corrupt.items():
            print(f"  corrupt {name}: {reason}")
        return 1
    print(f"OK: {reader.summary()}")
    return 0


def _cmd_ir_dump(args) -> int:
    """Print a model's extracted IR (nodes, edges, annotations) as JSON."""
    import json

    from repro.ir import extract_ir
    from repro.models import build_model

    model = build_model(args.model)
    if args.preset != "none":
        from repro.core import UPAQCompressor, hck_config, lck_config
        presets = {"hck": hck_config, "lck": lck_config}
        report = UPAQCompressor(presets[args.preset]()).compress(
            model, *model.example_inputs())
        ir = report.ir
    else:
        ir = extract_ir(model, *model.example_inputs())
    indent = None if args.compact else 2
    print(json.dumps(ir.to_json(), indent=indent, sort_keys=True))
    return 0


def _cmd_sensitivity(args) -> int:
    from repro.core import analyze_sensitivity, suggest_bit_allocation
    from repro.models import build_model
    model = build_model(args.model)
    profile = analyze_sensitivity(model, *model.example_inputs(),
                                  quant_bits=(4, 8, 16))
    allocation = suggest_bit_allocation(profile, args.budget)
    print(f"{'layer':42s} {'err@4b':>8s} {'err@8b':>8s} {'suggested':>9s}")
    for entry in profile.layers:
        print(f"{entry.layer:42s} "
              f"{entry.output_error_by_bits[4]:8.4f} "
              f"{entry.output_error_by_bits[8]:8.4f} "
              f"{allocation[entry.layer]:6d}bit")
    return 0


def _parse_axis(value, default, known, label):
    """CSV axis flag: ``all`` → every known name, None → the default."""
    if value is None:
        return tuple(default)
    if value == "all":
        return tuple(known)
    names = tuple(part.strip() for part in value.split(",") if part.strip())
    if not names:
        raise SystemExit(f"error: empty --{label} list")
    return names


def _cmd_fuzz(args) -> int:
    import json

    from repro.fuzzing import (CONDITIONS, DEFAULT_CONDITIONS,
                               DEFAULT_PRESETS, DEFAULT_SCENARIOS,
                               FuzzConfig, GateThresholds, check_gate,
                               load_baseline, run_fuzz, write_baseline,
                               write_report)
    from repro.fuzzing import preset_names as all_presets
    from repro.pointcloud import scenario_names

    if args.list:
        print("scenarios: " + ", ".join(scenario_names()))
        print("presets:   " + ", ".join(all_presets()))
        print("conditions:" + "".join(f"\n  {c.name:10s} {c.description}"
                                      for c in CONDITIONS.values()))
        return 0

    try:
        config = FuzzConfig(
            scenarios=_parse_axis(args.scenarios, DEFAULT_SCENARIOS,
                                  scenario_names(), "scenarios"),
            presets=_parse_axis(args.presets, DEFAULT_PRESETS,
                                all_presets(), "presets"),
            conditions=_parse_axis(args.conditions, DEFAULT_CONDITIONS,
                                   tuple(CONDITIONS), "conditions"),
            frames_per_cell=args.frames, seed=args.seed, model=args.model,
            execution=args.execution)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    print(f"sweeping {config.num_cells} cells "
          f"({len(config.scenarios)} scenarios x {len(config.presets)} "
          f"presets x {len(config.conditions)} conditions, "
          f"{config.frames_per_cell} frames/cell, seed {config.seed})")

    def progress(key, metrics):
        map_text = "n/a" if math.isnan(metrics["mAP"]) \
            else f"{metrics['mAP']:5.1f}"
        print(f"  {key:48s} mAP {map_text}  "
              f"p99 {metrics['p99_ms']:7.3f} ms  "
              f"hit {metrics['deadline_hit_rate']:.2f}  "
              f"({metrics['ok_frames']} ok/"
              f"{metrics['degraded_frames']} degraded/"
              f"{metrics['dropped_frames']} dropped)")

    report = run_fuzz(config, progress=progress)
    if args.out:
        write_report(report, args.out)
        print(f"wrote sweep report to {args.out}")

    if args.write_baseline:
        write_baseline(report, args.baseline)
        print(f"wrote baseline ({len(report.cells)} cells) "
              f"to {args.baseline}")
        return 0

    try:
        baseline = load_baseline(args.baseline)
    except FileNotFoundError:
        print(f"error: no baseline at {args.baseline}; run with "
              "--write-baseline to create one", file=sys.stderr)
        return 2
    thresholds = GateThresholds(map_drop=args.map_drop,
                                p99_rise_frac=args.p99_rise,
                                hit_rate_drop=args.hit_rate_drop)
    try:
        gate = check_gate(report, baseline, thresholds)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.gate_report:
        with open(args.gate_report, "w") as handle:
            json.dump(gate.to_json(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote gate report to {args.gate_report}")
    print(gate.summary())
    for failure in gate.failures:
        print(f"  FAIL {failure['cell']}: {failure['metric']} "
              f"{failure['baseline']} -> {failure['current']} "
              f"({failure['kind']}, allowed {failure['allowed']})")
    for key in gate.new_cells:
        print(f"  NEW  {key}: not in baseline (refresh with "
              "--write-baseline to bless)")
    return 0 if gate.passed else 1


def _cmd_query(args) -> int:
    import json

    from repro.fuzzing import QueryError, load_report, parse_query
    try:
        predicate = parse_query(args.expr)
    except QueryError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        report = load_report(args.report)
    except FileNotFoundError:
        print(f"error: no sweep report at {args.report}; produce one "
              "with `repro fuzz --out`", file=sys.stderr)
        return 2
    matches = predicate.filter(report.rows)
    if args.count:
        print(len(matches))
        return 0
    for row in matches:
        safe = {key: (None if isinstance(value, float)
                      and math.isnan(value) else value)
                for key, value in row.items()}
        print(json.dumps(safe, sort_keys=True))
    print(f"{len(matches)} of {len(report.rows)} rows matched",
          file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro.runtime.executors import EXECUTION_MODES
    parser = argparse.ArgumentParser(
        prog="repro", description="UPAQ reproduction command line")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic KITTI dataset")
    p.add_argument("--frames", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("train", help="pretrain a detector (cached)")
    p.add_argument("--model", default="pointpillars",
                   choices=["pointpillars", "smoke"])
    p.add_argument("--steps", type=int, default=300)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fresh", action="store_true",
                   help="ignore the artifact cache")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("compress", help="compress a pretrained detector")
    p.add_argument("--model", default="pointpillars",
                   choices=["pointpillars", "smoke"])
    p.add_argument("--preset", default="hck", choices=["hck", "lck"])
    p.add_argument("--steps", type=int, default=300,
                   help="pretraining steps of the base checkpoint")
    p.add_argument("--out", default=None,
                   help="write the packed compressed model here")
    p.add_argument("--workers", type=int, default=1,
                   help="parallel workers for the candidate search "
                        "(results are identical for any worker count)")
    p.add_argument("--backend", default="auto",
                   choices=["auto", "serial", "thread", "process"],
                   help="worker pool backend for the candidate search")
    p.add_argument("--verbose-search", action="store_true",
                   help="print per-layer search timings and cache hits")
    p.add_argument("--journal", default=None,
                   help="JSONL checkpoint journal; an interrupted search "
                        "resumes from it instead of starting over")
    p.add_argument("--retries", type=int, default=0,
                   help="retry budget per search task (flaky workers)")
    p.add_argument("--task-timeout", type=float, default=None,
                   help="per-task deadline in seconds on pooled backends")
    p.set_defaults(func=_cmd_compress)

    p = sub.add_parser("evaluate", help="stratified mAP of a checkpoint")
    p.add_argument("--model", default="pointpillars",
                   choices=["pointpillars", "smoke"])
    p.add_argument("--steps", type=int, default=300)
    p.add_argument("--frames", type=int, default=8)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("table1", help="regenerate Table 1")
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("table2", help="regenerate Table 2 + Figs 4/5")
    p.add_argument("--model", default="pointpillars",
                   choices=["pointpillars", "smoke"])
    p.add_argument("--scale", default="quick", choices=["quick", "full"])
    p.add_argument("--workers", type=int, default=1,
                   help="parallel workers for the UPAQ candidate search")
    p.set_defaults(func=_cmd_table2)

    p = sub.add_parser("report",
                       help="run every experiment, write results/ dir")
    p.add_argument("--out", default="results")
    p.add_argument("--scale", default="quick", choices=["quick", "full"])
    p.add_argument("--skip-smoke", action="store_true")
    p.add_argument("--workers", type=int, default=1,
                   help="parallel workers for the UPAQ candidate search")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("stream",
                       help="stream scenes through a deployment engine "
                            "with optional fault injection")
    p.add_argument("--model", default="pointpillars")
    p.add_argument("--frames", type=int, default=12)
    p.add_argument("--seed", type=int, default=0,
                   help="scene generator seed")
    p.add_argument("--preset", default="none",
                   choices=["none", "hck", "lck"],
                   help="compress the streamed model with this preset")
    p.add_argument("--deadline-ms", type=float, default=50.0)
    p.add_argument("--device", default="jetson",
                   choices=["jetson", "rtx4080"])
    p.add_argument("--inject-faults", action="store_true",
                   help="enable the seeded chaos injector")
    p.add_argument("--fault-seed", type=int, default=0)
    p.add_argument("--drop-rate", type=float, default=0.1)
    p.add_argument("--corrupt-rate", type=float, default=0.05)
    p.add_argument("--jitter-ms", type=float, default=0.0,
                   help="lognormal latency jitter scale")
    p.add_argument("--on-corrupt", default="last_good",
                   choices=["last_good", "skip"],
                   help="degradation policy for corrupt frames")
    p.add_argument("--miss-limit", type=int, default=3,
                   help="consecutive deadline misses arming the watchdog "
                        "(0 disables)")
    p.add_argument("--fallback-model", default="none",
                   choices=["none", "hck", "lck"],
                   help="preset compressed as the watchdog fallback")
    p.add_argument("--execution", default="reference",
                   choices=EXECUTION_MODES,
                   help="execution mode name; both values run the "
                        "same exact integer executors")
    p.add_argument("--trace", default=None, metavar="PATH",
                   help="record per-frame per-layer cost attributions "
                        "and export them as a JSON trace (see "
                        "docs/OBSERVABILITY.md)")
    p.add_argument("--telemetry", action="store_true",
                   help="attach per-layer executor counters (MACs, "
                        "skipped columns, saturation, accumulator "
                        "headroom); the summary gains a digest line")
    p.add_argument("--batch", type=int, default=1, metavar="N",
                   help="micro-batching window: run up to N valid "
                        "in-flight frames as one batched lowered pass "
                        "(byte-identical to per-frame execution; "
                        "see docs/PERFORMANCE.md)")
    p.add_argument("--archive", default=None, metavar="PATH",
                   help="model-variant archive (see `repro "
                        "pack-archive`); the stream runs a degradation "
                        "ladder of its entries instead of a single "
                        "model")
    p.add_argument("--ladder", default=None, metavar="RUNGS",
                   help="CSV of archive entry names ordering the "
                        "ladder, primary first (default: every entry "
                        "in pack order)")
    p.add_argument("--promote-after", type=int, default=5, metavar="N",
                   help="consecutive on-deadline frames before the "
                        "ladder promotes one rung back up (0 disables "
                        "promotion)")
    p.add_argument("--probation", type=int, default=3, metavar="N",
                   help="frames after a promotion during which a "
                        "single miss demotes immediately")
    p.add_argument("--swap-report", default=None, metavar="PATH",
                   help="write the swap events, per-frame rung "
                        "attribution and residency as JSON")
    p.set_defaults(func=_cmd_stream)

    p = sub.add_parser("serve",
                       help="serve N concurrent synthetic client "
                            "streams through a ServingEngine with "
                            "cross-stream micro-batching (see "
                            "docs/SERVING.md)")
    p.add_argument("--streams", type=int, default=4,
                   help="number of concurrent client streams")
    p.add_argument("--frames", type=int, default=8,
                   help="frames per stream")
    p.add_argument("--offered-load", type=float, default=None,
                   metavar="FPS",
                   help="per-stream submission rate in frames/s "
                        "(default: submit as fast as possible)")
    p.add_argument("--model", default="tiny")
    p.add_argument("--preset", default="hck",
                   choices=["none", "hck", "lck"],
                   help="compress the served model with this preset")
    p.add_argument("--execution", default="lowered",
                   choices=EXECUTION_MODES)
    p.add_argument("--batch", type=int, default=4, metavar="N",
                   help="micro-batch window size filled across streams")
    p.add_argument("--deadline-ms", type=float, default=50.0)
    p.add_argument("--device", default="jetson",
                   choices=["jetson", "rtx4080"])
    p.add_argument("--queue-depth", type=int, default=8,
                   help="per-stream pipeline bound (backpressure past "
                        "this many queued + in-flight frames)")
    p.add_argument("--backend", default="thread",
                   choices=["thread", "process"],
                   help="window-execution backend: in-process threads "
                        "or a pool of replica worker processes "
                        "(GIL-free; falls back to threads when no "
                        "multiprocessing start method is usable)")
    p.add_argument("--replicas", type=int, default=1, metavar="K",
                   help="replica pool size — windows that may execute "
                        "concurrently")
    p.add_argument("--seed", type=int, default=0,
                   help="scene generator base seed (stream i uses "
                        "seed + i)")
    p.add_argument("--report", default=None, metavar="PATH",
                   help="write per-stream and aggregate p50/p99 wall "
                        "service latency + throughput as JSON")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("pack-archive",
                       help="compress preset variants into one "
                            "checksummed model-variant archive")
    p.add_argument("--model", default="tiny",
                   choices=["tiny", "pointpillars", "smoke"])
    p.add_argument("--variants",
                   default="lck-16bit,lck-8bit,hck-8bit,hck-4bit",
                   help="CSV of fuzz-preset names to pack (identical "
                        "packed layers across variants are stored "
                        "once)")
    p.add_argument("--out", required=True,
                   help="write the archive here")
    p.set_defaults(func=_cmd_pack_archive)

    p = sub.add_parser("archive",
                       help="inspect a model-variant archive")
    archive_sub = p.add_subparsers(dest="archive_command", required=True)
    p = archive_sub.add_parser("ls", help="list entries and dedup stats")
    p.add_argument("path", help="archive file")
    p.set_defaults(func=_cmd_archive_ls)
    p = archive_sub.add_parser(
        "verify", help="strict integrity check (trailer + every entry); "
                       "on corruption, prints what salvage would keep")
    p.add_argument("path", help="archive file")
    p.set_defaults(func=_cmd_archive_verify)

    p = sub.add_parser("ir", help="inspect the layer-level model IR")
    ir_sub = p.add_subparsers(dest="ir_command", required=True)
    p = ir_sub.add_parser("dump",
                          help="print the extracted ModelIR as JSON")
    p.add_argument("model", choices=["pointpillars", "smoke"],
                   help="model to extract")
    p.add_argument("--preset", default="none",
                   choices=["none", "hck", "lck"],
                   help="compress with this preset first, so the dump "
                        "shows compression annotations")
    p.add_argument("--compact", action="store_true",
                   help="single-line JSON instead of indented")
    p.set_defaults(func=_cmd_ir_dump)

    p = sub.add_parser(
        "fuzz", help="scenario-matrix fuzz sweep with regression gating")
    p.add_argument("--scenarios", default=None,
                   help="CSV of scenario families, or 'all' "
                        "(default: all families)")
    p.add_argument("--presets", default=None,
                   help="CSV of compression presets, or 'all' "
                        "(default: hck,lck,hck-4bit,lck-16bit)")
    p.add_argument("--conditions", default=None,
                   help="CSV of runtime conditions, or 'all' "
                        "(default: clean,faulty,pressure)")
    p.add_argument("--frames", type=int, default=3,
                   help="frames streamed per cell")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--model", default="tiny",
                   choices=["tiny", "pointpillars"])
    p.add_argument("--execution", default="reference",
                   choices=EXECUTION_MODES)
    p.add_argument("--baseline", default="artifacts/fuzz_baseline.json",
                   help="committed baseline to gate against")
    p.add_argument("--out", default=None,
                   help="write the full sweep report (cells + rows) here")
    p.add_argument("--gate-report", default=None,
                   help="write the machine-readable gate verdict here")
    p.add_argument("--write-baseline", action="store_true",
                   help="bless this sweep as the new baseline (no gating)")
    p.add_argument("--map-drop", type=float, default=3.0,
                   help="allowed absolute mAP drop in points")
    p.add_argument("--p99-rise", type=float, default=0.25,
                   help="allowed relative p99 latency rise")
    p.add_argument("--hit-rate-drop", type=float, default=0.15,
                   help="allowed absolute deadline-hit-rate drop")
    p.add_argument("--list", action="store_true",
                   help="list scenario/preset/condition names and exit")
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser(
        "query", help="filter saved fuzz-sweep rows with a query expression")
    p.add_argument("expr",
                   help="e.g. \"status = degraded and latency_ms > 30\"")
    p.add_argument("--report", required=True,
                   help="sweep report written by `repro fuzz --out`")
    p.add_argument("--count", action="store_true",
                   help="print only the number of matching rows")
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("sensitivity",
                       help="per-layer quantization sensitivity")
    p.add_argument("--model", default="pointpillars")
    p.add_argument("--budget", type=float, default=0.05,
                   help="max tolerated relative output error")
    p.set_defaults(func=_cmd_sensitivity)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
