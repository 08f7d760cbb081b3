"""Micro-benchmark: batched lowered execution vs per-frame execution.

Measures the perf wins of the lowered-execution work as separate
numbers:

* **geometry cache** — per-frame throughput with warm shape plans vs
  cold (cache cleared before every frame);
* **micro-batching** — batched windows of 1/2/4/8 frames through one
  gather + one gemm per layer vs warm per-frame execution.

Writes ``BENCH_throughput.json`` at the repo root.  The batched passes
are bit-identical to the sequential one (pinned by
``tests/nn/test_batched_quantized.py``), so this file only measures —
plus a guard assertion that the machinery actually pays: batch-8 must
beat warm per-frame by >= 2x (relaxed to >= 1.0x under
``REPRO_BENCH_TINY=1``, where runs are sized for shared CI runners).

Run with ``PYTHONPATH=src python -m pytest benchmarks/test_throughput.py -q``.
"""

import json
import os
import time

import numpy as np

from repro import nn
from repro.nn import Tensor
from repro.nn import functional as F
from repro.nn.quantized import (QuantizedConv2d, QuantizedConvTranspose2d,
                                QuantizedLinear, activation_scale)

TINY = os.environ.get("REPRO_BENCH_TINY", "0") == "1"
BATCH_SIZES = (1, 2, 4, 8)
FRAMES = 16 if TINY else 32
REPEATS = 5
OUT_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                        "BENCH_throughput.json")


def _merge_report(update: dict) -> dict:
    """Merge ``update`` into the committed report (keeps other tests'
    sections when one benchmark is run alone)."""
    report = {}
    if os.path.exists(OUT_PATH):
        with open(OUT_PATH) as handle:
            report = json.load(handle)
    report.update(update)
    with open(OUT_PATH, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return report


def _layer_stack(rng):
    """PointPillars-/SMOKE-shaped quantized layers with their inputs.

    One backbone conv, one upsample deconv, one PFN-style linear —
    the three executor kinds the runtime batches.  Shapes are small so
    the per-call Python/gather overhead that batching amortizes is a
    visible fraction of each frame.
    """
    if TINY:
        conv_shape, deconv_shape, linear_shape = (
            (1, 4, 6, 6), (1, 4, 3, 3), (1, 20, 8))
        conv = nn.Conv2d(4, 4, 3, padding=1, rng=rng)
        deconv = nn.ConvTranspose2d(4, 4, 2, stride=2, rng=rng)
        linear = nn.Linear(8, 4, rng=rng)
    else:
        conv_shape, deconv_shape, linear_shape = (
            (1, 8, 8, 8), (1, 8, 4, 4), (1, 50, 16))
        conv = nn.Conv2d(8, 8, 3, padding=1, rng=rng)
        deconv = nn.ConvTranspose2d(8, 8, 2, stride=2, rng=rng)
        linear = nn.Linear(16, 8, rng=rng)

    stack = []
    for layer, cls, shape in ((conv, QuantizedConv2d, conv_shape),
                              (deconv, QuantizedConvTranspose2d,
                               deconv_shape),
                              (linear, QuantizedLinear, linear_shape)):
        frames = [rng.standard_normal(shape).astype(np.float32)
                  for _ in range(FRAMES)]
        scale = activation_scale(np.concatenate(frames), 8)
        executor = cls.from_float(layer, scale, weight_bits=8,
                                  activation_bits=8)
        stack.append((executor, [Tensor(f) for f in frames]))
    return stack


def _clear_plans(stack):
    F.clear_geometry_cache()
    for executor, _ in stack:
        getattr(executor, "_plans", {}).clear()


def _time(fn):
    """Best-of-REPEATS wall time of ``fn`` (seconds)."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _run_per_frame(stack, cold):
    def run():
        for executor, frames in stack:
            for frame in frames:
                if cold:
                    _clear_plans(stack)
                executor.forward(frame)
    return run


def _run_batched(stack, batch):
    windows = [
        (executor,
         [Tensor(np.concatenate([f.data for f in frames[i:i + batch]]))
          for i in range(0, FRAMES, batch)])
        for executor, frames in stack]

    def run():
        for executor, batches in windows:
            for window in batches:
                executor.forward(window)
    return run


def test_throughput_report():
    rng = np.random.default_rng(0)
    stack = _layer_stack(rng)

    # Warm everything once so compile-once costs stay out of "warm".
    for executor, frames in stack:
        executor.forward(frames[0])

    cold_s = _time(_run_per_frame(stack, cold=True))
    _clear_plans(stack)
    for executor, frames in stack:
        executor.forward(frames[0])
    warm_s = _time(_run_per_frame(stack, cold=False))

    batched_fps = {}
    for batch in BATCH_SIZES:
        batched_fps[str(batch)] = FRAMES / _time(_run_batched(stack,
                                                              batch))

    report = {
        "tiny": TINY,
        "frames": FRAMES,
        "repeats": REPEATS,
        "layers": [type(executor).__name__ for executor, _ in stack],
        "per_frame_cold_fps": FRAMES / cold_s,
        "per_frame_warm_fps": FRAMES / warm_s,
        "batched_fps": batched_fps,
        "geometry_cache_speedup": cold_s / warm_s,
        "batch8_speedup_vs_per_frame":
            batched_fps["8"] / (FRAMES / warm_s),
    }
    _merge_report(report)

    print("\nthroughput (frames/s): "
          f"cold {report['per_frame_cold_fps']:.0f}, "
          f"warm {report['per_frame_warm_fps']:.0f}, "
          + ", ".join(f"batch{b} {fps:.0f}"
                      for b, fps in batched_fps.items()))
    print(f"geometry cache speedup: "
          f"{report['geometry_cache_speedup']:.2f}x; "
          f"batch-8 vs per-frame: "
          f"{report['batch8_speedup_vs_per_frame']:.2f}x")

    # The caches must pay for themselves, and batching must pay on top.
    assert report["geometry_cache_speedup"] >= 1.0
    floor = 1.0 if TINY else 2.0
    assert report["batch8_speedup_vs_per_frame"] >= floor, (
        f"batch-8 only {report['batch8_speedup_vs_per_frame']:.2f}x "
        f"over per-frame (floor {floor}x)")

