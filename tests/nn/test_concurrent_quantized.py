"""Forward-path caches under concurrent callers ≡ serial execution.

Regression suite for the serving-era thread-safety sweep: the global
geometry-plan LRU (`repro.nn.functional._GEOMETRY_CACHE`), the
per-executor ``_plans`` memo dicts (`repro.nn.quantized`), and the
telemetry counters are all hammered from multiple threads against the
bit-identical-to-serial contract.  Before the sweep, racing threads could interleave
get/evict/insert on those dicts mid-mutation; these tests fail loudly
(wrong bits, lost counter increments, cache overgrowth) if that
regresses.
"""

import threading

import numpy as np

from repro import nn
from repro.nn import Tensor
from repro.nn import functional as F
from repro.nn.quantized import (_MAX_SHAPE_PLANS, QuantizedConv2d,
                                QuantizedConvTranspose2d, QuantizedLinear,
                                activation_scale)
from repro.runtime.telemetry import LayerTelemetry

THREADS = 4
ROUNDS = 8


def _executor_stack(seed=0):
    """One executor of each kind with a pile of input frames."""
    rng = np.random.default_rng(seed)
    conv = nn.Conv2d(4, 4, 3, padding=1, rng=rng)
    deconv = nn.ConvTranspose2d(4, 4, 2, stride=2, rng=rng)
    linear = nn.Linear(8, 4, rng=rng)
    stack = []
    for layer, cls, shape in ((conv, QuantizedConv2d, (1, 4, 6, 6)),
                              (deconv, QuantizedConvTranspose2d,
                               (1, 4, 3, 3)),
                              (linear, QuantizedLinear, (1, 20, 8))):
        frames = [rng.standard_normal(shape).astype(np.float32)
                  for _ in range(6)]
        scale = activation_scale(np.concatenate(frames), 8)
        executor = cls.from_float(layer, scale, weight_bits=8,
                                  activation_bits=8)
        stack.append((executor, [Tensor(f) for f in frames]))
    return stack


def _hammer(worker, threads=THREADS):
    """Run ``worker(thread_index)`` on N threads, re-raising failures."""
    errors = []
    barrier = threading.Barrier(threads)

    def run(index):
        try:
            barrier.wait()
            worker(index)
        except BaseException as exc:   # noqa: BLE001 - reraised below
            errors.append(exc)

    pool = [threading.Thread(target=run, args=(i,))
            for i in range(threads)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    if errors:
        raise errors[0]


def test_shared_executors_bit_identical_under_threads():
    """Two+ threads hammering shared executors (cold caches, so the
    plan memos race on every shape) reproduce serial bits exactly."""
    stack = _executor_stack()
    serial = [[executor.forward(frame).data for frame in frames]
              for executor, frames in stack]

    for _ in range(ROUNDS):
        F.clear_geometry_cache()
        for executor, _ in stack:
            getattr(executor, "_plans", {}).clear()
        outputs = [[None] * len(frames) for _, frames in stack]

        def worker(index):
            # Each thread walks the frames with a different stride
            # phase so threads collide on fresh shapes constantly.
            for step in range(len(stack[0][1])):
                for row, (executor, frames) in enumerate(stack):
                    pos = (index + step) % len(frames)
                    out = executor.forward(frames[pos]).data
                    expected = serial[row][pos]
                    assert np.array_equal(out, expected)
                    outputs[row][pos] = out

        _hammer(worker)
        for row, per_frame in enumerate(outputs):
            for pos, out in enumerate(per_frame):
                assert out is not None
                assert np.array_equal(out, serial[row][pos])


def test_plan_memo_never_overgrows_under_threads():
    """Concurrent insertions respect the FIFO bound — no unbounded
    growth through racing evictions."""
    rng = np.random.default_rng(1)
    conv = nn.Conv2d(2, 2, 3, padding=1, rng=rng)
    frames = [rng.standard_normal((1, 2, h, h)).astype(np.float32)
              for h in range(4, 4 + 2 * _MAX_SHAPE_PLANS)]
    scale = activation_scale(np.concatenate(
        [f.reshape(1, -1) for f in frames], axis=1), 8)
    executor = QuantizedConv2d.from_float(conv, scale, weight_bits=8,
                                          activation_bits=8)
    serial = [executor.forward(Tensor(f)).data for f in frames]
    executor._plans.clear()

    def worker(index):
        for offset in range(len(frames)):
            pos = (index * 3 + offset) % len(frames)
            out = executor.forward(Tensor(frames[pos])).data
            assert np.array_equal(out, serial[pos])

    _hammer(worker)
    assert len(executor._plans) <= _MAX_SHAPE_PLANS


def test_geometry_cache_converges_to_one_plan_object():
    """Racing builders of the same geometry key converge on a single
    canonical plan (the re-check-under-lock path)."""
    F.clear_geometry_cache()
    stack = _executor_stack(seed=5)
    executor, frames = stack[0]
    executor._plans.clear()

    plans = []
    lock = threading.Lock()

    def worker(index):
        out = executor.forward(frames[0])
        with lock:
            plans.append(executor._shape_plan(*frames[0].data.shape[1:]))
        assert out.data is not None

    _hammer(worker)
    assert all(plan is plans[0] for plan in plans)


def test_telemetry_counters_exact_under_threads():
    """record_* from N threads loses no increments: totals equal the
    serial sum regardless of interleaving."""
    counter = LayerTelemetry(layer="hammered")
    per_thread = 500

    def worker(index):
        for step in range(per_thread):
            counter.record_quantization(total=10, saturated=1)
            counter.record_matmul(frames=1, macs=100,
                                  columns_total=8, columns_skipped=2)
            counter.record_accumulator(-step, step)

    _hammer(worker)
    expected = THREADS * per_thread
    assert counter.activations_total == 10 * expected
    assert counter.activations_saturated == expected
    assert counter.calls == expected
    assert counter.macs == 100 * expected
    assert counter.columns_total == 8 * expected
    assert counter.columns_skipped == 2 * expected
    assert counter.acc_min == -(per_thread - 1)
    assert counter.acc_max == per_thread - 1
    # Snapshots are plain dataclass copies — equality and to_json stay
    # field-based despite the internal lock.
    snap = counter.snapshot()
    assert snap == counter
    assert "lock" not in str(snap.to_json() if hasattr(snap, "to_json")
                             else {})


def test_shared_lowered_program_bit_identical_under_threads():
    """Two threads pushing frames through one shared LoweredProgram,
    both attached to one model at once, reproduce solo bits."""
    from repro.core import UPAQCompressor
    from repro.fuzzing import build_fuzz_model, build_preset_config
    from repro.ir.lowering import lower_executors
    from repro.pointcloud import SceneGenerator
    from repro.runtime.executors import LoweredProgram

    base = build_fuzz_model("tiny")
    outcome = UPAQCompressor(build_preset_config("hck")).compress(
        base, *base.example_inputs())
    model = outcome.model
    model.eval()
    program = LoweredProgram(lower_executors(outcome.ir, model),
                             mode="lowered")
    generator = SceneGenerator(seed=0)
    scenes = [generator.generate(i, with_image=False) for i in range(4)]
    with program.attached(model):
        serial = [model.predict(scene) for scene in scenes]

    def boxes(result):
        return [(b.x, b.y, b.z, b.dx, b.dy, b.dz, b.yaw, b.label,
                 b.score) for b in result.boxes]

    def worker(index):
        for scene, expected in zip(scenes, serial):
            with program.attached(model):
                got = model.predict(scene)
            assert boxes(got) == boxes(expected)

    _hammer(worker, threads=2)


def test_compaction_resets_the_plan_memo():
    """_compact rebuilds start from an empty memo (its gather indices
    embed the kept columns), and the module-level memo lock needs no
    per-executor state to be re-armed: the rebuilt memo refills and
    gives the same bytes."""
    stack = _executor_stack(seed=7)
    for executor, frames in stack:
        if not hasattr(executor, "_plans"):
            continue
        before = executor.forward(frames[0]).data
        assert executor._plans
        executor._compact()
        assert executor._plans == {}
        assert executor.forward(frames[0]).data.tobytes() \
            == before.tobytes()
        assert len(executor._plans) == 1
