"""Batched ≡ sequential bit-for-bit parity of the integer executors.

The tentpole contract of micro-batched lowered execution: running a
whole batch through one ``forward``/``reference`` call must produce
*byte-identical* outputs to stacking the per-frame calls — across
bitwidths (4/8/16), all four pattern families, all three executor
kinds, and batch sizes 1/2/5 — and the telemetry counters of the
batched call must equal the sum of the per-frame counters.  The
certified-gemm fast path and the einsum fallback must agree too.
"""

import numpy as np
import pytest

from repro import nn
from repro.core.patterns import PATTERN_TYPES, generate_pattern
from repro.nn import Tensor
from repro.nn.quantized import (QuantizedConv2d, QuantizedConvTranspose2d,
                                QuantizedLinear, activation_scale)
from repro.runtime.telemetry import LayerTelemetry

BITWIDTHS = (4, 8, 16)
BATCH_SIZES = (1, 2, 5)


def _pattern(pattern_type):
    return generate_pattern(2, 3, np.random.default_rng(7), pattern_type)


def _make_executor(kind, bits, pattern_type):
    pattern = _pattern(pattern_type)
    act_bits = max(8, bits)
    rng = np.random.default_rng(hash((kind, bits, pattern_type)) % 2 ** 32)
    if kind == "conv":
        layer = nn.Conv2d(2, 4, 3, padding=1,
                          rng=np.random.default_rng(1))
        layer.weight.data = layer.weight.data \
            * pattern.mask()[None, None]
        frames = [Tensor(rng.standard_normal((1, 2, 6, 6))
                         .astype(np.float32)) for _ in range(5)]
        scale = activation_scale(
            np.concatenate([f.data for f in frames]), act_bits)
        executor = QuantizedConv2d.from_float(
            layer, scale, weight_bits=bits, activation_bits=act_bits)
    elif kind == "deconv":
        layer = nn.ConvTranspose2d(2, 3, 3, stride=2, padding=1,
                                   rng=np.random.default_rng(2))
        layer.weight.data = layer.weight.data \
            * pattern.mask()[None, None]
        frames = [Tensor(rng.standard_normal((1, 2, 6, 6))
                         .astype(np.float32)) for _ in range(5)]
        scale = activation_scale(
            np.concatenate([f.data for f in frames]), act_bits)
        executor = QuantizedConvTranspose2d.from_float(
            layer, scale, weight_bits=bits, activation_bits=act_bits)
    else:
        layer = nn.Linear(18, 5, rng=np.random.default_rng(3))
        feature_mask = np.tile(pattern.mask().reshape(-1), 2)
        layer.weight.data = layer.weight.data * feature_mask[None, :]
        frames = [Tensor(rng.standard_normal((1, 4, 18))
                         .astype(np.float32)) for _ in range(5)]
        scale = activation_scale(
            np.concatenate([f.data for f in frames]), act_bits)
        executor = QuantizedLinear.from_float(
            layer, scale, weight_bits=bits, activation_bits=act_bits)
    return executor, frames


def _stack(frames):
    return Tensor(np.concatenate([f.data for f in frames], axis=0))


@pytest.mark.parametrize("batch", BATCH_SIZES)
@pytest.mark.parametrize("kind", ["conv", "deconv", "linear"])
@pytest.mark.parametrize("pattern_type", PATTERN_TYPES)
@pytest.mark.parametrize("bits", BITWIDTHS)
class TestBatchedBitForBit:
    def test_forward_and_reference(self, bits, pattern_type, kind, batch):
        executor, frames = _make_executor(kind, bits, pattern_type)
        frames = frames[:batch]
        batched = _stack(frames)
        for run in (executor.forward, executor.reference):
            whole = run(batched).data
            stacked = np.concatenate(
                [run(f).data for f in frames], axis=0)
            assert whole.shape == stacked.shape
            assert whole.tobytes() == stacked.tobytes()

    def test_gemm_and_fallback_agree(self, bits, pattern_type, kind,
                                     batch):
        """The certified float64 gemm and the int64 einsum fallback are
        the same exact integer accumulation — byte-equal outputs."""
        executor, frames = _make_executor(kind, bits, pattern_type)
        batched = _stack(frames[:batch])
        assert executor._use_gemm      # all repo configs certify
        fast = executor.forward(batched).data
        fast_ref = executor.reference(batched).data
        executor._use_gemm = False
        slow = executor.forward(batched).data
        slow_ref = executor.reference(batched).data
        executor._use_gemm = True
        assert fast.tobytes() == slow.tobytes()
        assert fast_ref.tobytes() == slow_ref.tobytes()


@pytest.mark.parametrize("kind", ["conv", "deconv", "linear"])
@pytest.mark.parametrize("batch", [2, 5])
class TestBatchedTelemetrySums:
    def test_batched_counters_equal_per_frame_sum(self, kind, batch):
        executor, frames = _make_executor(kind, 8, "row")
        frames = frames[:batch]

        sequential = LayerTelemetry(layer="seq")
        for frame in frames:
            executor.forward(frame, telemetry=sequential)

        batched = LayerTelemetry(layer="bat")
        executor.forward(_stack(frames), telemetry=batched)

        assert batched.calls == sequential.calls == batch
        assert batched.macs == sequential.macs
        assert batched.columns_total == sequential.columns_total
        assert batched.columns_skipped == sequential.columns_skipped
        assert batched.activations_total == sequential.activations_total
        assert batched.activations_saturated \
            == sequential.activations_saturated
        assert batched.acc_min == sequential.acc_min
        assert batched.acc_max == sequential.acc_max


class TestCompaction:
    """The packed weight matrix is built once, at construction."""

    def test_compact_matrix_only_keeps_live_columns(self):
        executor, _ = _make_executor("conv", 8, "row")
        keep = executor._keep_cols
        assert not keep.all()
        assert executor._w_kept.shape[1] == keep.sum() == executor._kept
        dense = executor.weight_codes.reshape(
            executor.weight_codes.shape[0], -1)
        assert (executor._w_kept == dense[:, keep]).all()

    def test_recompact_follows_mask(self):
        executor, frames = _make_executor("conv", 8, "row")
        before = executor.forward(frames[0]).data
        executor._keep_cols = np.ones_like(executor._keep_cols)
        executor._compact()
        assert executor._kept == executor._keep_cols.size
        after = executor.forward(frames[0]).data
        # Skipping all-zero columns is exact: same bytes either way.
        assert before.tobytes() == after.tobytes()

    def test_shape_plans_are_bounded(self):
        executor, _ = _make_executor("conv", 8, "row")
        rng = np.random.default_rng(0)
        for h in range(4, 16):
            executor.forward(Tensor(
                rng.standard_normal((1, 2, h, 6)).astype(np.float32)))
        from repro.nn.quantized import _MAX_SHAPE_PLANS
        assert len(executor._plans) <= _MAX_SHAPE_PLANS
