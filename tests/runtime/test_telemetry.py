"""Telemetry invariants for the integer executors.

Pinned here:

* skipped-column counts equal the all-zero columns each of Algorithm
  2's four pattern families implies, at 4/8/16-bit weights;
* the saturation rate is exactly 0 when the calibration scale covers
  the input range, and positive when it does not;
* passing counters never perturbs an output bit — ``forward`` stays
  bit-for-bit equal to the independent int64 oracle with telemetry
  on, and both execution modes of a program report the oracle's
  counters;
* MAC counts and accumulator extrema match an independent recompute,
  and the accumulator headroom certifies the 2^53 exactness bound.
"""

import math

import numpy as np
import pytest

from repro import nn
from repro.core.patterns import PATTERN_TYPES, generate_pattern
from repro.nn.quantized import (QuantizedConv2d, QuantizedConvTranspose2d,
                                QuantizedLinear, activation_scale,
                                quantize_activation)
from repro.nn.tensor import Tensor
from repro.runtime.executors import EXECUTION_MODES, LoweredProgram
from repro.runtime.telemetry import (ACC_EXACT_BITS, LayerTelemetry,
                                     aggregate_telemetry)
from tests.nn.quantized_oracle import conv_oracle

BITS = (4, 8, 16)
KERNEL = 3
N_NONZERO = 2


def _signed_magnitudes(rng, shape):
    """Weights with |w| in [0.5, 1]: no nonzero position can quantize
    to a zero code even at 4 bits, so the all-zero columns are exactly
    the mask's zeros."""
    signs = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
    return (rng.uniform(0.5, 1.0, shape) * signs).astype(np.float32)


def _channel_masks(pattern_type, channels, rng):
    """One pattern per channel, shared by every kernel of that channel."""
    masks = [generate_pattern(N_NONZERO, KERNEL, rng,
                              pattern_type=pattern_type).mask()
             for _ in range(channels)]
    return np.stack(masks)                      # (channels, k, k)


def _input(shape, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape).astype(np.float32)


def _patterned_conv(pattern_type, rng, in_c=3, out_c=4):
    conv = nn.Conv2d(in_c, out_c, KERNEL, padding=1, rng=rng)
    masks = _channel_masks(pattern_type, in_c, rng)     # (in_c, k, k)
    conv.weight.data = _signed_magnitudes(
        rng, conv.weight.data.shape) * masks[None]
    expected_skipped = int((masks == 0).sum())
    return conv, expected_skipped, in_c * KERNEL * KERNEL


def _patterned_deconv(pattern_type, rng, in_c=3, out_c=4):
    deconv = nn.ConvTranspose2d(in_c, out_c, KERNEL, stride=2,
                                padding=1, rng=rng)
    # Scatter columns are (out-channel, ki, kj): share one pattern per
    # *output* channel across every input channel.
    masks = _channel_masks(pattern_type, out_c, rng)     # (out_c, k, k)
    deconv.weight.data = _signed_magnitudes(
        rng, deconv.weight.data.shape) * masks[None]     # (in, out, k, k)
    expected_skipped = int((masks == 0).sum())
    return deconv, expected_skipped, out_c * KERNEL * KERNEL


@pytest.mark.parametrize("bits", BITS)
@pytest.mark.parametrize("pattern_type", PATTERN_TYPES)
class TestPatternSkipCounts:
    """Skipped columns == the zeros each pattern family implies."""

    def test_conv_skip_count(self, pattern_type, bits):
        rng = np.random.default_rng(hash((pattern_type, bits)) % 2**32)
        conv, expected_skipped, total = _patterned_conv(pattern_type, rng)
        x = _input((2, 3, 6, 6))
        q = QuantizedConv2d.from_float(
            conv, activation_scale(x, max(8, bits)), weight_bits=bits,
            activation_bits=max(8, bits))
        telemetry = LayerTelemetry(layer="conv")
        q.forward(Tensor(x), telemetry=telemetry)
        # Column counters are per frame; the (batch 2) call records 2x.
        assert telemetry.columns_total == 2 * total
        assert telemetry.columns_skipped == 2 * expected_skipped
        assert telemetry.skip_rate == expected_skipped / total

    def test_deconv_skip_count(self, pattern_type, bits):
        rng = np.random.default_rng(hash((pattern_type, bits, 1)) % 2**32)
        deconv, expected_skipped, total = _patterned_deconv(
            pattern_type, rng)
        x = _input((2, 3, 5, 5))
        q = QuantizedConvTranspose2d.from_float(
            deconv, activation_scale(x, max(8, bits)), weight_bits=bits,
            activation_bits=max(8, bits))
        telemetry = LayerTelemetry(layer="deconv")
        q.forward(Tensor(x), telemetry=telemetry)
        assert telemetry.columns_total == 2 * total
        assert telemetry.columns_skipped == 2 * expected_skipped


@pytest.mark.parametrize("bits", BITS)
class TestLinearSkipCounts:
    """Linear skipping is per input feature: zeroed weight columns."""

    def test_linear_skip_count(self, bits):
        rng = np.random.default_rng(bits)
        linear = nn.Linear(10, 6, rng=rng)
        weights = _signed_magnitudes(rng, linear.weight.data.shape)
        weights[:, [1, 4, 7]] = 0.0             # prune 3 input features
        linear.weight.data = weights
        x = _input((5, 10))
        q = QuantizedLinear.from_float(
            linear, activation_scale(x, max(8, bits)), weight_bits=bits,
            activation_bits=max(8, bits))
        telemetry = LayerTelemetry(layer="linear")
        q.forward(Tensor(x), telemetry=telemetry)
        assert telemetry.columns_total == 10
        assert telemetry.columns_skipped == 3
        assert telemetry.macs == 5 * 7 * 6


class TestSaturation:
    def test_zero_saturation_when_calibrated(self):
        """A max-calibrated scale covers the whole input range."""
        x = _input((2, 3, 6, 6), seed=3)
        rng = np.random.default_rng(0)
        conv, _, _ = _patterned_conv("row", rng)
        q = QuantizedConv2d.from_float(conv, activation_scale(x),
                                       weight_bits=8)
        telemetry = LayerTelemetry()
        q.forward(Tensor(x), telemetry=telemetry)
        assert telemetry.activations_total == x.size
        assert telemetry.activations_saturated == 0
        assert telemetry.saturation_rate == 0.0

    def test_undersized_scale_saturates(self):
        x = _input((2, 3, 6, 6), seed=3)
        rng = np.random.default_rng(0)
        conv, _, _ = _patterned_conv("row", rng)
        q = QuantizedConv2d.from_float(conv, activation_scale(x) / 4,
                                       weight_bits=8)
        telemetry = LayerTelemetry()
        q.forward(Tensor(x), telemetry=telemetry)
        assert telemetry.activations_saturated > 0
        assert 0.0 < telemetry.saturation_rate <= 1.0

    def test_quantize_activation_counts_without_perturbing(self):
        x = _input((4, 7), seed=9)
        scale = activation_scale(x) / 3
        telemetry = LayerTelemetry()
        counted = quantize_activation(x, scale, telemetry=telemetry)
        plain = quantize_activation(x, scale)
        np.testing.assert_array_equal(counted, plain)
        expected = int((np.abs(np.round(x / scale)) > 127).sum())
        assert telemetry.activations_saturated == expected


class TestCountersDoNotPerturb:
    """The hard guarantee: telemetry is observation-only."""

    @pytest.mark.parametrize("bits", BITS)
    def test_outputs_bit_identical_with_and_without(self, bits):
        rng = np.random.default_rng(bits + 17)
        conv, _, _ = _patterned_conv("main_diagonal", rng)
        x = Tensor(_input((2, 3, 6, 6)))
        q = QuantizedConv2d.from_float(
            conv, activation_scale(x.data, max(8, bits)),
            weight_bits=bits, activation_bits=max(8, bits))
        bare = q.forward(x).data
        telemetry = LayerTelemetry()
        counted = q.forward(x, telemetry=telemetry).data
        assert counted.tobytes() == bare.tobytes()
        assert counted.tobytes() == conv_oracle(q, x.data)[0].tobytes()

    def test_both_modes_report_identical_counters(self):
        """``execution="lowered"`` and ``"reference"`` run one path, so
        a program in either mode counts exactly the oracle's values."""
        rng = np.random.default_rng(23)
        conv, _, _ = _patterned_conv("column", rng)
        model = nn.Sequential(conv)
        x = Tensor(_input((1, 3, 6, 6)))
        q = QuantizedConv2d.from_float(conv, activation_scale(x.data),
                                       weight_bits=8)
        _, expected = conv_oracle(q, x.data)
        expected.layer = "0"
        for mode in EXECUTION_MODES:
            store = {}
            with LoweredProgram({"0": q}, mode=mode).attached(model, store):
                model(x)
            assert store["0"] == expected


class TestMacsAndAccumulator:
    def test_conv_mac_count_matches_formula(self):
        rng = np.random.default_rng(5)
        conv, expected_skipped, total = _patterned_conv("row", rng)
        x = Tensor(_input((2, 3, 6, 6)))
        q = QuantizedConv2d.from_float(conv, activation_scale(x.data),
                                       weight_bits=8)
        telemetry = LayerTelemetry()
        q.forward(x, telemetry=telemetry)
        kept = total - expected_skipped
        positions = 6 * 6                       # stride 1, padding 1
        assert telemetry.macs == 2 * 4 * kept * positions
        # one batched matmul over 2 frames counts as 2 per-frame calls
        assert telemetry.calls == 2

    def test_accumulator_extrema_match_recompute(self):
        rng = np.random.default_rng(6)
        conv, _, _ = _patterned_conv("anti_diagonal", rng)
        x = Tensor(_input((1, 3, 6, 6)))
        q = QuantizedConv2d.from_float(conv, activation_scale(x.data),
                                       weight_bits=8)
        telemetry = LayerTelemetry()
        q.forward(x, telemetry=telemetry)
        _, expected = conv_oracle(q, x.data)
        assert telemetry.acc_min == expected.acc_min
        assert telemetry.acc_max == expected.acc_max
        assert telemetry.headroom_bits > 0
        assert telemetry.acc_absmax < 2 ** ACC_EXACT_BITS

    def test_headroom_is_infinite_before_any_call(self):
        telemetry = LayerTelemetry()
        assert math.isinf(telemetry.headroom_bits)
        assert math.isnan(telemetry.skip_rate)
        assert math.isnan(telemetry.saturation_rate)


class TestAggregation:
    def test_merge_and_digest(self):
        a = LayerTelemetry(layer="a")
        a.record_matmul(macs=100, columns_total=10, columns_skipped=4)
        a.record_quantization(50, 5)
        a.record_accumulator(-8, 16)
        b = LayerTelemetry(layer="b")
        b.record_matmul(macs=300, columns_total=10, columns_skipped=2)
        b.record_quantization(50, 0)
        b.record_accumulator(-64, 32)
        agg = aggregate_telemetry({"a": a, "b": b})
        assert agg["layers"] == 2
        assert agg["macs"] == 400
        assert agg["skip_rate"] == 6 / 20
        assert agg["saturation_rate"] == 5 / 100
        assert agg["min_headroom_bits"] == ACC_EXACT_BITS - 6

    def test_snapshot_is_independent(self):
        a = LayerTelemetry(layer="a")
        a.record_matmul(macs=10, columns_total=4, columns_skipped=1)
        snap = a.snapshot()
        a.record_matmul(macs=10, columns_total=4, columns_skipped=1)
        assert snap.macs == 10 and a.macs == 20

    def test_json_round_trip_fields(self):
        a = LayerTelemetry(layer="a")
        a.record_matmul(macs=10, columns_total=4, columns_skipped=1)
        record = a.to_json()
        assert record["layer"] == "a"
        assert record["skip_rate"] == 0.25
        assert record["headroom_bits"] is None  # no accumulation yet
