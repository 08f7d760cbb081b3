"""Cross-product parity of the lowered integer executors.

Satellite acceptance: bitwidth ∈ {4, 8, 16} × all four pattern families
× {Conv2d, ConvTranspose2d, Linear}, asserting

* ``forward`` (one float64 gemm) ≡ the independent int64 oracle of
  :mod:`tests.nn.quantized_oracle` down to identical float32 bit
  patterns — the accumulation is the exact integer one; every cell
  also constructs, so no lowerable configuration trips the 2⁵³
  :class:`~repro.nn.quantized.AccumulatorBoundError`; and
* ``forward`` vs ``fake_quant_reference`` (the float32 training-side
  view) within **one rescaling ulp per path**: each side rounds to
  float32 once at its final rescale, so they agree to within two units
  in the last place at the output's full-scale magnitude.
"""

import numpy as np
import pytest

from repro import nn
from repro.core.patterns import PATTERN_TYPES, generate_pattern
from repro.nn import Tensor
from repro.nn.quantized import (QuantizedConv2d, QuantizedConvTranspose2d,
                                QuantizedLinear, activation_scale)
from tests.nn.quantized_oracle import oracle_output

BITWIDTHS = (4, 8, 16)


def _pattern(pattern_type):
    """A deterministic 2-of-9 kernel mask of the requested family."""
    return generate_pattern(2, 3, np.random.default_rng(7), pattern_type)


def _assert_bit_for_bit(executor, x):
    lowered = executor(x)
    assert lowered.data.dtype == np.float32
    assert lowered.data.tobytes() == oracle_output(executor, x).tobytes()
    return lowered


def _assert_one_rescale_ulp(lowered, fake_quant):
    """Each path rounds to float32 once at the final rescale — one ulp
    of the full-scale magnitude per path, so the gap between the two is
    bounded by two spacings of the larger output."""
    a, b = lowered.data, fake_quant.data
    full_scale = np.float32(max(np.abs(a).max(), np.abs(b).max()))
    assert np.abs(a - b).max() <= 2 * np.spacing(full_scale)


@pytest.fixture
def activation():
    rng = np.random.default_rng(0)
    return Tensor(rng.standard_normal((2, 2, 6, 6)).astype(np.float32))


@pytest.mark.parametrize("bits", BITWIDTHS)
@pytest.mark.parametrize("pattern_type", PATTERN_TYPES)
class TestExecutorParity:
    def test_conv2d(self, bits, pattern_type, activation):
        pattern = _pattern(pattern_type)
        conv = nn.Conv2d(2, 4, 3, padding=1, rng=np.random.default_rng(1))
        conv.weight.data = conv.weight.data * pattern.mask()[None, None]
        act_bits = max(8, bits)
        executor = QuantizedConv2d.from_float(
            conv, activation_scale(activation.data, act_bits),
            weight_bits=bits, activation_bits=act_bits)
        # The pattern actually prunes im2col columns (skipping is live).
        assert not executor._keep_cols.all()
        lowered = _assert_bit_for_bit(executor, activation)
        _assert_one_rescale_ulp(lowered,
                                executor.fake_quant_reference(activation))

    def test_conv_transpose2d(self, bits, pattern_type, activation):
        pattern = _pattern(pattern_type)
        deconv = nn.ConvTranspose2d(2, 3, 3, stride=2, padding=1,
                                    rng=np.random.default_rng(2))
        deconv.weight.data = deconv.weight.data * pattern.mask()[None, None]
        act_bits = max(8, bits)
        executor = QuantizedConvTranspose2d.from_float(
            deconv, activation_scale(activation.data, act_bits),
            weight_bits=bits, activation_bits=act_bits)
        assert not executor._keep_cols.all()
        lowered = _assert_bit_for_bit(executor, activation)
        _assert_one_rescale_ulp(lowered,
                                executor.fake_quant_reference(activation))

    def test_linear(self, bits, pattern_type, activation):
        pattern = _pattern(pattern_type)
        linear = nn.Linear(18, 5, rng=np.random.default_rng(3))
        feature_mask = np.tile(pattern.mask().reshape(-1), 2)
        linear.weight.data = linear.weight.data * feature_mask[None, :]
        x = Tensor(np.random.default_rng(4)
                   .standard_normal((4, 18)).astype(np.float32))
        act_bits = max(8, bits)
        executor = QuantizedLinear.from_float(
            linear, activation_scale(x.data, act_bits),
            weight_bits=bits, activation_bits=act_bits)
        assert not executor._keep_cols.all()
        lowered = _assert_bit_for_bit(executor, x)
        _assert_one_rescale_ulp(lowered, executor.fake_quant_reference(x))


class TestSkippingExactness:
    """Dropping all-zero columns must not change the accumulation."""

    @pytest.mark.parametrize("bits", BITWIDTHS)
    def test_skipped_conv_equals_unskipped(self, bits, activation):
        conv = nn.Conv2d(2, 4, 3, padding=1, rng=np.random.default_rng(5))
        conv.weight.data = conv.weight.data \
            * _pattern("row").mask()[None, None]
        act_bits = max(8, bits)
        executor = QuantizedConv2d.from_float(
            conv, activation_scale(activation.data, act_bits),
            weight_bits=bits, activation_bits=act_bits)
        skipped = executor(activation)
        executor._keep_cols = np.ones_like(executor._keep_cols)
        executor._compact()     # rebuild packed weights from the mask
        assert executor._kept == executor._keep_cols.size
        dense = executor(activation)
        assert skipped.data.tobytes() == dense.data.tobytes()

    def test_dense_executor_skips_nothing(self, activation):
        conv = nn.Conv2d(2, 4, 3, padding=1, rng=np.random.default_rng(6))
        executor = QuantizedConv2d.from_float(
            conv, activation_scale(activation.data))
        assert executor._keep_cols.all()
