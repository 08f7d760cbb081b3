"""The 2⁵³ accumulator bound is a typed construction-time error.

Every executor runs one float64 gemm, which equals the integer
multiply-accumulate only while each partial sum stays below 2⁵³.
Pinned here:

* each executor built with codes large enough to break that bound
  raises :class:`AccumulatorBoundError` (a ``ValueError``) at
  construction, and so does :func:`lower_executors` for a node whose
  executor cannot be certified;
* every bit-width the lowering accepts (4–16, activations at
  ``max(8, bits)``) constructs without it, on layers far wider than
  any in the repo.
"""

import numpy as np
import pytest

from repro import nn
from repro.ir import CompressionInfo, extract_ir, lowering
from repro.nn.quantized import (AccumulatorBoundError, QuantizedConv2d,
                                QuantizedConvTranspose2d, QuantizedLinear)
from repro.nn.tensor import Tensor

#: Weight codes that break the bound with 8-bit activations once a
#: layer sums more than two of them: 2⁴⁴ · 127 is just below 2⁵¹.
HUGE = 2 ** 44


def _codes(shape):
    return np.full(shape, HUGE, np.int64)


def test_conv_refuses_uncertified_bound():
    assert issubclass(AccumulatorBoundError, ValueError)
    with pytest.raises(AccumulatorBoundError, match="QuantizedConv2d"):
        QuantizedConv2d(_codes((4, 2, 3, 3)), np.ones(4), None, 1, 1,
                        input_scale=1.0, activation_bits=8)


def test_deconv_refuses_uncertified_bound():
    with pytest.raises(AccumulatorBoundError,
                       match="QuantizedConvTranspose2d"):
        QuantizedConvTranspose2d(_codes((2, 4, 3, 3)), np.ones(4), None,
                                 2, 1, input_scale=1.0, activation_bits=8)


def test_linear_refuses_uncertified_bound():
    with pytest.raises(AccumulatorBoundError, match="QuantizedLinear"):
        QuantizedLinear(_codes((4, 64)), np.ones(4), None,
                        input_scale=1.0, activation_bits=8)


def test_bound_counts_only_kept_columns():
    """One live column of huge codes stays certified: zero columns are
    skipped and add nothing to the accumulator."""
    codes = np.zeros((4, 64), np.int64)
    codes[:, 0] = HUGE
    q = QuantizedLinear(codes, np.ones(4), None, input_scale=1.0,
                        activation_bits=8)
    assert q._kept == 1


@pytest.mark.parametrize("bits", range(lowering.MIN_EXECUTOR_BITS,
                                       lowering.MAX_EXECUTOR_BITS + 1))
def test_lowerable_bitwidths_never_raise(bits):
    """Full-scale codes at every lowerable bit-width, on layers with
    thousands of kept columns, stay certified."""
    rng = np.random.default_rng(bits)
    act_bits = lowering._activation_bits(bits)
    layers = ((QuantizedConv2d, nn.Conv2d(256, 2, 3, padding=1, rng=rng)),
              (QuantizedConvTranspose2d,
               nn.ConvTranspose2d(256, 2, 3, stride=2, padding=1, rng=rng)),
              (QuantizedLinear, nn.Linear(4096, 2, rng=rng)))
    for cls, layer in layers:
        q = cls.from_float(layer, 1.0, weight_bits=bits,
                           activation_bits=act_bits)
        max_code = 2 ** (bits - 1) - 1
        assert np.abs(q.weight_codes).max() == max_code


def test_lower_executors_raises_for_uncertified_node(monkeypatch):
    """A node lowered past the bound (32-bit weights and activations,
    admitted here by widening the lowerable range) fails lowering with
    the typed error instead of building an inexact executor."""
    model = nn.Sequential(nn.Conv2d(2, 3, 3, padding=1,
                                    rng=np.random.default_rng(0)))
    x = Tensor(np.random.default_rng(1).standard_normal((1, 2, 5, 5))
               .astype(np.float32))
    ir = extract_ir(model, x)
    (node,) = list(ir)
    node.compression = CompressionInfo(bits=32)
    assert lowering.lower_executors(ir, model) == {}
    monkeypatch.setattr(lowering, "MAX_EXECUTOR_BITS", 32)
    with pytest.raises(AccumulatorBoundError):
        lowering.lower_executors(ir, model)
