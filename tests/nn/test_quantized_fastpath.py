"""Quantize-into-buffer executors ≡ the quantize → im2col → gemm oracle.

The executors quantize activations straight into their (padded) work
buffer and rescale the accumulator with a precomputed factor; a 1×1,
stride-1, unpadded kernel with every column kept skips the im2col
gather (conv) or col2im scatter (deconv) altogether.  These tests pin
that against the plain semantics of :mod:`tests.nn.quantized_oracle`,
byte for byte: integer codes from :func:`quantize_activation`, patch
columns from ``geometry.apply`` (or the col2im scatter for
deconvolution), an exact int64 accumulation, then ``acc · (s_w · s_x)``
plus bias.  Every telemetry counter must match the oracle's too — MACs,
columns, saturation and accumulator range — including inputs that
saturate and pruned weight columns.
"""

import itertools

import numpy as np
import pytest

from repro import nn
from repro.nn import Tensor
from repro.nn.quantized import (QuantizedConv2d, QuantizedConvTranspose2d,
                                QuantizedLinear, activation_scale,
                                quantize_activation)
from repro.runtime.telemetry import LayerTelemetry
from tests.nn.quantized_oracle import (conv_oracle, deconv_oracle,
                                       linear_oracle)

CONFIGS = list(itertools.product((0, 1, 2), (1, 2), (1, 3), (4, 8, 16)))


def _with_kernels(configs):
    """Each config with a 3×3 kernel missing one pruned corner column,
    and with a 1×1 kernel whose columns are all kept (the gather-free
    path at stride 1, padding 0) or lose one whole channel (the gather
    path).  Params are ``(*config, kernel, prune)``."""
    cases = []
    for config in configs:
        name = "-".join(map(str, config))
        cases += [pytest.param(*config, 3, True, id=name),
                  pytest.param(*config, 1, False, id=name + "-1x1"),
                  pytest.param(*config, 1, True, id=name + "-1x1-pruned")]
    return cases


def _input(batch, shape, seed):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((batch,) + shape) * 2).astype(np.float32)


def _saturating_scale(x, bits):
    # Calibrate on half the range: the larger half of |x| saturates.
    return activation_scale(x * 0.5, bits)


def _prune(weight, axis_in):
    """Zero one input channel's kernel corner in every filter, so the
    executor skips that im2col / scatter column."""
    index = [slice(None)] * 4
    index[axis_in] = 0
    index[2] = index[3] = 0
    weight[tuple(index)] = 0.0


def _check(q, x, oracle):
    expected, expected_tel = oracle(q, x)
    telemetry = LayerTelemetry()
    got = q.forward(Tensor(x), telemetry=telemetry).data
    assert got.dtype == np.float32 and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()
    assert telemetry == expected_tel
    return expected_tel


def _conv(padding, stride, bits, bias=True, kernel=3, prune=True):
    layer = nn.Conv2d(3, 5, kernel, stride=stride, padding=padding,
                      bias=bias, rng=np.random.default_rng(bits + padding))
    if prune:
        _prune(layer.weight.data, 1)
    return layer


def _deconv(padding, stride, bits, kernel=3, prune=True):
    layer = nn.ConvTranspose2d(3, 4, kernel, stride=stride,
                               padding=padding,
                               rng=np.random.default_rng(bits + stride))
    if prune:
        _prune(layer.weight.data, 1)
    return layer


def _gather_free(kernel, prune, padding, stride):
    return (kernel, prune, padding, stride) == (1, False, 0, 1)


@pytest.mark.parametrize("padding,stride,batch,bits,kernel,prune",
                         _with_kernels(CONFIGS))
def test_conv_matches_oracle(padding, stride, batch, bits, kernel, prune):
    x = _input(batch, (3, 7, 6), seed=padding * 10 + stride)
    q = QuantizedConv2d.from_float(
        _conv(padding, stride, bits, kernel=kernel, prune=prune),
        _saturating_scale(x, bits), weight_bits=bits, activation_bits=bits)
    assert q._keep_cols.all() != prune
    tel = _check(q, x, conv_oracle)
    assert tel.activations_saturated > 0
    idx, _ = q._shape_plan(3, 7, 6)
    assert (idx is None) == _gather_free(kernel, prune, padding, stride)


@pytest.mark.parametrize("padding,stride,batch,bits,kernel,prune",
                         _with_kernels(CONFIGS))
def test_deconv_matches_oracle(padding, stride, batch, bits, kernel,
                               prune):
    x = _input(batch, (3, 5, 6), seed=padding * 10 + stride + 1)
    q = QuantizedConvTranspose2d.from_float(
        _deconv(padding, stride, bits, kernel=kernel, prune=prune),
        _saturating_scale(x, bits), weight_bits=bits, activation_bits=bits)
    assert q._keep_cols.all() != prune
    tel = _check(q, x, deconv_oracle)
    assert tel.activations_saturated > 0
    plan = q._shape_plan(5, 6)
    assert (plan is None) == _gather_free(kernel, prune, padding, stride)


@pytest.mark.parametrize("batch,bits", [(1, 4), (3, 8), (3, 16)])
def test_linear_matches_oracle(batch, bits):
    x = _input(batch, (4, 9), seed=bits)
    layer = nn.Linear(9, 6, rng=np.random.default_rng(bits))
    layer.weight.data[:, 2] = 0.0
    q = QuantizedLinear.from_float(layer, _saturating_scale(x, bits),
                                   weight_bits=bits, activation_bits=bits)
    _check(q, x, linear_oracle)


def test_quantize_activation_codes_and_counts():
    x = np.array([[-9.0, -0.26, 0.0, 0.25, 0.74, 9.0]], np.float32)
    tel = LayerTelemetry()
    codes = quantize_activation(x, 0.5, bits=4, telemetry=tel)
    assert codes.dtype == np.int64
    np.testing.assert_array_equal(codes, [[-7, -1, 0, 0, 1, 7]])
    assert (tel.activations_total, tel.activations_saturated) == (6, 2)


def _negative_zero_sums(gemm):
    """``gemm`` as a BLAS build that seeds its accumulator with the
    first product would run it: every zero sum comes out ``-0.0``."""
    def run(w, cols):
        acc = gemm(w, cols)
        acc[acc == 0] = -0.0
        return acc
    return run


@pytest.mark.parametrize("signed_gemm", [False, True],
                         ids=["host-blas", "negative-zero-blas"])
def test_zero_input_emits_no_negative_zero(monkeypatch, signed_gemm):
    """Bias-free layers with all-negative weights over an all-zero input:
    every product is ``-0.0``, and whether their sum is ``-0.0`` depends
    on how the BLAS build seeds its accumulator.  The epilogue's sign
    canonicalization must emit ``+0.0`` everywhere regardless."""
    from repro.nn import quantized
    if signed_gemm:
        monkeypatch.setattr(quantized, "_batched_gemm",
                            _negative_zero_sums(quantized._batched_gemm))
    rng = np.random.default_rng(3)
    conv = nn.Conv2d(3, 5, 3, padding=1, bias=False, rng=rng)
    deconv = nn.ConvTranspose2d(3, 4, 3, stride=2, padding=1, bias=False,
                                rng=rng)
    linear = nn.Linear(6, 4, bias=False, rng=rng)
    for layer in (conv, deconv, linear):
        layer.weight.data = -np.abs(layer.weight.data) - 0.01
    cases = ((QuantizedConv2d, conv, (2, 3, 5, 6)),
             (QuantizedConvTranspose2d, deconv, (2, 3, 5, 6)),
             (QuantizedLinear, linear, (2, 4, 6)))
    for cls, layer, shape in cases:
        x = np.zeros(shape, np.float32)
        q = cls.from_float(layer, activation_scale(x))
        out = q.forward(Tensor(x)).data
        assert out.size and (out == 0).all()
        assert not np.signbit(out).any(), cls.__name__
