"""Quantize-into-buffer executors ≡ the quantize → im2col → gemm oracle.

The executors quantize activations straight into their (padded) work
buffer and rescale the accumulator with a precomputed factor; a 1×1,
stride-1, unpadded kernel with every column kept skips the im2col
gather (conv) or col2im scatter (deconv) altogether.  These tests pin
that against the plain semantics, byte for byte: integer codes from
:func:`quantize_activation`, patch columns from ``geometry.apply`` (or
the col2im scatter for deconvolution), an exact int64 accumulation,
then ``acc · (s_w · s_x)`` plus bias.  Every telemetry counter must
match the oracle's too — MACs, columns, saturation and accumulator
range — including inputs that saturate, pruned weight columns, and the
einsum fallback.
"""

import itertools

import numpy as np
import pytest

from repro import nn
from repro.nn import Tensor
from repro.nn.functional import col2im_plan, im2col_plan
from repro.nn.quantized import (QuantizedConv2d, QuantizedConvTranspose2d,
                                QuantizedLinear, activation_scale,
                                quantize_activation)
from repro.runtime.telemetry import LayerTelemetry

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


def _finish(acc, scales, input_scale, bias, shape):
    out = acc.astype(np.float64) * (scales * input_scale).reshape(shape)
    if bias is not None:
        out = out + bias.reshape(shape)
    else:
        out = out + 0.0
    return out.astype(np.float32)


def _record_matmul(tel, w_mat, acc, frames, positions):
    """The matmul counters of a dense ``w_mat`` whose all-zero columns
    are skipped: ``w_mat.shape[0]`` outputs per kept column and
    position, ``w_mat.shape[1]`` columns per frame."""
    kept = int(np.any(w_mat != 0, axis=0).sum())
    tel.record_matmul(macs=w_mat.shape[0] * kept * frames * positions,
                      columns_total=frames * w_mat.shape[1],
                      columns_skipped=frames * (w_mat.shape[1] - kept),
                      frames=frames)
    tel.record_accumulator(acc.min(), acc.max())


def _conv_oracle(q, x):
    tel = LayerTelemetry()
    n, c, h, w = x.shape
    out_c, _, k, _ = q.weight_codes.shape
    geometry = im2col_plan(c, h, w, k, q.stride, q.padding)
    codes = quantize_activation(x, q.input_scale, q.activation_bits,
                                telemetry=tel)
    cols = geometry.apply(codes)
    w_mat = q.weight_codes.reshape(out_c, -1)
    acc = np.einsum("ok,nkp->nop", w_mat, cols)
    _record_matmul(tel, w_mat, acc, n, geometry.positions)
    acc = acc.reshape(n, out_c, geometry.out_h, geometry.out_w)
    return _finish(acc, q.weight_scales, q.input_scale, q.bias,
                   (1, -1, 1, 1)), tel


def _deconv_oracle(q, x):
    tel = LayerTelemetry()
    n, c, h, w = x.shape
    in_c, out_c, k, _ = q.weight_codes.shape
    codes = quantize_activation(x, q.input_scale, q.activation_bits,
                                telemetry=tel)
    w_mat = q.weight_codes.reshape(in_c, -1)
    cols = np.einsum("ko,nkp->nop", w_mat, codes.reshape(n, in_c, h * w))
    out_h = (h - 1) * q.stride - 2 * q.padding + k
    out_w = (w - 1) * q.stride - 2 * q.padding + k
    acc = col2im_plan(out_c, out_h, out_w, k, q.stride,
                      q.padding).apply(cols)
    _record_matmul(tel, w_mat, acc, n, h * w)
    return _finish(acc, q.weight_scales, q.input_scale, q.bias,
                   (1, -1, 1, 1)), tel


def _linear_oracle(q, x):
    tel = LayerTelemetry()
    codes = quantize_activation(x, q.input_scale, q.activation_bits,
                                telemetry=tel)
    acc = codes.reshape(-1, codes.shape[-1]) @ q.weight_codes.T
    frames = x.shape[0] if x.ndim > 2 else 1
    _record_matmul(tel, q.weight_codes, acc, frames,
                   acc.shape[0] // frames)
    out = _finish(acc, q.weight_scales, q.input_scale, q.bias, (1, -1))
    return out.reshape(x.shape[:-1] + (-1,)), tel


def _prune(weight, axis_in):
    """Zero one input channel's kernel corner in every filter, so the
    executor skips that im2col / scatter column."""
    index = [slice(None)] * 4
    index[axis_in] = 0
    index[2] = index[3] = 0
    weight[tuple(index)] = 0.0


def _check(q, x, oracle):
    expected, expected_tel = oracle(q, x)
    for run in (q.forward, q.reference):
        telemetry = LayerTelemetry()
        got = run(Tensor(x), telemetry=telemetry).data
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
    tel = _check(q, x, _conv_oracle)
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
    tel = _check(q, x, _deconv_oracle)
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
    _check(q, x, _linear_oracle)


@pytest.mark.parametrize("padding,stride,batch,kernel,prune",
                         _with_kernels([(0, 1, 3), (1, 2, 1), (2, 1, 3)]))
def test_einsum_fallback_matches_oracle(padding, stride, batch, kernel,
                                        prune):
    x = _input(batch, (3, 7, 6), seed=99)
    conv = QuantizedConv2d.from_float(
        _conv(padding, stride, 8, bias=False, kernel=kernel, prune=prune),
        _saturating_scale(x, 8))
    deconv = QuantizedConvTranspose2d.from_float(
        _deconv(padding, stride, 8, kernel=kernel, prune=prune),
        _saturating_scale(x, 8))
    linear = QuantizedLinear.from_float(
        nn.Linear(6, 4, rng=np.random.default_rng(5)),
        _saturating_scale(x, 8))
    for q in (conv, deconv, linear):
        q._use_gemm = False
    _check(conv, x, _conv_oracle)
    _check(deconv, x, _deconv_oracle)
    _check(linear, x, _linear_oracle)


def test_quantize_activation_codes_and_counts():
    x = np.array([[-9.0, -0.26, 0.0, 0.25, 0.74, 9.0]], np.float32)
    tel = LayerTelemetry()
    codes = quantize_activation(x, 0.5, bits=4, telemetry=tel)
    assert codes.dtype == np.int64
    np.testing.assert_array_equal(codes, [[-7, -1, 0, 0, 1, 7]])
    assert (tel.activations_total, tel.activations_saturated) == (6, 2)
