"""Independent int64 oracles for the integer executors.

Each oracle recomputes an executor's output from its public fields by
the plain semantics: integer codes from :func:`quantize_activation`,
patch columns from ``geometry.apply`` (or the col2im scatter for
deconvolution), an int64 accumulation over *every* weight column —
pruned ones included — then ``acc · (s_w · s_x)`` plus bias, rounded
to float32 once.  It shares no gather plan, packed matrix or gemm with
the executor, so byte equality checks the executor's one float64 gemm
path against exact integer arithmetic.  Each oracle also returns the
:class:`LayerTelemetry` counters the executor must report.
"""

import numpy as np

from repro.nn.functional import col2im_plan, im2col_plan
from repro.nn.quantized import (QuantizedConv2d, QuantizedConvTranspose2d,
                                quantize_activation)
from repro.runtime.telemetry import LayerTelemetry


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


def conv_oracle(q, x):
    """``(output, telemetry)`` of a :class:`QuantizedConv2d` on ``x``."""
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


def deconv_oracle(q, x):
    """``(output, telemetry)`` of a :class:`QuantizedConvTranspose2d`."""
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


def linear_oracle(q, x):
    """``(output, telemetry)`` of a :class:`QuantizedLinear`; a leading
    batch axis (``x.ndim > 2``) counts as that many frames."""
    tel = LayerTelemetry()
    codes = quantize_activation(x, q.input_scale, q.activation_bits,
                                telemetry=tel)
    acc = codes.reshape(-1, codes.shape[-1]) @ q.weight_codes.T
    frames = x.shape[0] if x.ndim > 2 else 1
    _record_matmul(tel, q.weight_codes, acc, frames,
                   acc.shape[0] // frames)
    out = _finish(acc, q.weight_scales, q.input_scale, q.bias, (1, -1))
    return out.reshape(x.shape[:-1] + (-1,)), tel


def oracle_output(q, x):
    """The oracle's float32 output for any executor ``q`` on ``x`` (a
    :class:`~repro.nn.Tensor` or array)."""
    data = np.asarray(getattr(x, "data", x))
    if isinstance(q, QuantizedConv2d):
        oracle = conv_oracle
    elif isinstance(q, QuantizedConvTranspose2d):
        oracle = deconv_oracle
    else:
        oracle = linear_oracle
    return oracle(q, data)[0]
