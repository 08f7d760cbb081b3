"""Integer-arithmetic inference for quantized layers.

Fake quantization (the training-side view used everywhere else in the
repo) keeps weights as floats that happen to lie on an integer grid.
Deployment engines instead run the *integer* arithmetic directly:
``y = (W_q @ x_q) · s_w · s_x``.  This module implements that path for
every kernel layer the IR knows — :class:`QuantizedConv2d`,
:class:`QuantizedConvTranspose2d`, :class:`QuantizedLinear` — so the
runtime can execute a compressed model on real integer MACs
(Jacob et al., the paper's [35]).

Two guarantees make the executors testable:

* **Pattern-aware skipping is exact.**  Pruned kernel positions are
  zero *codes*; im2col columns (conv), scatter columns (deconv) and
  input features (linear) whose weights are all-zero are skipped before
  the integer matmul, and skipping a zero integer column cannot change
  an integer accumulation.
* **The float64 gemm is the exact integer accumulation.**  Each
  executor has one accumulation path: integer codes in a float64 work
  buffer, one float64 BLAS gemm, then the rescale epilogue.  Lowering
  only builds executors whose a-priori accumulator bound certifies
  every partial sum below 2⁵³, where float64 integer arithmetic is
  exact, so the gemm returns the int64 multiply-accumulate a
  deployment engine's INT8 MACs would, whatever its summation order.
  Construction raises :class:`AccumulatorBoundError` otherwise (no
  4–16-bit configuration this repo lowers comes near the bound).  The
  runtime's ``execution="lowered"`` and ``execution="reference"``
  both run this one path.

Every executor call takes an opt-in ``telemetry`` counter (a
:class:`repro.runtime.telemetry.LayerTelemetry`, keyword-only, per
call); when given, the shared ``_accumulate`` core counts executed
MACs, skipped vs. total columns, activation saturation, and the
accumulator extrema.  Counters only observe values the path already
computes, so passing one cannot perturb either guarantee (see
``docs/OBSERVABILITY.md``).  Executors hold no per-run state, so any
number of threads may call one executor at once.

Batching and compile-once packing (see ``docs/PERFORMANCE.md``):

* Every executor accepts a leading batch dimension and runs the whole
  micro-batch through **one** matmul.  Because the accumulation is
  exact, the batched result is *byte-identical* to stacking the
  per-frame results — summation blocking cannot change an exact sum.
* The pruned weight matrix is **compacted once** at construction
  (:meth:`_compact`): ``weight_codes`` reduced to the ``_keep_cols``
  columns, instead of boolean-masked on every forward.
* The im2col / scatter geometry comes from the shape-keyed plan cache
  in :mod:`repro.nn.functional`, restricted to the kept columns and
  memoized per input shape on the executor (one module-level lock
  guards every memo, so executors hold no lock and pickle as-is).
* Activations are quantized **once, straight into the work buffer**
  (:func:`_quantize_into`): the conv path writes the codes into the
  interior of a per-call padded float64 buffer and gathers its im2col
  columns from it — no ``np.pad`` copy and no int64 → float64 round
  trip.  Only a padded buffer is zero-filled; an unpadded one is
  overwritten whole.  The buffer is allocated per call, never shared
  per plan, so concurrent serving threads cannot race on it.
* **Pointwise layers skip the identity gather.**  For a 1×1, stride-1,
  unpadded conv with every column kept, the work buffer already *is*
  the ``(n, c, h·w)`` column matrix, so the memoized shape plan holds
  no gather indices and the gemm reads the buffer directly; the same
  deconvolution skips its identity col2im scatter.  Telemetry counts
  are those of the general path.
* The epilogue multiplies the accumulator by a rescale precomputed in
  :meth:`_compact` with ``np.multiply(..., dtype=float64)`` — the same
  elementwise product as before, without a cast copy — and adds the
  bias in place.
"""

from __future__ import annotations

import threading

import numpy as np

from .functional import col2im_plan, im2col_plan
from .layers import Conv2d, ConvTranspose2d, Linear
from .module import Module
from .tensor import Tensor

__all__ = ["QuantizedConv2d", "QuantizedConvTranspose2d", "QuantizedLinear",
           "AccumulatorBoundError", "activation_scale",
           "quantize_activation"]

#: Accumulator magnitude below which float64 integer arithmetic is exact
#: (kept equal to ``2 ** repro.runtime.telemetry.ACC_EXACT_BITS``; not
#: imported to keep :mod:`repro.nn` free of runtime dependencies).
_EXACT_ACC_LIMIT = 2 ** 53

#: Per-executor cap on memoized input-shape plans.
_MAX_SHAPE_PLANS = 16

#: Memo miss marker: a plan may legitimately be ``None`` (identity).
_MISSING = object()

#: Guards every get / evict / insert on every executor's plan memo.  The
#: critical sections are dict operations only, so one lock shared by
#: all executors costs nothing measurable and keeps executors free of
#: unpicklable state.
_PLANS_LOCK = threading.Lock()


class AccumulatorBoundError(ValueError):
    """An executor's accumulator bound is not certified below 2⁵³.

    Past that bound a float64 gemm may round a partial sum, so it is no
    longer the exact integer accumulation the executor promises; the
    executor refuses to be built instead of running inexactly.
    """


def _certify_exact(executor, terms: int) -> None:
    """Raise :class:`AccumulatorBoundError` unless the float64 gemm of
    ``executor`` is exact.

    ``terms`` is the most products one output accumulator sums (kept
    columns for conv and linear, ``k²·in_c`` scatter contributors for
    deconv), so ``|acc| <= terms · max|w| · max|x|``; below 2⁵³ every
    partial sum is an exactly-representable float64 integer.
    """
    codes = executor.weight_codes
    max_w = int(np.abs(codes).max()) if codes.size else 0
    bound = terms * max_w * (2 ** (executor.activation_bits - 1) - 1)
    if bound >= _EXACT_ACC_LIMIT:
        raise AccumulatorBoundError(
            f"{type(executor).__name__}: accumulator bound {bound} "
            f"({terms} terms x |w| <= {max_w} x "
            f"{executor.activation_bits}-bit activations) is not below "
            f"2**53; the float64 gemm would not be exact")


def _memoized_plan(plans: dict, key, build):
    """Thread-safe get-or-build on an executor's bounded plan memo.

    The forward path is documented concurrency-safe (concurrent
    serving streams share one compiled program — see
    ``docs/SERVING.md``), so every get / FIFO-evict / insert on the
    per-executor ``_plans`` dict happens under :data:`_PLANS_LOCK`.
    ``build`` runs *outside* the lock (plan construction gathers large
    index arrays); when two threads race on a cold key, the first
    insert wins and both return the same entry, keeping every caller
    consistent.
    """
    with _PLANS_LOCK:
        entry = plans.get(key, _MISSING)
    if entry is not _MISSING:
        return entry
    built = build()
    with _PLANS_LOCK:
        entry = plans.get(key, _MISSING)
        if entry is _MISSING:
            while len(plans) >= _MAX_SHAPE_PLANS:
                plans.pop(next(iter(plans)))
            plans[key] = built
            entry = built
    return entry


def _batched_gemm(w: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``(o, k) @ (n, k, p) -> (n, o, p)`` as one broadcast BLAS gemm.

    ``matmul`` broadcasts the stacked operand without materializing a
    rearranged copy of ``cols``, which is what makes the batched path
    cheaper than ``n`` separate calls.  The accumulation is certified
    exact at construction, so any summation order or blocking yields
    the identical integer result.
    """
    if cols.shape[0] == 1:
        return np.matmul(w, cols[0])[None]
    return np.matmul(w, cols)


def activation_scale(x: np.ndarray, bits: int = 8) -> float:
    """Symmetric max-calibrated scale for an activation tensor."""
    max_code = 2 ** (bits - 1) - 1
    alpha = float(np.abs(x).max())
    return alpha / max_code if alpha > 0 else 1.0


def _quantize_into(x: np.ndarray, scale: float, bits: int,
                   out: np.ndarray, telemetry=None) -> np.ndarray:
    """Write the integer codes of ``x`` at ``scale`` into ``out``.

    ``out`` is any array (or view) of ``x``'s shape; the codes are
    small integers, so writing them into the executors' float64 work
    buffer equals writing int64 codes and casting.
    ``telemetry`` (a :class:`repro.runtime.telemetry.LayerTelemetry`)
    optionally counts how many values saturate — round outside
    ``[-max_code, max_code]`` and get clipped, i.e. fall outside the
    calibrated range.  Counting never changes the codes.
    """
    max_code = 2 ** (bits - 1) - 1
    rounded = np.round(x / scale)
    if telemetry is not None:
        telemetry.record_quantization(
            rounded.size, int((np.abs(rounded) > max_code).sum()))
    np.clip(rounded, -max_code, max_code, out=rounded)
    out[...] = rounded
    return out


def quantize_activation(x: np.ndarray, scale: float,
                        bits: int = 8, telemetry=None) -> np.ndarray:
    """Activation → int64 integer codes at a fixed scale (see
    :func:`_quantize_into` for the saturation ``telemetry``)."""
    x = np.asarray(x)
    return _quantize_into(x, scale, bits, np.empty(x.shape, np.int64),
                          telemetry)


def _per_channel_codes(flat: np.ndarray, bits: int):
    """Quantize (channels, k) rows to integer codes + per-row scales."""
    max_code = 2 ** (bits - 1) - 1
    alphas = np.abs(flat).max(axis=1)
    scales = np.where(alphas > 0, alphas / max_code, 1.0)
    codes = np.clip(np.round(flat / scales[:, None]), -max_code, max_code)
    return codes.astype(np.int64), scales.astype(np.float64)


def _as_array(x) -> np.ndarray:
    return x.data if isinstance(x, Tensor) else np.asarray(x)


class QuantizedConv2d(Module):
    """A convolution executed in integer arithmetic.

    Weights are stored as int64 codes with one scale per output filter
    (per-channel quantization, the deployment-standard granularity);
    activations are quantized on entry with a calibration scale.
    Pattern-pruned weight columns are skipped in im2col.
    """

    def __init__(self, weight_codes: np.ndarray, weight_scales: np.ndarray,
                 bias: np.ndarray | None, stride: int, padding: int,
                 input_scale: float, activation_bits: int = 8):
        super().__init__()
        self.weight_codes = weight_codes.astype(np.int64)
        self.weight_scales = weight_scales.astype(np.float64)
        self.bias = None if bias is None else bias.astype(np.float64)
        self.stride = stride
        self.padding = padding
        self.input_scale = float(input_scale)
        self.activation_bits = activation_bits
        # Columns of the (out_c, in_c·k·k) weight matrix where *every*
        # filter is zero — the positions pattern pruning blanked in all
        # kernels of an input channel.  Skipped exactly (zero columns
        # contribute nothing to an integer accumulation).
        w_mat = self.weight_codes.reshape(self.weight_codes.shape[0], -1)
        self._keep_cols = np.any(w_mat != 0, axis=0)
        self._compact()

    def _compact(self) -> None:
        """(Re)build the packed execution structures from ``_keep_cols``.

        Call after mutating ``_keep_cols``; also clears the per-shape
        plan cache, whose gather indices embed the kept columns.
        """
        out_c = self.weight_codes.shape[0]
        w_mat = self.weight_codes.reshape(out_c, -1)
        self._kept = int(self._keep_cols.sum())
        _certify_exact(self, self._kept)
        self._w_kept = np.ascontiguousarray(w_mat[:, self._keep_cols],
                                            np.float64)
        self._rescale = self.weight_scales[None, :, None] * self.input_scale
        # (Re)compaction is a single-threaded construction-time step.
        self._plans: dict = {}

    def _shape_plan(self, c: int, h: int, w: int):
        """Kept-column gather indices + geometry for one input shape.

        The indices are ``None`` when the gather is the identity — a
        1×1, stride-1, unpadded kernel with every column kept, whose
        work buffer already *is* the ``(n, c, h·w)`` column matrix.
        """

        def build():
            kernel = self.weight_codes.shape[-1]
            geometry = im2col_plan(c, h, w, kernel, self.stride,
                                   self.padding)
            if not self._keep_cols.all():
                idx = geometry.indices[self._keep_cols].ravel()
            elif (kernel, self.stride, self.padding) == (1, 1, 0):
                idx = None
            else:
                idx = geometry.indices.ravel()
            return (idx, geometry)

        return _memoized_plan(self._plans, (c, h, w), build)

    @staticmethod
    def from_float(conv: Conv2d, input_scale: float,
                   weight_bits: int = 8,
                   activation_bits: int = 8) -> "QuantizedConv2d":
        """Quantize a float convolution with per-filter weight scales."""
        weights = conv.weight.data.astype(np.float64)
        out_c = weights.shape[0]
        codes, scales = _per_channel_codes(weights.reshape(out_c, -1),
                                           weight_bits)
        bias = None if conv.bias is None else conv.bias.data
        return QuantizedConv2d(codes.reshape(weights.shape), scales, bias,
                               conv.stride, conv.padding, input_scale,
                               activation_bits)

    def _accumulate(self, data: np.ndarray, telemetry=None) -> np.ndarray:
        """Quantize into the padded buffer → gather kept columns → one
        float64 gemm, the exact integer accumulation (certified in
        :meth:`_compact`).

        The whole micro-batch (leading ``n``) runs as one matmul, which
        is byte-identical to ``n`` single-frame calls because exact
        sums are blocking-independent.
        """
        n, c, h, w = data.shape
        out_c = self.weight_codes.shape[0]
        idx, geometry = self._shape_plan(c, h, w)
        p = self.padding
        # Per-call buffer: executors are shared by serving threads.  An
        # unpadded buffer is overwritten whole, so it needs no zeroing.
        padded = (np.zeros if p else np.empty)(
            (n, c, h + 2 * p, w + 2 * p), np.float64)
        _quantize_into(data, self.input_scale, self.activation_bits,
                       padded[:, :, p:p + h, p:p + w], telemetry)
        if idx is None:
            cols = padded.reshape(n, c, h * w)
        else:
            cols = padded.reshape(n, -1).take(idx, axis=1) \
                .reshape(n, self._kept, geometry.positions)
        acc = _batched_gemm(self._w_kept, cols)
        if telemetry is not None:
            keep = self._keep_cols
            telemetry.record_matmul(
                macs=out_c * self._kept * n * geometry.positions,
                columns_total=n * keep.size,
                columns_skipped=n * (keep.size - self._kept),
                frames=n)
            if acc.size:
                telemetry.record_accumulator(acc.min(), acc.max())
        return acc

    def _finish(self, acc: np.ndarray, input_shape: tuple) -> Tensor:
        n, _, h, w = input_shape
        out_c = self.weight_codes.shape[0]
        kernel = self.weight_codes.shape[-1]
        out_h = (h + 2 * self.padding - kernel) // self.stride + 1
        out_w = (w + 2 * self.padding - kernel) // self.stride + 1
        out = np.multiply(acc, self._rescale, dtype=np.float64)
        out = out.reshape(n, out_c, out_h, out_w)
        if self.bias is not None:
            out += self.bias.reshape(1, -1, 1, 1)
        else:
            # Canonicalize zero signs: over a zero input, negative
            # weights give -0.0 products, and whether their sum is -0.0
            # or +0.0 depends on how the BLAS build seeds its
            # accumulator.  Adding 0.0 maps -0.0 to +0.0 and is the
            # identity elsewhere, so output bytes do not depend on it.
            out += 0.0
        return Tensor(out.astype(np.float32))

    def forward(self, x: Tensor, *, telemetry=None) -> Tensor:
        data = _as_array(x)
        # The integer core: exact accumulation of the codes, exactly as
        # a deployment engine's INT8 MACs with a 32/64-bit accumulator.
        return self._finish(self._accumulate(data, telemetry), data.shape)

    def fake_quant_reference(self, x: Tensor) -> Tensor:
        """The float32 training-side view: dequantized weights convolved
        with the quantized input by the normal float pipeline.

        Used by tests to assert integer execution ≈ fake quantization
        (within float32 rounding of the rescale — one ulp per output).
        """
        weights = (self.weight_codes.reshape(len(self.weight_scales), -1)
                   * self.weight_scales[:, None]) \
            .reshape(self.weight_codes.shape)
        data = _as_array(x)
        x_deq = quantize_activation(data, self.input_scale,
                                    self.activation_bits) \
            * self.input_scale
        from . import functional as F
        out = F.conv2d(Tensor(x_deq.astype(np.float32)),
                       Tensor(weights.astype(np.float32)),
                       None if self.bias is None
                       else Tensor(self.bias.astype(np.float32)),
                       stride=self.stride, padding=self.padding)
        return out


class QuantizedConvTranspose2d(Module):
    """A transposed convolution executed in integer arithmetic.

    Weight layout is IOHW (matching :class:`ConvTranspose2d`); scales
    are per *output* channel, so the rescale is applied after the
    col2im scatter-add, which never mixes output channels.
    """

    def __init__(self, weight_codes: np.ndarray, weight_scales: np.ndarray,
                 bias: np.ndarray | None, stride: int, padding: int,
                 input_scale: float, activation_bits: int = 8):
        super().__init__()
        self.weight_codes = weight_codes.astype(np.int64)
        self.weight_scales = weight_scales.astype(np.float64)
        self.bias = None if bias is None else bias.astype(np.float64)
        self.stride = stride
        self.padding = padding
        self.input_scale = float(input_scale)
        self.activation_bits = activation_bits
        in_c = self.weight_codes.shape[0]
        w_mat = self.weight_codes.reshape(in_c, -1)
        # Scatter columns (out-channel, ki, kj) that no input channel
        # writes to — all-zero weights, skipped exactly.
        self._keep_cols = np.any(w_mat != 0, axis=0)
        self._compact()

    def _compact(self) -> None:
        """(Re)build the packed execution structures from ``_keep_cols``."""
        in_c, _, kernel, _ = self.weight_codes.shape
        w_mat = self.weight_codes.reshape(in_c, -1)
        # Each scatter-added output cell sums at most k·k contributors,
        # each an in_c-length dot.
        _certify_exact(self, kernel * kernel * in_c)
        # (kept, in_c): rows are the kept scatter columns, ready for the
        # (kept, in_c) @ (n, in_c, h·w) gemm.
        self._w_keptT = np.ascontiguousarray(w_mat[:, self._keep_cols].T,
                                             np.float64)
        self._rescale = \
            self.weight_scales[None, :, None, None] * self.input_scale
        self._kept = int(self._keep_cols.sum())
        self._plans: dict = {}

    def _shape_plan(self, h: int, w: int):
        """The kept-column scatter plan for one input spatial shape, or
        ``None`` when the scatter is the identity (1×1, stride 1,
        unpadded, every column kept): the gemm output then already is
        the ``(n, out_c, h, w)`` accumulator."""

        def build():
            _, out_c, kernel, _ = self.weight_codes.shape
            if (kernel, self.stride, self.padding) == (1, 1, 0) \
                    and self._keep_cols.all():
                return None
            out_h = (h - 1) * self.stride - 2 * self.padding + kernel
            out_w = (w - 1) * self.stride - 2 * self.padding + kernel
            return col2im_plan(out_c, out_h, out_w, kernel, self.stride,
                               self.padding).restrict(self._keep_cols)

        return _memoized_plan(self._plans, (h, w), build)

    @staticmethod
    def from_float(deconv: ConvTranspose2d, input_scale: float,
                   weight_bits: int = 8,
                   activation_bits: int = 8) -> "QuantizedConvTranspose2d":
        """Quantize a float deconvolution with per-out-channel scales."""
        weights = deconv.weight.data.astype(np.float64)     # (in, out, k, k)
        out_c = weights.shape[1]
        per_out = weights.transpose(1, 0, 2, 3).reshape(out_c, -1)
        codes_t, scales = _per_channel_codes(per_out, weight_bits)
        codes = codes_t.reshape(out_c, weights.shape[0],
                                *weights.shape[2:]).transpose(1, 0, 2, 3)
        bias = None if deconv.bias is None else deconv.bias.data
        return QuantizedConvTranspose2d(codes, scales, bias, deconv.stride,
                                        deconv.padding, input_scale,
                                        activation_bits)

    def _accumulate(self, data: np.ndarray, telemetry=None) -> np.ndarray:
        n, c, h, w = data.shape
        in_c = self.weight_codes.shape[0]
        x_codes = _quantize_into(data, self.input_scale,
                                 self.activation_bits,
                                 np.empty(data.shape, np.float64), telemetry)
        cols = _batched_gemm(self._w_keptT, x_codes.reshape(n, in_c, h * w))
        plan = self._shape_plan(h, w)
        acc = cols.reshape(n, -1, h, w) if plan is None \
            else plan.apply(cols)
        if telemetry is not None:
            keep = self._keep_cols
            telemetry.record_matmul(
                macs=in_c * self._kept * n * h * w,
                columns_total=n * keep.size,
                columns_skipped=n * (keep.size - self._kept),
                frames=n)
            if acc.size:
                # Range of the *scatter-added* accumulator — the value
                # the 2^53 exactness bound must cover.
                telemetry.record_accumulator(acc.min(), acc.max())
        return acc

    def _finish(self, acc: np.ndarray) -> Tensor:
        out = np.multiply(acc, self._rescale, dtype=np.float64)
        if self.bias is not None:
            out += self.bias.reshape(1, -1, 1, 1)
        else:
            # Canonicalize zero signs (see QuantizedConv2d._finish).
            out += 0.0
        return Tensor(out.astype(np.float32))

    def forward(self, x: Tensor, *, telemetry=None) -> Tensor:
        return self._finish(self._accumulate(_as_array(x), telemetry))

    def fake_quant_reference(self, x: Tensor) -> Tensor:
        """Float32 view via the normal deconvolution pipeline."""
        out_c = self.weight_codes.shape[1]
        weights = (self.weight_codes.transpose(1, 0, 2, 3)
                   .reshape(out_c, -1) * self.weight_scales[:, None]) \
            .reshape(out_c, self.weight_codes.shape[0],
                     *self.weight_codes.shape[2:]).transpose(1, 0, 2, 3)
        data = _as_array(x)
        x_deq = quantize_activation(data, self.input_scale,
                                    self.activation_bits) \
            * self.input_scale
        from . import functional as F
        out = F.conv_transpose2d(Tensor(x_deq.astype(np.float32)),
                                 Tensor(weights.astype(np.float32)),
                                 None if self.bias is None
                                 else Tensor(self.bias.astype(np.float32)),
                                 stride=self.stride, padding=self.padding)
        return out


class QuantizedLinear(Module):
    """An affine layer executed in integer arithmetic.

    Weight layout is (out, in) with per-output-row scales.  Input
    features whose weight column is entirely zero (pruned in every
    output row) are skipped before the integer matmul.
    """

    def __init__(self, weight_codes: np.ndarray, weight_scales: np.ndarray,
                 bias: np.ndarray | None, input_scale: float,
                 activation_bits: int = 8):
        super().__init__()
        self.weight_codes = weight_codes.astype(np.int64)
        self.weight_scales = weight_scales.astype(np.float64)
        self.bias = None if bias is None else bias.astype(np.float64)
        self.input_scale = float(input_scale)
        self.activation_bits = activation_bits
        self._keep_cols = np.any(self.weight_codes != 0, axis=0)
        self._compact()

    def _compact(self) -> None:
        """(Re)build the packed execution structures from ``_keep_cols``."""
        self._keep_idx = np.flatnonzero(self._keep_cols)
        self._kept = int(self._keep_idx.size)
        _certify_exact(self, self._kept)
        self._w_kept = np.ascontiguousarray(
            self.weight_codes[:, self._keep_cols], np.float64)
        self._rescale = self.weight_scales[None, :] * self.input_scale

    @staticmethod
    def from_float(linear: Linear, input_scale: float,
                   weight_bits: int = 8,
                   activation_bits: int = 8) -> "QuantizedLinear":
        """Quantize a float affine layer with per-row weight scales."""
        weights = linear.weight.data.astype(np.float64)
        codes, scales = _per_channel_codes(weights, weight_bits)
        bias = None if linear.bias is None else linear.bias.data
        return QuantizedLinear(codes, scales, bias, input_scale,
                               activation_bits)

    def _accumulate(self, data: np.ndarray, telemetry=None) -> np.ndarray:
        in_features = self.weight_codes.shape[1]
        out_features = self.weight_codes.shape[0]
        x_codes = _quantize_into(data, self.input_scale,
                                 self.activation_bits,
                                 np.empty(data.shape, np.float64), telemetry)
        # A leading batch dimension (ndim > 2) folds into the row axis:
        # one gemm covers the whole micro-batch.
        frames = data.shape[0] if data.ndim > 2 else 1
        x_mat = x_codes.reshape(-1, in_features)
        if self._kept != in_features:
            x_mat = x_mat.take(self._keep_idx, axis=1)
        acc = x_mat @ self._w_kept.T
        if telemetry is not None:
            keep = self._keep_cols
            telemetry.record_matmul(
                macs=x_mat.shape[0] * self._kept * out_features,
                columns_total=frames * keep.size,
                columns_skipped=frames * (keep.size - self._kept),
                frames=frames)
            if acc.size:
                telemetry.record_accumulator(acc.min(), acc.max())
        return acc

    def _finish(self, acc: np.ndarray, input_shape: tuple) -> Tensor:
        out = np.multiply(acc, self._rescale, dtype=np.float64)
        if self.bias is not None:
            out += self.bias[None, :]
        else:
            # Canonicalize zero signs (see QuantizedConv2d._finish).
            out += 0.0
        out_shape = input_shape[:-1] + (self.weight_codes.shape[0],)
        return Tensor(out.reshape(out_shape).astype(np.float32))

    def forward(self, x: Tensor, *, telemetry=None) -> Tensor:
        data = _as_array(x)
        return self._finish(self._accumulate(data, telemetry), data.shape)

    def fake_quant_reference(self, x: Tensor) -> Tensor:
        """Float32 view via the normal affine pipeline."""
        weights = self.weight_codes * self.weight_scales[:, None]
        data = _as_array(x)
        x_deq = quantize_activation(data, self.input_scale,
                                    self.activation_bits) \
            * self.input_scale
        from . import functional as F
        out = F.linear(Tensor(x_deq.astype(np.float32)),
                       Tensor(weights.astype(np.float32)),
                       None if self.bias is None
                       else Tensor(self.bias.astype(np.float32)))
        return out
