"""Convolution, pooling and gather/scatter primitives with autograd.

All functions here operate on :class:`repro.nn.tensor.Tensor` inputs in
NCHW layout and return tensors wired into the autograd graph.  Convolution
is implemented with im2col + matmul, which is the standard dense lowering
and keeps the arithmetic visible to the hardware cost model
(:mod:`repro.hardware.latency`).

Geometry cache
--------------
Every frame of a LiDAR/camera stream has identical spatial geometry, so
the patch-extraction bookkeeping of ``im2col``/``col2im`` — which input
element lands in which column — depends only on ``(C, H, W, kernel,
stride, padding)``, never on the data.  :func:`im2col_plan` and
:func:`col2im_plan` compile that bookkeeping once into flat gather /
scatter index arrays and memoize them in a shape-keyed LRU cache shared
process-wide; :func:`im2col` and :func:`col2im_indexed` are thin
data-only gathers over the cached plans.  A gather is a pure
permutation, so the cached ``im2col`` is bit-identical to the strided
original for every dtype; :class:`Col2imPlan` sums each output cell's
contributors in a fixed deterministic order, which is exact whenever
the column data is integer-valued (the quantized executors' case).
:func:`geometry_cache_stats` / :func:`clear_geometry_cache` expose the
cache for tests and benchmarks.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .tensor import Tensor

__all__ = [
    "im2col", "col2im", "col2im_indexed", "conv2d", "conv_transpose2d",
    "max_pool2d", "avg_pool2d", "upsample_nearest2d", "scatter_to_grid",
    "linear", "Im2colPlan", "Col2imPlan", "im2col_plan", "col2im_plan",
    "geometry_cache_stats", "clear_geometry_cache", "columns_are_input",
]


def _out_size(size: int, kernel: int, stride: int, padding: int) -> int:
    return (size + 2 * padding - kernel) // stride + 1


@dataclass(frozen=True, eq=False)
class Im2colPlan:
    """Precompiled patch-extraction geometry for one input shape.

    ``indices[r, p]`` is the flat offset (within one zero-padded sample
    of shape ``(C, H+2p, W+2p)``) of the input element that row ``r``
    (= flattened ``(c, ki, kj)``) of output column ``p`` (= flattened
    ``(oi, oj)``) reads.  Applying the plan is a single gather.
    """

    c: int
    h: int
    w: int
    kernel: int
    stride: int
    padding: int
    out_h: int
    out_w: int
    #: (C*k*k, out_h*out_w) gather offsets into one padded sample
    indices: np.ndarray = field(repr=False)

    @property
    def rows(self) -> int:
        return self.c * self.kernel * self.kernel

    @property
    def positions(self) -> int:
        return self.out_h * self.out_w

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Gather (N, C, H, W) data into (N, C*k*k, P) patch columns."""
        n = x.shape[0]
        p = self.padding
        if p > 0:
            x = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
        flat = x.reshape(n, -1)
        return flat.take(self.indices.ravel(), axis=1) \
            .reshape(n, self.rows, self.positions)

@dataclass(frozen=True, eq=False)
class Col2imPlan:
    """Precompiled scatter-add geometry — the inverse of an im2col.

    Scatter-add is lowered to a *gather*: ``contributors[t]`` lists, for
    padded output cell ``t``, the flat ``(row, position)`` offsets of
    every column entry that scatters into it (at most ``ceil(k/s)²``),
    padded with a sentinel index that points at an appended zero column.
    Applying the plan gathers the contributors and sums them along the
    last axis in one fixed order — deterministic, and exact whenever the
    column data is integer-valued.
    """

    c: int
    h: int
    w: int
    kernel: int
    stride: int
    padding: int
    out_h: int
    out_w: int
    #: number of column rows the plan expects (C*k*k before restriction)
    rows: int
    #: (C*(H+2p)*(W+2p), m) gather offsets into flattened (rows*P)+1 cols
    contributors: np.ndarray = field(repr=False)

    @property
    def positions(self) -> int:
        return self.out_h * self.out_w

    @property
    def sentinel(self) -> int:
        return self.rows * self.positions

    def apply(self, cols: np.ndarray) -> np.ndarray:
        """Scatter-add (N, rows, P) columns back to (N, C, H, W)."""
        n = cols.shape[0]
        flat = cols.reshape(n, -1)
        flat = np.concatenate(
            [flat, np.zeros((n, 1), dtype=flat.dtype)], axis=1)
        cells = self.contributors.shape[0]
        gathered = flat.take(self.contributors.ravel(), axis=1) \
            .reshape(n, cells, self.contributors.shape[1])
        padded = gathered.sum(axis=2).reshape(
            n, self.c, self.h + 2 * self.padding, self.w + 2 * self.padding)
        if self.padding > 0:
            return padded[:, :, self.padding:-self.padding,
                          self.padding:-self.padding]
        return padded

    def restrict(self, keep: np.ndarray) -> "Col2imPlan":
        """A plan over only the kept column rows.

        ``keep`` is the boolean row mask; the returned plan consumes
        ``(N, keep.sum(), P)`` columns directly.  Dropped rows are
        remapped to the zero sentinel, which is exact when those rows
        are all-zero (pattern-pruned weight columns).
        """
        keep = np.asarray(keep, dtype=bool)
        if keep.size != self.rows:
            raise ValueError(f"keep mask covers {keep.size} rows, "
                             f"plan has {self.rows}")
        if keep.all():
            return self
        positions = self.positions
        kept_rows = np.flatnonzero(keep)
        kept = kept_rows.size
        rowmap = np.full(self.rows * positions + 1, kept * positions,
                         dtype=np.int64)
        src = (kept_rows[:, None] * positions
               + np.arange(positions)[None, :]).ravel()
        rowmap[src] = np.arange(kept * positions, dtype=np.int64)
        return Col2imPlan(c=self.c, h=self.h, w=self.w, kernel=self.kernel,
                          stride=self.stride, padding=self.padding,
                          out_h=self.out_h, out_w=self.out_w, rows=kept,
                          contributors=rowmap[self.contributors])

# ----------------------------------------------------------------------
# Shape-keyed LRU cache of geometry plans
# ----------------------------------------------------------------------
_GEOMETRY_CACHE: OrderedDict = OrderedDict()
_GEOMETRY_LOCK = threading.Lock()
_GEOMETRY_CAPACITY = 128
_GEOMETRY_STATS = {"hits": 0, "misses": 0}


def _cached_plan(key: tuple, build):
    """Get-or-build on the shared geometry LRU, safe for concurrent
    callers: ``build`` runs outside the lock (it materializes large
    index arrays), and the insert re-checks the cache so two threads
    racing on a cold key converge on one canonical plan object —
    every caller then shares the same immutable indices."""
    with _GEOMETRY_LOCK:
        plan = _GEOMETRY_CACHE.get(key)
        if plan is not None:
            _GEOMETRY_CACHE.move_to_end(key)
            _GEOMETRY_STATS["hits"] += 1
            return plan
        _GEOMETRY_STATS["misses"] += 1
    plan = build()
    with _GEOMETRY_LOCK:
        racing = _GEOMETRY_CACHE.get(key)
        if racing is not None:
            _GEOMETRY_CACHE.move_to_end(key)
            return racing
        _GEOMETRY_CACHE[key] = plan
        _GEOMETRY_CACHE.move_to_end(key)
        while len(_GEOMETRY_CACHE) > _GEOMETRY_CAPACITY:
            _GEOMETRY_CACHE.popitem(last=False)
    return plan


def geometry_cache_stats() -> dict:
    """Hit/miss counters and fill level of the shared geometry cache."""
    with _GEOMETRY_LOCK:
        return {"size": len(_GEOMETRY_CACHE),
                "capacity": _GEOMETRY_CAPACITY,
                "hits": _GEOMETRY_STATS["hits"],
                "misses": _GEOMETRY_STATS["misses"]}


def clear_geometry_cache() -> None:
    """Drop every cached plan and reset the hit/miss counters."""
    with _GEOMETRY_LOCK:
        _GEOMETRY_CACHE.clear()
        _GEOMETRY_STATS["hits"] = 0
        _GEOMETRY_STATS["misses"] = 0


def _build_im2col_plan(c: int, h: int, w: int, kernel: int, stride: int,
                       padding: int) -> Im2colPlan:
    out_h = _out_size(h, kernel, stride, padding)
    out_w = _out_size(w, kernel, stride, padding)
    hp, wp = h + 2 * padding, w + 2 * padding
    window = (np.arange(kernel)[:, None] * wp
              + np.arange(kernel)[None, :]).ravel()          # (k*k,)
    row_off = (np.arange(c)[:, None] * (hp * wp)
               + window[None, :]).reshape(-1)                # (c*k*k,)
    col_off = (np.arange(out_h)[:, None] * (stride * wp)
               + np.arange(out_w)[None, :] * stride).ravel()  # (P,)
    indices = row_off[:, None] + col_off[None, :]
    indices.setflags(write=False)
    return Im2colPlan(c=c, h=h, w=w, kernel=kernel, stride=stride,
                      padding=padding, out_h=out_h, out_w=out_w,
                      indices=indices)


def im2col_plan(c: int, h: int, w: int, kernel: int, stride: int,
                padding: int) -> Im2colPlan:
    """The (cached) gather plan for this input geometry."""
    key = ("im2col", c, h, w, kernel, stride, padding)
    return _cached_plan(
        key, lambda: _build_im2col_plan(c, h, w, kernel, stride, padding))


def _build_col2im_plan(c: int, h: int, w: int, kernel: int, stride: int,
                       padding: int) -> Col2imPlan:
    fwd = _build_im2col_plan(c, h, w, kernel, stride, padding)
    positions = fwd.positions
    targets = fwd.indices.ravel()            # column entry -> padded cell
    cells = c * (h + 2 * padding) * (w + 2 * padding)
    counts = np.bincount(targets, minlength=cells)
    width = int(counts.max()) if counts.size else 0
    sentinel = fwd.rows * positions
    contributors = np.full((cells, max(width, 1)), sentinel, dtype=np.int64)
    order = np.argsort(targets, kind="stable")
    starts = np.concatenate(([0], np.cumsum(counts)))
    sorted_targets = targets[order]
    ranks = np.arange(targets.size) - starts[sorted_targets]
    contributors[sorted_targets, ranks] = order
    contributors.setflags(write=False)
    return Col2imPlan(c=c, h=h, w=w, kernel=kernel, stride=stride,
                      padding=padding, out_h=fwd.out_h, out_w=fwd.out_w,
                      rows=fwd.rows, contributors=contributors)


def col2im_plan(c: int, h: int, w: int, kernel: int, stride: int,
                padding: int) -> Col2imPlan:
    """The (cached) scatter plan: ``(c, h, w)`` is the *image* shape."""
    key = ("col2im", c, h, w, kernel, stride, padding)
    return _cached_plan(
        key, lambda: _build_col2im_plan(c, h, w, kernel, stride, padding))


def columns_are_input(kernel: int, stride: int, padding: int) -> bool:
    """Whether im2col is the identity: a 1×1, stride-1, unpadded window
    makes the ``(N, C, H·W)`` input its own column matrix."""
    return (kernel, stride, padding) == (1, 1, 0)


def im2col(x: np.ndarray, kernel: int, stride: int, padding: int) -> np.ndarray:
    """Lower NCHW input into (N, C*k*k, out_h*out_w) patch columns.

    Runs through the shape-keyed geometry cache: the gather indices are
    compiled once per ``(C, H, W, kernel, stride, padding)`` and reused
    across frames and batches.  A gather is a pure permutation, so the
    result is bit-identical to the strided extraction for every dtype.
    An identity window (:func:`columns_are_input`) reshapes the input
    instead, with no plan: inputs whose width changes every frame (the
    PFN's real points) would otherwise add a plan per frame.
    """
    n, c, h, w = x.shape
    if columns_are_input(kernel, stride, padding):
        return x.reshape(n, c, h * w)
    return im2col_plan(c, h, w, kernel, stride, padding).apply(x)


def col2im(cols: np.ndarray, input_shape: tuple, kernel: int, stride: int,
           padding: int) -> np.ndarray:
    """Inverse of :func:`im2col`: scatter-add patch columns back."""
    n, c, h, w = input_shape
    out_h = _out_size(h, kernel, stride, padding)
    out_w = _out_size(w, kernel, stride, padding)
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding),
                      dtype=cols.dtype)
    cols = cols.reshape(n, c, kernel, kernel, out_h, out_w)
    for ki in range(kernel):
        for kj in range(kernel):
            padded[:, :, ki:ki + stride * out_h:stride,
                   kj:kj + stride * out_w:stride] += cols[:, :, ki, kj]
    if padding > 0:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


def col2im_indexed(cols: np.ndarray, input_shape: tuple, kernel: int,
                   stride: int, padding: int) -> np.ndarray:
    """:func:`col2im` via the cached gather plan.

    Sums each output cell's contributors in one fixed deterministic
    order, so it is exact (and equal to :func:`col2im`) whenever the
    column data is integer-valued — the quantized executors' case.  The
    float ``col2im`` keeps its kernel-loop accumulation order so float32
    training numerics are untouched.
    """
    _, c, h, w = input_shape
    return col2im_plan(c, h, w, kernel, stride, padding).apply(cols)


def _per_sample_gemm(subscripts: str, w_mat: np.ndarray,
                     batch: np.ndarray) -> np.ndarray:
    """``einsum(subscripts, w_mat, batch)``, one sample at a time.

    BLAS picks its kernel, and so its rounding, by matrix shape: one
    gemm over the whole batch can round a sample differently from that
    sample alone.  Per sample, a scene's outputs do not depend on the
    batch it rides in.
    """
    if len(batch) == 1:
        return np.einsum(subscripts, w_mat, batch, optimize=True)
    return np.concatenate([
        np.einsum(subscripts, w_mat, batch[i:i + 1], optimize=True)
        for i in range(len(batch))])


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
           stride: int = 1, padding: int = 0) -> Tensor:
    """2D convolution, NCHW input, OIHW weight."""
    n, c, h, w = x.shape
    out_c, in_c, kh, kw = weight.shape
    if in_c != c:
        raise ValueError(f"channel mismatch: input {c}, weight expects {in_c}")
    if kh != kw:
        raise ValueError("only square kernels are supported")
    kernel = kh
    out_h = _out_size(h, kernel, stride, padding)
    out_w = _out_size(w, kernel, stride, padding)

    cols = im2col(x.data, kernel, stride, padding)
    w_mat = weight.data.reshape(out_c, -1)
    out = _per_sample_gemm("ok,nkp->nop", w_mat, cols)
    out = out.reshape(n, out_c, out_h, out_w)
    if bias is not None:
        out = out + bias.data.reshape(1, -1, 1, 1)

    parents = [x, weight] + ([bias] if bias is not None else [])

    def backward(grad):
        grad_mat = grad.reshape(n, out_c, out_h * out_w)
        grad_w = np.einsum("nop,nkp->ok", grad_mat, cols,
                           optimize=True).reshape(weight.shape)
        grad_cols = np.einsum("ok,nop->nkp", w_mat, grad_mat, optimize=True)
        grad_x = col2im(grad_cols, x.shape, kernel, stride, padding)
        grads = [grad_x.astype(np.float32), grad_w.astype(np.float32)]
        if bias is not None:
            grads.append(grad.sum(axis=(0, 2, 3)).astype(np.float32))
        return tuple(grads)

    return Tensor.from_op(out.astype(np.float32), parents, backward)


def conv_transpose2d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
                     stride: int = 1, padding: int = 0) -> Tensor:
    """Transposed 2D convolution (deconvolution), IOHW weight layout.

    Implemented as the gradient of conv2d with respect to its input, which
    is exactly what a deconvolution is.
    """
    n, c, h, w = x.shape
    in_c, out_c, kh, kw = weight.shape
    if in_c != c:
        raise ValueError(f"channel mismatch: input {c}, weight expects {in_c}")
    kernel = kh
    out_h = (h - 1) * stride - 2 * padding + kernel
    out_w = (w - 1) * stride - 2 * padding + kernel

    w_mat = weight.data.reshape(in_c, out_c * kernel * kernel)
    x_mat = x.data.reshape(n, in_c, h * w)
    cols = _per_sample_gemm("io,nip->nop", w_mat, x_mat)
    out = col2im(cols, (n, out_c, out_h, out_w), kernel, stride, padding)
    if bias is not None:
        out = out + bias.data.reshape(1, -1, 1, 1)

    parents = [x, weight] + ([bias] if bias is not None else [])

    def backward(grad):
        grad_cols = im2col(grad, kernel, stride, padding)
        grad_x = np.einsum("io,nop->nip", w_mat, grad_cols,
                           optimize=True).reshape(x.shape)
        grad_w = np.einsum("nip,nop->io", x_mat, grad_cols,
                           optimize=True).reshape(weight.shape)
        grads = [grad_x.astype(np.float32), grad_w.astype(np.float32)]
        if bias is not None:
            grads.append(grad.sum(axis=(0, 2, 3)).astype(np.float32))
        return tuple(grads)

    return Tensor.from_op(out.astype(np.float32), parents, backward)


def max_pool2d(x: Tensor, kernel: int, stride: int | None = None) -> Tensor:
    """Max pooling over non-overlapping (or strided) windows."""
    stride = stride or kernel
    n, c, h, w = x.shape
    out_h = _out_size(h, kernel, stride, 0)
    out_w = _out_size(w, kernel, stride, 0)
    cols = im2col(x.data, kernel, stride, 0).reshape(
        n, c, kernel * kernel, out_h * out_w)
    argmax = cols.argmax(axis=2)
    out = np.take_along_axis(cols, argmax[:, :, None], axis=2)[:, :, 0]
    out = out.reshape(n, c, out_h, out_w)

    def backward(grad):
        grad_cols = np.zeros((n, c, kernel * kernel, out_h * out_w),
                             dtype=np.float32)
        np.put_along_axis(grad_cols, argmax[:, :, None],
                          grad.reshape(n, c, 1, out_h * out_w), axis=2)
        grad_cols = grad_cols.reshape(n, c * kernel * kernel, out_h * out_w)
        return (col2im(grad_cols, x.shape, kernel, stride, 0),)

    return Tensor.from_op(out.astype(np.float32), (x,), backward)


def avg_pool2d(x: Tensor, kernel: int, stride: int | None = None) -> Tensor:
    """Average pooling."""
    stride = stride or kernel
    n, c, h, w = x.shape
    out_h = _out_size(h, kernel, stride, 0)
    out_w = _out_size(w, kernel, stride, 0)
    cols = im2col(x.data, kernel, stride, 0).reshape(
        n, c, kernel * kernel, out_h * out_w)
    out = cols.mean(axis=2).reshape(n, c, out_h, out_w)
    scale = 1.0 / (kernel * kernel)

    def backward(grad):
        grad_cols = np.broadcast_to(
            grad.reshape(n, c, 1, out_h * out_w) * scale,
            (n, c, kernel * kernel, out_h * out_w),
        ).reshape(n, c * kernel * kernel, out_h * out_w)
        return (col2im(grad_cols.astype(np.float32), x.shape, kernel,
                       stride, 0),)

    return Tensor.from_op(out.astype(np.float32), (x,), backward)


def upsample_nearest2d(x: Tensor, scale: int) -> Tensor:
    """Nearest-neighbour upsampling of the spatial dimensions."""
    out = x.data.repeat(scale, axis=2).repeat(scale, axis=3)

    def backward(grad):
        n, c, h, w = x.shape
        g = grad.reshape(n, c, h, scale, w, scale).sum(axis=(3, 5))
        return (g.astype(np.float32),)

    return Tensor.from_op(out, (x,), backward)


def scatter_to_grid(features: Tensor, indices: np.ndarray,
                    grid_shape: tuple[int, int]) -> Tensor:
    """Scatter per-pillar features onto a dense BEV canvas.

    Parameters
    ----------
    features:
        (P, C) per-pillar feature vectors.
    indices:
        (P, 2) integer (row, col) BEV cell of each pillar.
    grid_shape:
        (H, W) of the canvas.

    Returns a (1, C, H, W) tensor.  This is PointPillars' PillarScatter.
    """
    p, c = features.shape
    h, w = grid_shape
    flat = indices[:, 0] * w + indices[:, 1]
    canvas = np.zeros((c, h * w), dtype=np.float32)
    canvas[:, flat] = features.data.T
    out = canvas.reshape(1, c, h, w)

    def backward(grad):
        grad_flat = grad.reshape(c, h * w)
        return (grad_flat[:, flat].T.copy(),)

    return Tensor.from_op(out, (features,), backward)


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map y = x @ W.T + b with (out, in) weight layout."""
    out = x @ Tensor.from_op(weight.data.T, (weight,),
                             lambda grad: (grad.T,))
    if bias is not None:
        out = out + bias
    return out
