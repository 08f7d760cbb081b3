"""Reverse-mode automatic differentiation on numpy arrays.

This module is the foundation of the ``repro.nn`` framework: a ``Tensor``
wraps a numpy array and records the operations applied to it so gradients
can be computed with :meth:`Tensor.backward`.  It deliberately supports
only what the UPAQ reproduction needs (dense float tensors, static shapes)
but supports it completely: broadcasting, views, reductions, and the
convolution/pooling primitives live in :mod:`repro.nn.functional`.
"""

from __future__ import annotations

import threading

import numpy as np

__all__ = ["Tensor", "no_grad", "enable_grad", "is_grad_enabled"]


class _GradMode(threading.local):
    """Per-thread grad-mode depth: a serving thread inside ``no_grad``
    must not switch off graph recording in a training thread."""

    disabled = 0


_GRAD_MODE = _GradMode()


class no_grad:
    """Context manager that disables graph recording (inference mode).

    The mode is per thread: entering ``no_grad`` affects only the
    calling thread.
    """

    def __enter__(self):
        _GRAD_MODE.disabled += 1
        return self

    def __exit__(self, exc_type, exc, tb):
        _GRAD_MODE.disabled -= 1
        return False


class enable_grad:
    """Context manager that records the graph even inside ``no_grad``.

    Recording passes (profiling, calibration) trace under it, so what
    they see does not depend on the caller's grad mode.  Per thread,
    like :class:`no_grad`.
    """

    def __enter__(self):
        self._outer = _GRAD_MODE.disabled
        _GRAD_MODE.disabled = 0
        return self

    def __exit__(self, exc_type, exc, tb):
        _GRAD_MODE.disabled = self._outer
        return False


def is_grad_enabled() -> bool:
    """Return True when operations on this thread should record the
    autograd graph."""
    return _GRAD_MODE.disabled == 0


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading dimensions that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over dimensions that were size-1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _as_array(value) -> np.ndarray:
    if isinstance(value, Tensor):
        raise TypeError("expected raw data, got Tensor")
    arr = np.asarray(value)
    if arr.dtype == np.float64:
        arr = arr.astype(np.float32)
    return arr


class Tensor:
    """A numpy-backed tensor with reverse-mode autograd.

    Parameters
    ----------
    data:
        Array-like payload.  float64 input is converted to float32, the
        framework's working precision.
    requires_grad:
        When True the tensor accumulates a ``.grad`` array during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_name")

    def __init__(self, data, requires_grad: bool = False, name: str = ""):
        self.data = _as_array(data)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._backward = None
        self._name = name

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def zeros(*shape, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros(shape, dtype=np.float32), requires_grad)

    @staticmethod
    def ones(*shape, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.ones(shape, dtype=np.float32), requires_grad)

    @staticmethod
    def randn(*shape, rng: np.random.Generator | None = None,
              requires_grad: bool = False) -> "Tensor":
        rng = rng or np.random.default_rng()
        return Tensor(rng.standard_normal(shape).astype(np.float32),
                      requires_grad)

    @staticmethod
    def from_op(data: np.ndarray, parents, backward) -> "Tensor":
        """Create a tensor resulting from an op, wiring the graph edge."""
        requires = is_grad_enabled() and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = tuple(parents)
            out._backward = backward
        return out

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    def __repr__(self) -> str:
        grad_tag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_tag})"

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor through the recorded graph."""
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that does not require grad")
        if grad is None:
            if self.size != 1:
                raise RuntimeError("grad must be supplied for non-scalar output")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=np.float32)

        order = self._topological_order()
        grads: dict[int, np.ndarray] = {id(self): grad}
        for node in order:
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node._backward is None:
                if node.grad is None:
                    node.grad = node_grad.copy()
                else:
                    node.grad += node_grad
                continue
            parent_grads = node._backward(node_grad)
            if not isinstance(parent_grads, tuple):
                parent_grads = (parent_grads,)
            for parent, pgrad in zip(node._parents, parent_grads):
                if pgrad is None or not parent.requires_grad:
                    continue
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + pgrad
                else:
                    grads[key] = pgrad

    def _topological_order(self) -> list:
        """Reverse topological order of the graph rooted at self."""
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        order.reverse()
        return order

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def _coerce(self, other) -> "Tensor":
        if isinstance(other, Tensor):
            return other
        return Tensor(np.asarray(other, dtype=np.float32))

    def __add__(self, other) -> "Tensor":
        other = self._coerce(other)
        a, b = self, other

        def backward(grad):
            return (_unbroadcast(grad, a.shape), _unbroadcast(grad, b.shape))

        return Tensor.from_op(a.data + b.data, (a, b), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        a = self
        return Tensor.from_op(-a.data, (a,), lambda grad: (-grad,))

    def __sub__(self, other) -> "Tensor":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Tensor":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = self._coerce(other)
        a, b = self, other

        def backward(grad):
            return (_unbroadcast(grad * b.data, a.shape),
                    _unbroadcast(grad * a.data, b.shape))

        return Tensor.from_op(a.data * b.data, (a, b), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._coerce(other)
        a, b = self, other

        def backward(grad):
            return (_unbroadcast(grad / b.data, a.shape),
                    _unbroadcast(-grad * a.data / (b.data * b.data), b.shape))

        return Tensor.from_op(a.data / b.data, (a, b), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return self._coerce(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        a = self
        exponent = float(exponent)

        def backward(grad):
            return (grad * exponent * np.power(a.data, exponent - 1.0),)

        return Tensor.from_op(np.power(a.data, exponent), (a,), backward)

    def __matmul__(self, other) -> "Tensor":
        other = self._coerce(other)
        a, b = self, other

        def backward(grad):
            if a.data.ndim == 2 and b.data.ndim == 2:
                return (grad @ b.data.T, a.data.T @ grad)
            # Batched matmul: contract over batch dims with broadcasting.
            ga = grad @ np.swapaxes(b.data, -1, -2)
            gb = np.swapaxes(a.data, -1, -2) @ grad
            return (_unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape))

        return Tensor.from_op(a.data @ b.data, (a, b), backward)

    # ------------------------------------------------------------------
    # Elementwise functions
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        a = self
        out_data = np.exp(a.data)
        return Tensor.from_op(out_data, (a,), lambda grad: (grad * out_data,))

    def log(self) -> "Tensor":
        a = self
        return Tensor.from_op(np.log(a.data), (a,),
                              lambda grad: (grad / a.data,))

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    def abs(self) -> "Tensor":
        a = self
        return Tensor.from_op(np.abs(a.data), (a,),
                              lambda grad: (grad * np.sign(a.data),))

    def relu(self) -> "Tensor":
        a = self
        mask = a.data > 0
        return Tensor.from_op(a.data * mask, (a,), lambda grad: (grad * mask,))

    def leaky_relu(self, slope: float = 0.1) -> "Tensor":
        a = self
        scale = np.where(a.data > 0, 1.0, slope).astype(np.float32)
        return Tensor.from_op(a.data * scale, (a,),
                              lambda grad: (grad * scale,))

    def sigmoid(self) -> "Tensor":
        a = self
        out_data = 1.0 / (1.0 + np.exp(-a.data))
        return Tensor.from_op(
            out_data, (a,), lambda grad: (grad * out_data * (1.0 - out_data),))

    def tanh(self) -> "Tensor":
        a = self
        out_data = np.tanh(a.data)
        return Tensor.from_op(
            out_data, (a,), lambda grad: (grad * (1.0 - out_data * out_data),))

    def sin(self) -> "Tensor":
        a = self
        return Tensor.from_op(np.sin(a.data), (a,),
                              lambda grad: (grad * np.cos(a.data),))

    def cos(self) -> "Tensor":
        a = self
        return Tensor.from_op(np.cos(a.data), (a,),
                              lambda grad: (-grad * np.sin(a.data),))

    def clip(self, low: float, high: float) -> "Tensor":
        a = self
        mask = ((a.data >= low) & (a.data <= high)).astype(np.float32)
        return Tensor.from_op(np.clip(a.data, low, high), (a,),
                              lambda grad: (grad * mask,))

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        a = self

        def backward(grad):
            if axis is None:
                return (np.broadcast_to(grad, a.shape).astype(np.float32),)
            g = grad
            if not keepdims:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g, a.shape).astype(np.float32),)

        return Tensor.from_op(a.data.sum(axis=axis, keepdims=keepdims),
                              (a,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.shape[i] for i in axis]))
        else:
            count = self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        a = self
        out_data = a.data.max(axis=axis, keepdims=True)
        mask = (a.data == out_data).astype(np.float32)
        mask /= mask.sum(axis=axis, keepdims=True)

        def backward(grad):
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return (mask * g,)

        result = out_data if keepdims or axis is None else np.squeeze(out_data, axis)
        if axis is None:
            result = np.asarray(a.data.max())
        return Tensor.from_op(result, (a,), backward)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        mu = self.mean(axis=axis, keepdims=True)
        centered = self - mu
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self
        original = a.shape
        return Tensor.from_op(a.data.reshape(shape), (a,),
                              lambda grad: (grad.reshape(original),))

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        a = self
        inverse = tuple(np.argsort(axes))
        return Tensor.from_op(a.data.transpose(axes), (a,),
                              lambda grad: (grad.transpose(inverse),))

    def __getitem__(self, index) -> "Tensor":
        a = self

        def backward(grad):
            full = np.zeros_like(a.data)
            np.add.at(full, index, grad)
            return (full,)

        return Tensor.from_op(a.data[index], (a,), backward)

    def pad2d(self, padding: int) -> "Tensor":
        """Zero-pad the last two dimensions symmetrically."""
        if padding == 0:
            return self
        a = self
        pad_width = [(0, 0)] * (a.ndim - 2) + [(padding, padding)] * 2
        sl = tuple([slice(None)] * (a.ndim - 2)
                   + [slice(padding, -padding)] * 2)
        return Tensor.from_op(np.pad(a.data, pad_width), (a,),
                              lambda grad: (grad[sl],))

    @staticmethod
    def concatenate(tensors: list["Tensor"], axis: int = 0) -> "Tensor":
        arrays = [t.data for t in tensors]
        sizes = [arr.shape[axis] for arr in arrays]
        offsets = np.cumsum([0] + sizes)

        def backward(grad):
            pieces = []
            for i in range(len(arrays)):
                sl = [slice(None)] * grad.ndim
                sl[axis] = slice(offsets[i], offsets[i + 1])
                pieces.append(grad[tuple(sl)])
            return tuple(pieces)

        return Tensor.from_op(np.concatenate(arrays, axis=axis),
                              tuple(tensors), backward)

    @staticmethod
    def stack(tensors: list["Tensor"], axis: int = 0) -> "Tensor":
        def backward(grad):
            return tuple(np.take(grad, i, axis=axis)
                         for i in range(len(tensors)))

        return Tensor.from_op(np.stack([t.data for t in tensors], axis=axis),
                              tuple(tensors), backward)

    def softmax(self, axis: int = -1) -> "Tensor":
        shifted = self - self.max(axis=axis, keepdims=True).detach()
        exp = shifted.exp()
        return exp / exp.sum(axis=axis, keepdims=True)

    def log_softmax(self, axis: int = -1) -> "Tensor":
        shifted = self - self.max(axis=axis, keepdims=True).detach()
        return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()
