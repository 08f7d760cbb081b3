"""Standard layers built on the autograd primitives.

All convolutional layers expose ``.weight`` (and optional ``.bias``) as
:class:`repro.nn.module.Parameter`; UPAQ and the baselines compress models
purely by rewriting these arrays in place, so layers make no copies of
their weights during forward.
"""

from __future__ import annotations

import numpy as np

from . import functional as F
from . import init
from .module import Module, Parameter
from .tensor import Tensor, _as_array, is_grad_enabled

__all__ = [
    "Conv2d", "ConvTranspose2d", "Linear", "BatchNorm2d", "BatchNorm1d",
    "ReLU", "LeakyReLU", "Sigmoid", "MaxPool2d", "AvgPool2d",
    "UpsampleNearest2d", "Identity", "Add", "ConvBNReLU",
]

_DEFAULT_RNG = np.random.default_rng(0)


class Conv2d(Module):
    """2D convolution layer (square kernels, uniform stride/padding)."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0, bias: bool = True,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or _DEFAULT_RNG
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = Parameter(init.kaiming_normal(shape, rng))
        self.bias = Parameter(np.zeros(out_channels, dtype=np.float32)) \
            if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(x, self.weight, self.bias,
                        stride=self.stride, padding=self.padding)

    def __repr__(self) -> str:
        return (f"Conv2d({self.in_channels}, {self.out_channels}, "
                f"k={self.kernel_size}, s={self.stride}, p={self.padding})")


class ConvTranspose2d(Module):
    """Transposed convolution (upsampling deconvolution)."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0, bias: bool = True,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or _DEFAULT_RNG
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        shape = (in_channels, out_channels, kernel_size, kernel_size)
        self.weight = Parameter(init.kaiming_normal(shape, rng))
        self.bias = Parameter(np.zeros(out_channels, dtype=np.float32)) \
            if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.conv_transpose2d(x, self.weight, self.bias,
                                  stride=self.stride, padding=self.padding)

    def __repr__(self) -> str:
        return (f"ConvTranspose2d({self.in_channels}, {self.out_channels}, "
                f"k={self.kernel_size}, s={self.stride})")


class Linear(Module):
    """Affine layer with (out_features, in_features) weight."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or _DEFAULT_RNG
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            init.kaiming_uniform((out_features, in_features), rng))
        self.bias = Parameter(np.zeros(out_features, dtype=np.float32)) \
            if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)

    def __repr__(self) -> str:
        return f"Linear({self.in_features}, {self.out_features})"


def batchnorm_eval(x: np.ndarray, constants: tuple,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Eval batch norm of float32 ``x``: ``(x - mean) / std * gamma +
    beta`` with ``constants`` from :meth:`_BatchNorm.eval_constants`.

    The subtract writes ``out`` (a new array when ``None``; ``x`` itself
    normalizes in place) and the other three ops run in place on it, so
    every caller rounds exactly as the graph path does.
    """
    mean, std, gamma, beta = constants
    out = np.subtract(x, mean, out=out)
    out /= std
    out *= gamma
    out += beta
    return out


class _BatchNorm(Module):
    """Shared batch-norm machinery; subclasses pick the reduced axes.

    Eval mode under :func:`~repro.nn.tensor.no_grad` (the inference
    path) normalizes in raw float32 numpy from the *current* running
    buffers and returns one :class:`Tensor`, instead of building an
    autograd node per elementwise op.  It runs the same numpy ops in
    the same order as the graph path, so outputs are byte-identical;
    nothing is cached, so ``load_state_dict`` and in-place buffer
    rewrites take effect on the next call.  Training and grad-enabled
    eval keep the autograd graph.  (A lowered program is a snapshot
    instead: it reads :meth:`eval_constants` once, when it binds the
    model — see :mod:`repro.runtime.executors`.)
    """

    def __init__(self, num_features: int, eps: float = 1e-5,
                 momentum: float = 0.1):
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.weight = Parameter(np.ones(num_features, dtype=np.float32))
        self.bias = Parameter(np.zeros(num_features, dtype=np.float32))
        self.register_buffer("running_mean",
                             np.zeros(num_features, dtype=np.float32))
        self.register_buffer("running_var",
                             np.ones(num_features, dtype=np.float32))

    def eval_constants(self) -> tuple:
        """``(mean, std, gamma, beta)`` of eval normalization, shaped to
        broadcast over the input and read from the current buffers.

        The same values the graph path uses: ``Tensor(...)`` coerces
        the buffers exactly as ``_as_array`` does, ``var + eps`` adds a
        float32 eps, and ``Tensor.__pow__`` is ``np.power``.
        """
        shape = self.param_shape
        mean = _as_array(self.running_mean.reshape(shape))
        var = _as_array(self.running_var.reshape(shape))
        return (mean, np.power(var + np.float32(self.eps), 0.5),
                self.weight.data.reshape(shape),
                self.bias.data.reshape(shape))

    def _normalize(self, x: Tensor, axes: tuple) -> Tensor:
        if not self.training and not is_grad_enabled():
            return Tensor(batchnorm_eval(x.data, self.eval_constants()))
        param_shape = self.param_shape
        if self.training:
            mean = x.mean(axis=axes, keepdims=True)
            var = x.var(axis=axes, keepdims=True)
            m = self.momentum
            self._update_buffer(
                "running_mean",
                ((1 - m) * self.running_mean
                 + m * mean.data.reshape(-1)).astype(np.float32))
            self._update_buffer(
                "running_var",
                ((1 - m) * self.running_var
                 + m * var.data.reshape(-1)).astype(np.float32))
        else:
            mean = Tensor(self.running_mean.reshape(param_shape))
            var = Tensor(self.running_var.reshape(param_shape))
        x_hat = (x - mean) / ((var + self.eps) ** 0.5)
        gamma = self.weight.reshape(param_shape)
        beta = self.bias.reshape(param_shape)
        return x_hat * gamma + beta

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.num_features})"


class BatchNorm2d(_BatchNorm):
    """Batch norm over (N, H, W) per channel for NCHW tensors."""

    @property
    def param_shape(self) -> tuple:
        return (1, self.num_features, 1, 1)

    def forward(self, x: Tensor) -> Tensor:
        return self._normalize(x, (0, 2, 3))


class BatchNorm1d(_BatchNorm):
    """Batch norm over the leading axis for (N, C) tensors."""

    @property
    def param_shape(self) -> tuple:
        return (1, self.num_features)

    def forward(self, x: Tensor) -> Tensor:
        return self._normalize(x, (0,))


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()

    def __repr__(self) -> str:
        return "ReLU()"


class LeakyReLU(Module):
    def __init__(self, slope: float = 0.1):
        super().__init__()
        self.slope = slope

    def forward(self, x: Tensor) -> Tensor:
        return x.leaky_relu(self.slope)

    def __repr__(self) -> str:
        return f"LeakyReLU({self.slope})"


class Sigmoid(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.sigmoid()

    def __repr__(self) -> str:
        return "Sigmoid()"


class MaxPool2d(Module):
    def __init__(self, kernel_size: int, stride: int | None = None):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride or kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return F.max_pool2d(x, self.kernel_size, self.stride)

    def __repr__(self) -> str:
        return f"MaxPool2d(k={self.kernel_size}, s={self.stride})"


class AvgPool2d(Module):
    def __init__(self, kernel_size: int, stride: int | None = None):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride or kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return F.avg_pool2d(x, self.kernel_size, self.stride)

    def __repr__(self) -> str:
        return f"AvgPool2d(k={self.kernel_size}, s={self.stride})"


class UpsampleNearest2d(Module):
    def __init__(self, scale: int):
        super().__init__()
        self.scale = scale

    def forward(self, x: Tensor) -> Tensor:
        return F.upsample_nearest2d(x, self.scale)

    def __repr__(self) -> str:
        return f"UpsampleNearest2d(x{self.scale})"


class Identity(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x

    def __repr__(self) -> str:
        return "Identity()"


class Add(Module):
    """Elementwise residual addition as a traceable module."""

    def forward(self, a: Tensor, b: Tensor) -> Tensor:
        return a + b

    def __repr__(self) -> str:
        return "Add()"


class ConvBNReLU(Module):
    """The ubiquitous conv → batch-norm → ReLU block."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int | None = None,
                 rng: np.random.Generator | None = None):
        super().__init__()
        if padding is None:
            padding = kernel_size // 2
        self.conv = Conv2d(in_channels, out_channels, kernel_size,
                           stride=stride, padding=padding, bias=False, rng=rng)
        self.bn = BatchNorm2d(out_channels)
        self.act = ReLU()

    def forward(self, x: Tensor) -> Tensor:
        return self.act(self.bn(self.conv(x)))
