"""``repro.nn`` — a numpy neural-network framework with autograd.

This subpackage stands in for PyTorch in the UPAQ reproduction: it
provides tensors with reverse-mode autodiff, the standard layer zoo
needed by the 3D detectors (convolutions, batch norm, pooling,
upsampling), optimizers with prune-mask support, detection losses, model
serialization, and computational-graph extraction used by UPAQ's
preprocessing stage.
"""

from . import functional, init, losses, optim
from .graph import compute_graph, layer_map, topological_layers
from .layers import (Add, AvgPool2d, BatchNorm1d, BatchNorm2d, Conv2d,
                     ConvBNReLU, ConvTranspose2d, Identity, LeakyReLU,
                     Linear, MaxPool2d, ReLU, Sigmoid, UpsampleNearest2d)
from .module import Module, Parameter, Sequential
from .serialization import load_model, load_state, save_model, save_state
from .tensor import Tensor, enable_grad, no_grad

__all__ = [
    "Tensor", "no_grad", "enable_grad", "Module", "Parameter", "Sequential",
    "Conv2d", "ConvTranspose2d", "Linear", "BatchNorm1d", "BatchNorm2d",
    "ReLU", "LeakyReLU", "Sigmoid", "MaxPool2d", "AvgPool2d",
    "UpsampleNearest2d", "Identity", "Add", "ConvBNReLU",
    "functional", "init", "losses", "optim",
    "compute_graph", "layer_map", "topological_layers",
    "save_model", "load_model", "save_state", "load_state",
]
