"""Per-layer compute/memory profiling of a model forward pass.

Runs the model once on example inputs while hooking every kernel-bearing
layer, recording input/output shapes, multiply-accumulate counts,
weight/activation byte traffic, and the input activation range — the
quantities the analytic device models turn into latency and energy and
the executor lowering turns into activation quantization scales.

:func:`profiling` exposes the hook machinery as a context manager so the
IR extractor (:func:`repro.ir.extract_ir`) can collect a profile during
the *same* traced forward pass that builds the layer graph; stats land
in the :class:`~repro.ir.ModelIR` node annotations.  :func:`profile_model`
remains the standalone one-call form.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.nn.graph import KERNEL_LAYER_TYPES
from repro.nn.layers import Conv2d, ConvTranspose2d, _BatchNorm
from repro.nn.module import Module, routed
from repro.nn.tensor import enable_grad

__all__ = ["LayerProfile", "ModelProfile", "profile_model", "profiling"]


@dataclass
class LayerProfile:
    """Cost-relevant facts about one layer's execution."""

    name: str
    kind: str                     # "conv", "deconv", "linear"
    kernel_size: int
    in_channels: int
    out_channels: int
    output_elements: int          # spatial positions × batch
    macs: int                     # dense multiply-accumulates
    weight_count: int
    input_bytes_fp32: int
    output_bytes_fp32: int
    #: max |x| over the layer's input activation — the max-calibration
    #: statistic the executor lowering turns into an activation scale
    input_absmax: float = 0.0

    @property
    def weight_bytes_fp32(self) -> int:
        return self.weight_count * 4

    @property
    def cache_key(self) -> tuple:
        """Cost signature: two layers with equal keys price identically.

        Everything the analytic device models read off a profile —
        used to memoize per-candidate latency/energy lookups across the
        many same-shaped layers of a backbone.
        """
        return (self.kind, self.kernel_size, self.macs, self.weight_count,
                self.output_elements, self.input_bytes_fp32,
                self.output_bytes_fp32)


@dataclass
class ModelProfile:
    """All profiled layers of one model, in execution order."""

    model_name: str
    layers: list[LayerProfile] = field(default_factory=list)
    #: fp32 bytes output by normalization layers (BatchNorm1d/2d) — the
    #: elementwise traffic that conv+BN folding eliminates
    norm_output_bytes: int = 0

    @property
    def total_macs(self) -> int:
        return sum(layer.macs for layer in self.layers)

    @property
    def total_weights(self) -> int:
        return sum(layer.weight_count for layer in self.layers)

    def by_name(self) -> dict[str, LayerProfile]:
        return {layer.name: layer for layer in self.layers}


def _layer_kind(module: Module) -> str:
    if isinstance(module, Conv2d):
        return "conv"
    if isinstance(module, ConvTranspose2d):
        return "deconv"
    return "linear"


@contextmanager
def profiling(model: Module, name: str | None = None):
    """Hook every kernel and norm layer of ``model``; yields the profile.

    Any forward passes run inside the ``with`` block, in the same
    thread, append their per-layer stats — this is how IR extraction
    profiles the *same* forward it traces.  They run with grad enabled
    whatever the caller's mode, so they take the graph path (e.g. the
    PFN over its dense pillar grid) that the IR describes.  The hooks
    run through the layer-call seam (:func:`repro.nn.module.routed`),
    so the model is never patched and other threads' forwards are not
    recorded.
    """
    profile = ModelProfile(model_name=name or getattr(model, "name",
                                                      type(model).__name__))

    def make_hook(layer_name: str, module: Module):
        def hooked_forward(*args, **kwargs):
            out = module.forward(*args, **kwargs)
            x = args[0]
            x_data = getattr(x, "data", x)
            in_elems = int(np.prod(x.shape))
            out_elems = int(np.prod(out.shape))
            if isinstance(module, (Conv2d, ConvTranspose2d)):
                k = module.kernel_size
                if isinstance(module, Conv2d):
                    spatial = out_elems // module.out_channels
                    macs = spatial * module.out_channels \
                        * module.in_channels * k * k
                else:
                    spatial = in_elems // module.in_channels
                    macs = spatial * module.in_channels \
                        * module.out_channels * k * k
                kernel = k
            else:
                macs = (in_elems // module.in_features) \
                    * module.in_features * module.out_features
                kernel = 1
            weight_count = module.weight.size
            if getattr(module, "bias", None) is not None:
                weight_count += module.bias.size
            profile.layers.append(LayerProfile(
                name=layer_name, kind=_layer_kind(module),
                kernel_size=kernel,
                in_channels=getattr(module, "in_channels",
                                    getattr(module, "in_features", 0)),
                out_channels=getattr(module, "out_channels",
                                     getattr(module, "out_features", 0)),
                output_elements=out_elems, macs=int(macs),
                weight_count=int(weight_count),
                input_bytes_fp32=in_elems * 4,
                output_bytes_fp32=out_elems * 4,
                input_absmax=float(np.abs(x_data).max())
                if x_data.size else 0.0))
            return out

        return hooked_forward

    def make_norm_hook(module: Module):
        def hooked_forward(*args, **kwargs):
            out = module.forward(*args, **kwargs)
            profile.norm_output_bytes += int(np.prod(out.shape)) * 4
            return out

        return hooked_forward

    hooks = {}
    for layer_name, module in model.named_modules():
        if isinstance(module, KERNEL_LAYER_TYPES):
            hooks[module] = make_hook(layer_name, module)
        elif isinstance(module, _BatchNorm):
            hooks[module] = make_norm_hook(module)
    with routed(hooks), enable_grad():
        yield profile


def profile_model(model: Module, *example_inputs,
                  name: str | None = None) -> ModelProfile:
    """Trace one forward pass and collect a :class:`ModelProfile`."""
    with profiling(model, name=name) as profile:
        was_training = model.training
        model.eval()
        model(*example_inputs)
        if was_training:
            model.train()
    return profile
