"""Executable lowering: compressed IR nodes → integer kernel executors.

The cost lowering (:func:`repro.hardware.deploy.lower_to_plan`) prices
an annotated IR; this module is the lowering that *runs* it.  Every IR
node quantized to ≤ 16 bits is compiled into the matching integer
executor from :mod:`repro.nn.quantized` — per-channel weight codes,
max-calibrated activation scale from the node's profiled
``input_absmax``, and pattern-aware column skipping for the pruned
positions.  Nodes left at full precision (bits > 16, or never profiled)
stay on the normal float path.

Each executor has one accumulation path, the exact integer
multiply-accumulate run as one float64 gemm (see
:mod:`repro.nn.quantized`).  Building an executor whose accumulator
bound is not certified below 2⁵³ raises
:class:`~repro.nn.quantized.AccumulatorBoundError`, so
:func:`lower_executors` raises it too; no node in the 4–16-bit range
lowered here comes near the bound.

:class:`repro.runtime.executors.LoweredProgram` binds the executors to
a live model for the :class:`~repro.runtime.engine.InferenceEngine`.
"""

from __future__ import annotations

from repro.nn.graph import layer_map
from repro.nn.layers import Conv2d, ConvTranspose2d, Linear
from repro.nn.module import Module
from repro.nn.quantized import (QuantizedConv2d, QuantizedConvTranspose2d,
                                QuantizedLinear)

from .model_ir import IRNode, ModelIR

__all__ = ["lower_executors", "lowerable_nodes", "executor_for"]

#: Bitwidths the integer executors accept (float64 accumulators stay
#: exact well past 16-bit codes; 32-bit means "not quantized" here).
MIN_EXECUTOR_BITS = 4
MAX_EXECUTOR_BITS = 16

_EXECUTOR_TYPES = {
    "conv": (Conv2d, QuantizedConv2d),
    "deconv": (ConvTranspose2d, QuantizedConvTranspose2d),
    "linear": (Linear, QuantizedLinear),
}


def _activation_bits(weight_bits: int) -> int:
    """Activations never drop below INT8 even for 4-bit weights."""
    return max(8, weight_bits)


def _input_scale(node: IRNode, bits: int) -> float:
    """Max-calibrated activation scale from the profiled input range."""
    alpha = node.profile.input_absmax if node.profile is not None else 0.0
    max_code = 2 ** (bits - 1) - 1
    return alpha / max_code if alpha > 0 else 1.0


def lowerable_nodes(ir: ModelIR) -> list[IRNode]:
    """IR nodes that compile to integer executors: quantized + profiled."""
    return [node for node in ir
            if node.profile is not None
            and node.compression is not None
            and MIN_EXECUTOR_BITS <= node.compression.bits
            <= MAX_EXECUTOR_BITS]


def executor_for(node: IRNode, module: Module) -> Module:
    """Compile one compressed IR node into its integer executor.

    The executor is tagged with the IR node's name (``layer_name``) so
    telemetry attached outside a
    :class:`~repro.runtime.executors.LoweredProgram` can still be
    attributed to the right layer.
    """
    expected, executor_type = _EXECUTOR_TYPES[node.kind]
    if not isinstance(module, expected):
        raise TypeError(
            f"IR node {node.name!r} is a {node.kind} but the model "
            f"provides {type(module).__name__}")
    bits = node.compression.bits
    act_bits = _activation_bits(bits)
    executor = executor_type.from_float(
        module, _input_scale(node, act_bits),
        weight_bits=bits, activation_bits=act_bits)
    object.__setattr__(executor, "layer_name", node.name)
    return executor


def lower_executors(ir: ModelIR, model: Module) -> dict[str, Module]:
    """Compile every quantized node of ``ir`` against ``model``'s layers.

    Returns ``layer name → executor``; layers absent from the mapping
    keep their float forward.  The model is not modified — attaching the
    executors to a live forward pass is the runtime's job
    (:class:`repro.runtime.executors.LoweredProgram`).  Raises
    :class:`~repro.nn.quantized.AccumulatorBoundError` if a node's
    executor cannot be certified exact.
    """
    layers = layer_map(model)
    executors: dict[str, Module] = {}
    for node in lowerable_nodes(ir):
        module = layers.get(node.name)
        if module is None:
            continue
        executors[node.name] = executor_for(node, module)
    return executors
