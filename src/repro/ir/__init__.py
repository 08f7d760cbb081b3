"""``repro.ir`` — the single layer-level IR every stage consumes.

One traced forward pass (:func:`extract_ir`) produces a
:class:`ModelIR`: topologically ordered :class:`IRNode`s with
predecessor edges and mutable ``profile``/``compression`` annotation
slots.  Grouping (Algorithm 1), plan compilation, packing, and the
runtime all read this IR instead of re-walking the model, and two
lowerings consume it: the cost lowering
(:func:`repro.hardware.deploy.lower_to_plan`) and the executable
integer lowering (:func:`repro.ir.lowering.lower_executors`).
"""

from .extract import extract_ir
from .lowering import executor_for, lower_executors, lowerable_nodes
from .model_ir import CompressionInfo, IRNode, ModelIR

__all__ = [
    "IRNode", "CompressionInfo", "ModelIR",
    "extract_ir",
    "lower_executors", "lowerable_nodes", "executor_for",
]
