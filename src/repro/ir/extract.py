"""IR extraction — the single place the model graph is ever traced.

``extract_ir`` runs **one** forward pass with profiling hooks installed
while :func:`repro.nn.graph.compute_graph` records the autograd
structure, then lifts both into a :class:`~repro.ir.ModelIR`: nodes in
dataflow order, predecessor edges, per-layer cost stats, and the current
compression annotations.  Every other stage (grouping, plan lowering,
packing, the runtime) consumes the resulting IR; none of them re-trace.
"""

from __future__ import annotations

from repro.hardware.profile import profiling
from repro.nn.graph import compute_graph, layer_map, topological_layers
from repro.nn.layers import Conv2d, ConvTranspose2d
from repro.nn.module import Module

from .model_ir import IRNode, ModelIR

__all__ = ["extract_ir"]


def _node_from_module(name: str, module: Module) -> IRNode:
    """Static (shape-level) facts of one kernel layer."""
    if isinstance(module, Conv2d):
        kind = "conv"
    elif isinstance(module, ConvTranspose2d):
        kind = "deconv"
    else:
        kind = "linear"
    weight = module.weight.data
    weight_count = int(weight.size)
    if getattr(module, "bias", None) is not None:
        weight_count += int(module.bias.size)
    return IRNode(
        name=name, kind=kind,
        kernel_size=getattr(module, "kernel_size", 1),
        stride=getattr(module, "stride", 1),
        padding=getattr(module, "padding", 0),
        in_channels=getattr(module, "in_channels",
                            getattr(module, "in_features", 0)),
        out_channels=getattr(module, "out_channels",
                             getattr(module, "out_features", 0)),
        weight_shape=tuple(weight.shape),
        macs=0, weight_count=weight_count)


def extract_ir(model: Module, *example_inputs,
               name: str | None = None) -> ModelIR:
    """Trace one forward pass and lift it into a :class:`ModelIR`.

    The same pass feeds both the autograd graph walk (edges, topological
    order) and the profiling hooks (MACs, byte traffic, activation
    ranges), so extraction costs exactly one model evaluation.  Current
    compression annotations are captured as well; re-run
    :meth:`ModelIR.annotate_from` after compressing to refresh them.
    """
    with profiling(model, name=name) as profile:
        graph = compute_graph(model, *example_inputs)

    layers = layer_map(model)
    stats = profile.by_name()
    ir = ModelIR(model_name=profile.model_name,
                 norm_output_bytes=profile.norm_output_bytes)
    for layer_name in topological_layers(graph):
        node = _node_from_module(layer_name, layers[layer_name])
        node.predecessors = tuple(graph.predecessors(layer_name))
        measured = stats.get(layer_name)
        if measured is not None:
            node.macs = measured.macs
            node.profile = measured
        ir.nodes.append(node)
    return ir.annotate_from(model)
