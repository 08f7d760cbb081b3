"""Computational-graph extraction for layer grouping (UPAQ Algorithm 1).

The paper computes the model's computational graph "through
backpropagation" and runs DFS over it to find *root→leaf* layer groups.
We do the same: run a traced forward pass, walk the recorded autograd
graph from the outputs back to the inputs, and lift it to a layer-level
``networkx.DiGraph`` whose nodes are the names of parameterized layers
(convolutions and linears) and whose edges follow activation flow.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .layers import Conv2d, ConvTranspose2d, Linear
from .module import Module
from .tensor import Tensor

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["compute_graph", "layer_map", "topological_layers"]

#: Module types that carry compressible kernels.
KERNEL_LAYER_TYPES = (Conv2d, ConvTranspose2d, Linear)


def layer_map(model: Module) -> dict[str, Module]:
    """Map layer name → module for every kernel-bearing layer."""
    layers = {}
    for name, module in model.named_modules():
        if isinstance(module, KERNEL_LAYER_TYPES):
            layers[name] = module
    return layers


def _collect_outputs(result) -> list[Tensor]:
    """Flatten whatever a model's forward returned into a tensor list."""
    if isinstance(result, Tensor):
        return [result]
    if isinstance(result, (list, tuple)):
        outs = []
        for item in result:
            outs.extend(_collect_outputs(item))
        return outs
    if isinstance(result, dict):
        outs = []
        for item in result.values():
            outs.extend(_collect_outputs(item))
        return outs
    return []


def compute_graph(model: Module, *example_inputs) -> nx.DiGraph:
    """Trace a forward pass and return the layer-level dependency graph.

    Nodes are the names of kernel-bearing layers; an edge ``A -> B`` means
    B consumes (possibly through parameter-free ops such as BN, ReLU,
    pooling, reshape or addition) an activation produced by A.
    """
    layers = layer_map(model)
    param_to_layer: dict[int, str] = {}
    for name, module in layers.items():
        param_to_layer[id(module.weight)] = name

    was_training = model.training
    model.eval()
    result = model(*example_inputs)
    if was_training:
        model.train()
    outputs = _collect_outputs(result)
    if not outputs:
        raise ValueError("model forward produced no tensors to trace")

    import networkx as nx
    graph = nx.DiGraph()
    graph.add_nodes_from(layers)

    # producing_layer(tensor) = name of the layer whose op created this
    # tensor, if any (the op consumed that layer's weight parameter).
    # upstream(tensor) = set of nearest producing layers feeding tensor.
    upstream_cache: dict[int, frozenset] = {}

    def op_layer(node: Tensor) -> str | None:
        for parent in node._parents:
            name = param_to_layer.get(id(parent))
            if name is not None:
                return name
        return None

    def upstream(node: Tensor) -> frozenset:
        cached = upstream_cache.get(id(node))
        if cached is not None:
            return cached
        # Iterative DFS to avoid recursion limits on deep models.
        found: set[str] = set()
        stack = [node]
        seen: set[int] = set()
        while stack:
            current = stack.pop()
            if id(current) in seen:
                continue
            seen.add(id(current))
            if current is not node:
                cached = upstream_cache.get(id(current))
                if cached is not None:
                    found.update(cached)
                    continue
            name = op_layer(current)
            if name is not None:
                found.add(name)
                continue
            for parent in current._parents:
                if id(parent) not in param_to_layer:
                    stack.append(parent)
        result = frozenset(found)
        upstream_cache[id(node)] = result
        return result

    # Walk every op node; for layer ops, connect upstream layers to it.
    visited: set[int] = set()
    stack = list(outputs)
    while stack:
        node = stack.pop()
        if id(node) in visited:
            continue
        visited.add(id(node))
        name = op_layer(node)
        if name is not None:
            for activation in node._parents:
                if id(activation) in param_to_layer:
                    continue
                for source in upstream(activation):
                    if source != name:
                        graph.add_edge(source, name)
        for parent in node._parents:
            stack.append(parent)
    return graph


def topological_layers(graph: nx.DiGraph) -> list[str]:
    """Layer names in dataflow order (inputs first)."""
    import networkx as nx
    return list(nx.topological_sort(graph))
