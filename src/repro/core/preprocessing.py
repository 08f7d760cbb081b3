"""UPAQ preprocessing stage (paper Algorithm 1).

Groups a model's kernel layers into *root → leaf* sets by walking the
layer-level IR (:class:`repro.ir.ModelIR`): a layer joins the group of
its nearest upstream layer with matching kernel properties (same kind
and spatial kernel size, so a k×k mask transfers); otherwise it roots
its own group.  UPAQ then searches patterns/bitwidths only on root
layers and replicates the winning choice onto leaves, shrinking the
search space.

:func:`group_layers` consumes an already-extracted IR — the normal path
inside :class:`~repro.core.compressor.UPAQCompressor`, which extracts
the IR once and shares it with profiling and plan lowering.
:func:`preprocess_model` remains the one-call convenience wrapper
(extract, then group); it no longer re-traces anything itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.nn.module import Module

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["LayerGroups", "preprocess_model", "group_layers", "find_root"]

#: Module class name → IR node kind, so module dicts and IR node dicts
#: produce identical grouping signatures.
_KIND_BY_TYPE = {"Conv2d": "conv", "ConvTranspose2d": "deconv",
                 "Linear": "linear"}


@dataclass
class LayerGroups:
    """Root→leaves grouping of a model's kernel layers."""

    groups: dict = field(default_factory=dict)   # root name → [leaf names]
    roots: dict = field(default_factory=dict)    # layer name → root name

    def group_of(self, layer_name: str) -> list[str]:
        return self.groups[self.roots[layer_name]]

    @property
    def num_groups(self) -> int:
        return len(self.groups)

    @property
    def num_layers(self) -> int:
        return sum(len(members) for members in self.groups.values())

    def __iter__(self):
        return iter(self.groups.items())


def _kernel_signature(layer) -> tuple:
    """Kernel properties that must match for a pattern to transfer.

    Accepts either an :class:`~repro.ir.IRNode` (which carries ``kind``)
    or a live module; both map onto the same (kind, kernel_size) space.
    """
    kind = getattr(layer, "kind", None)
    if kind is None:
        kind = _KIND_BY_TYPE.get(type(layer).__name__,
                                 type(layer).__name__)
    return (kind, getattr(layer, "kernel_size", 1))


def find_root(graph: nx.DiGraph, layer: str, layers: dict,
              roots: dict) -> str:
    """DFS upward from ``layer`` for the nearest compatible ancestor root.

    Mirrors the paper's ``find_root``: a layer with no compatible
    predecessor becomes its own root; otherwise it inherits the root of
    the closest compatible predecessor (BFS over incoming edges).
    ``layers`` may map names to modules or to IR nodes.
    """
    signature = _kernel_signature(layers[layer])
    frontier = list(graph.predecessors(layer))
    seen = set(frontier)
    while frontier:
        next_frontier: list[str] = []
        for predecessor in frontier:
            if _kernel_signature(layers[predecessor]) == signature \
                    and predecessor in roots:
                return roots[predecessor]
            for upstream in graph.predecessors(predecessor):
                if upstream not in seen:
                    seen.add(upstream)
                    next_frontier.append(upstream)
        frontier = next_frontier
    return layer


def group_layers(ir) -> LayerGroups:
    """Algorithm 1 over an extracted IR: root→leaf sets from IR edges."""
    graph = ir.graph()
    nodes = ir.by_name()
    result = LayerGroups()
    for node in ir:
        root = find_root(graph, node.name, nodes, result.roots)
        result.roots[node.name] = root
        result.groups.setdefault(root, [])
        result.groups[root].append(node.name)
    return result


def preprocess_model(model: Module, *example_inputs) -> LayerGroups:
    """Algorithm 1 one-call form: extract the IR, then group it."""
    from repro.ir import extract_ir
    return group_layers(extract_ir(model, *example_inputs))
