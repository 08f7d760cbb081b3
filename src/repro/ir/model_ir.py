"""The layer-level intermediate representation every stage consumes.

UPAQ's algorithms all operate on one view of the model: the
topologically ordered list of kernel-bearing layers plus the activation
edges between them.  :class:`ModelIR` is that view, extracted **once**
per model (see :func:`repro.ir.extract_ir`) and then annotated in place:

* grouping (Algorithm 1) walks :attr:`IRNode.predecessors`;
* profiling writes each layer's :class:`~repro.hardware.profile.LayerProfile`
  into the :attr:`IRNode.profile` slot;
* compression writes bits/scheme/measured-sparsity into the
  :attr:`IRNode.compression` slot (:meth:`ModelIR.annotate_from`);
* the two lowerings — :func:`repro.hardware.deploy.lower_to_plan` (cost)
  and :func:`repro.ir.lowering.lower_executors` (executable) — read the
  annotated IR and never re-trace the model.

The IR serializes to plain JSON (:meth:`ModelIR.to_json`), which is what
``repro ir dump`` prints and what packed blobs (format v4) embed so a
restored checkpoint can be re-lowered without the original float model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.hardware.profile import LayerProfile

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["IRNode", "CompressionInfo", "ModelIR"]

#: Layer kinds the IR understands (mirrors ``nn.graph.KERNEL_LAYER_TYPES``).
NODE_KINDS = ("conv", "deconv", "linear")

#: Pruning schemes a node's compression annotation may carry.
SCHEME_NAMES = ("dense", "unstructured", "structured", "semi-structured")


@dataclass
class CompressionInfo:
    """How one IR node was compressed — the mutable compression slot.

    Unlike the module-level :class:`~repro.hardware.deploy.CompressionMeta`
    a framework attaches while searching, this records the *measured*
    outcome: the actual weight sparsity and kernel count the plan
    lowering prices.
    """

    bits: int = 32
    scheme: str = "dense"
    sparsity: float = 0.0        # fraction of weights exactly zero
    kernel_count: int = 0        # number of k×k kernels (pattern ids)

    def __post_init__(self):
        if self.scheme not in SCHEME_NAMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; "
                             f"expected one of {sorted(SCHEME_NAMES)}")
        if not 1 <= self.bits <= 32:
            raise ValueError(f"bits must be in [1, 32], got {self.bits}")


@dataclass
class IRNode:
    """One kernel-bearing layer of the model graph.

    The static fields describe what the layer *is*; the two annotation
    slots (``profile``, ``compression``) describe what profiling
    measured and what compression decided, and are filled in by the
    respective stages.
    """

    name: str
    kind: str                    # "conv" | "deconv" | "linear"
    kernel_size: int
    stride: int
    padding: int
    in_channels: int
    out_channels: int
    weight_shape: tuple
    macs: int
    weight_count: int
    #: upstream kernel layers feeding this node, in trace order
    predecessors: tuple = ()
    #: annotation slot — per-layer cost stats from the profiling pass
    profile: LayerProfile | None = None
    #: annotation slot — the compression outcome the lowerings price
    compression: CompressionInfo | None = None

    @property
    def signature(self) -> tuple:
        """Kernel properties that must match for a mask to transfer."""
        return (self.kind, self.kernel_size)

    def to_json(self) -> dict:
        record = {
            "name": self.name, "kind": self.kind,
            "kernel_size": self.kernel_size, "stride": self.stride,
            "padding": self.padding, "in_channels": self.in_channels,
            "out_channels": self.out_channels,
            "weight_shape": list(self.weight_shape), "macs": self.macs,
            "weight_count": self.weight_count,
            "predecessors": list(self.predecessors),
        }
        if self.profile is not None:
            record["profile"] = {
                "output_elements": self.profile.output_elements,
                "input_bytes_fp32": self.profile.input_bytes_fp32,
                "output_bytes_fp32": self.profile.output_bytes_fp32,
                "input_absmax": self.profile.input_absmax,
            }
        if self.compression is not None:
            record["compression"] = {
                "bits": self.compression.bits,
                "scheme": self.compression.scheme,
                "sparsity": self.compression.sparsity,
                "kernel_count": self.compression.kernel_count,
            }
        return record

    @staticmethod
    def from_json(record: dict) -> "IRNode":
        node = IRNode(
            name=record["name"], kind=record["kind"],
            kernel_size=int(record["kernel_size"]),
            stride=int(record["stride"]), padding=int(record["padding"]),
            in_channels=int(record["in_channels"]),
            out_channels=int(record["out_channels"]),
            weight_shape=tuple(record["weight_shape"]),
            macs=int(record["macs"]),
            weight_count=int(record["weight_count"]),
            predecessors=tuple(record["predecessors"]))
        stats = record.get("profile")
        if stats is not None:
            node.profile = LayerProfile(
                name=node.name, kind=node.kind,
                kernel_size=node.kernel_size,
                in_channels=node.in_channels,
                out_channels=node.out_channels,
                output_elements=int(stats["output_elements"]),
                macs=node.macs, weight_count=node.weight_count,
                input_bytes_fp32=int(stats["input_bytes_fp32"]),
                output_bytes_fp32=int(stats["output_bytes_fp32"]),
                input_absmax=float(stats["input_absmax"]))
        meta = record.get("compression")
        if meta is not None:
            node.compression = CompressionInfo(
                bits=int(meta["bits"]), scheme=meta["scheme"],
                sparsity=float(meta["sparsity"]),
                kernel_count=int(meta["kernel_count"]))
        return node


@dataclass
class ModelIR:
    """Topologically ordered layer-level IR of one model."""

    model_name: str
    nodes: list = field(default_factory=list)     # IRNode, dataflow order
    #: fp32 bytes output by normalization layers (see ModelProfile)
    norm_output_bytes: int = 0

    def __iter__(self):
        return iter(self.nodes)

    def __len__(self) -> int:
        return len(self.nodes)

    def node(self, name: str) -> IRNode:
        for candidate in self.nodes:
            if candidate.name == name:
                return candidate
        raise KeyError(name)

    def by_name(self) -> dict:
        return {node.name: node for node in self.nodes}

    @property
    def layer_names(self) -> list:
        return [node.name for node in self.nodes]

    @property
    def edges(self) -> list:
        """(upstream, downstream) activation edges, per-node trace order."""
        return [(pred, node.name) for node in self.nodes
                for pred in node.predecessors]

    def graph(self) -> nx.DiGraph:
        """The IR as a networkx DiGraph (for visualization/analysis)."""
        import networkx as nx
        graph = nx.DiGraph()
        graph.add_nodes_from(self.layer_names)
        graph.add_edges_from(self.edges)
        return graph

    # ------------------------------------------------------------------
    # Annotation
    # ------------------------------------------------------------------
    def annotate_from(self, model) -> "ModelIR":
        """Refresh every node's compression slot from ``model``'s layers.

        Reads the framework-attached
        :class:`~repro.hardware.deploy.CompressionMeta` plus the layer's
        *actual* weight sparsity.  Called after a compression pass so
        lowering prices what was really applied — shapes and MACs are
        untouched, so no re-trace or re-profile is needed.
        """
        from repro.hardware.deploy import get_annotation
        from repro.nn.graph import layer_map

        layers = layer_map(model)
        for node in self.nodes:
            module = layers.get(node.name)
            if module is None:
                continue
            meta = get_annotation(module)
            weights = module.weight.data
            if weights.ndim == 4:
                kernel_count = weights.shape[0] * weights.shape[1]
            else:
                kernel_count = weights.shape[0]
            node.compression = CompressionInfo(
                bits=meta.bits, scheme=meta.scheme,
                sparsity=float((weights == 0).mean()),
                kernel_count=int(kernel_count))
        return self

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        return {
            "model_name": self.model_name,
            "norm_output_bytes": self.norm_output_bytes,
            "nodes": [node.to_json() for node in self.nodes],
        }

    @staticmethod
    def from_json(record: dict) -> "ModelIR":
        return ModelIR(
            model_name=record["model_name"],
            norm_output_bytes=int(record["norm_output_bytes"]),
            nodes=[IRNode.from_json(entry) for entry in record["nodes"]])
