"""Deployment plans: what a TensorRT-style compiler sees.

Compression frameworks annotate each layer with a
:class:`CompressionMeta` (bits, pruning scheme).  :func:`lower_to_plan`
is the *cost lowering*: it reads an annotated
:class:`~repro.ir.ModelIR` — per-layer profile stats plus the measured
compression outcome — into a :class:`CompiledPlan`, the static
description the device models price.  It also computes the storage
footprint, which is what the paper's "compression ratio" column
measures.  :func:`compile_model` is the thin one-call wrapper that
extracts the IR and lowers it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.nn.module import Module

from .profile import LayerProfile

__all__ = ["CompressionMeta", "PlanLayer", "CompiledPlan", "compile_model",
           "lower_to_plan", "annotate_layer", "get_annotation", "SCHEMES"]

#: Pruning schemes the device models understand.  ``skip_efficiency`` is
#: the fraction of pruned MACs the hardware actually avoids: structured
#: pruning removes whole filters (fully realizable), semi-structured
#: patterns map well onto vector lanes, unstructured sparsity is hard to
#: exploit (load imbalance, irregular access — see paper §III.A).
SCHEMES = {
    "dense": 0.0,
    "unstructured": 0.40,
    "structured": 1.00,
    "semi-structured": 0.85,
}

#: Per-value index overhead (bits) the sparse storage format pays.
_INDEX_BITS = {
    "dense": 0.0,
    "unstructured": 16.0,      # coordinate per surviving weight
    "structured": 0.0,         # shape metadata only
    "semi-structured": 0.0,    # pattern id amortized per kernel (below)
}
_PATTERN_ID_BITS = 8.0         # one pattern byte per kernel
_KERNEL_SCALE_BITS = 32.0      # fp32 quantization scale per kernel
_TENSOR_SCALE_BITS = 32.0      # per-tensor scale for non-kernel schemes


@dataclass
class CompressionMeta:
    """How one layer was compressed."""

    bits: int = 32
    scheme: str = "dense"

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; "
                             f"expected one of {sorted(SCHEMES)}")
        if not 1 <= self.bits <= 32:
            raise ValueError(f"bits must be in [1, 32], got {self.bits}")


_ANNOTATION_ATTR = "_compression_meta"


def annotate_layer(module: Module, meta: CompressionMeta) -> None:
    """Attach compression metadata to a layer (frameworks call this)."""
    object.__setattr__(module, _ANNOTATION_ATTR, meta)


def get_annotation(module: Module) -> CompressionMeta:
    return getattr(module, _ANNOTATION_ATTR, CompressionMeta())


@dataclass
class PlanLayer:
    """One layer of a compiled inference plan."""

    profile: LayerProfile
    bits: int
    scheme: str
    sparsity: float              # fraction of weights that are exactly 0
    kernel_count: int            # number of k×k kernels (for pattern ids)

    @property
    def name(self) -> str:
        """The IR node / layer name this plan layer was lowered from."""
        return self.profile.name

    @property
    def effective_macs(self) -> float:
        """MACs after the hardware skips what the scheme lets it skip.

        Sparse-tensor execution units (Ampere/Orin sparse tensor cores,
        DLA) only skip zeros on the *integer* paths; fp32 semi-structured
        weights run through the dense pipeline, so pruning without
        quantization buys storage but no MACs (this is why R-TOSS shows
        ~1× speedup in the paper's Table 2 despite 4× compression).
        """
        if self.bits > 16:
            return float(self.profile.macs)
        skip = SCHEMES[self.scheme] * self.sparsity
        return self.profile.macs * (1.0 - skip)

    @property
    def weight_storage_bytes(self) -> float:
        """Bytes to store this layer's weights in its sparse format.

        Quantized kernels pay real metadata: semi-structured layers store
        one pattern id and one fp32 quantization scale per kernel; other
        quantized schemes store a per-tensor scale.  This metadata is why
        measured compression ratios sit well below the naive
        ``32/bits × 1/(1-sparsity)`` bound.
        """
        nnz = self.profile.weight_count * (1.0 - self.sparsity)
        value_bits = nnz * self.bits
        index_bits = nnz * _INDEX_BITS[self.scheme]
        meta_bits = 0.0
        if self.scheme == "semi-structured":
            meta_bits += _PATTERN_ID_BITS * self.kernel_count
        if self.bits < 32:
            if self.scheme == "semi-structured":
                meta_bits += _KERNEL_SCALE_BITS * self.kernel_count
            else:
                meta_bits += _TENSOR_SCALE_BITS
        return (value_bits + index_bits + meta_bits) / 8.0

    @property
    def activation_bytes(self) -> float:
        # Activations run at the layer's precision (min fp16 granularity).
        scale = max(self.bits, 8) / 32.0
        return (self.profile.input_bytes_fp32
                + self.profile.output_bytes_fp32) * scale


@dataclass
class CompiledPlan:
    """A full model lowered to costed layers.

    ``elementwise_bytes`` is the fp32 read+write traffic of the
    parameter-free ops between kernels (batch norm, activations,
    upsampling) — time compression never recovers, which bounds the
    achievable end-to-end speedup.
    """

    model_name: str
    layers: list[PlanLayer] = field(default_factory=list)
    dense_weight_bytes: float = 0.0
    elementwise_bytes: float = 0.0

    @property
    def compressed_weight_bytes(self) -> float:
        return sum(layer.weight_storage_bytes for layer in self.layers)

    @property
    def compression_ratio(self) -> float:
        """The paper's headline storage compression ratio."""
        compressed = self.compressed_weight_bytes
        return self.dense_weight_bytes / compressed if compressed > 0 \
            else float("inf")

    @property
    def total_effective_macs(self) -> float:
        return sum(layer.effective_macs for layer in self.layers)

    @property
    def layer_names(self) -> list[str]:
        return [layer.name for layer in self.layers]

    def cost_breakdown(self, device) -> list[tuple[str, float, float]]:
        """Per-layer ``(name, latency_s, energy_j)`` priced by ``device``.

        The attribution substrate for the runtime's deadline-miss
        tracing: the same per-layer costs
        :meth:`~repro.hardware.device.DeviceModel.latency` /
        :meth:`~repro.hardware.device.DeviceModel.energy` sum over,
        exposed layer by layer (non-kernel overhead excluded — it
        belongs to no single layer).
        """
        return [(layer.name, device.layer_latency(layer),
                 device.layer_energy(layer)) for layer in self.layers]


def lower_to_plan(ir) -> CompiledPlan:
    """Cost lowering: annotated :class:`~repro.ir.ModelIR` → costed plan.

    Each IR node carries its profile (MACs, byte traffic) and its
    measured compression outcome (bits, scheme, actual sparsity, kernel
    count); lowering is a pure read of those annotations — no model
    walk, no re-trace.  Nodes the profiling pass never saw (layers that
    did not execute) are skipped, as they contribute no runtime cost.
    """
    plan = CompiledPlan(model_name=ir.model_name)
    for node in ir:
        if node.profile is None:
            continue
        meta = node.compression
        bits = meta.bits if meta is not None else 32
        scheme = meta.scheme if meta is not None else "dense"
        sparsity = meta.sparsity if meta is not None else 0.0
        kernel_count = meta.kernel_count if meta is not None else 0
        plan.layers.append(PlanLayer(
            profile=node.profile, bits=bits, scheme=scheme,
            sparsity=sparsity, kernel_count=kernel_count))
        plan.dense_weight_bytes += node.profile.weight_count * 4.0
        # Activation nonlinearity after each kernel layer: one read and
        # one write of the layer's output.
        plan.elementwise_bytes += 2.0 * node.profile.output_bytes_fp32
    # Normalization layers: read + write of each BN output.  This is the
    # traffic conv+BN folding (repro.hardware.fuse) removes.
    plan.elementwise_bytes += 2.0 * ir.norm_output_bytes
    return plan


def compile_model(model: Module, *example_inputs) -> CompiledPlan:
    """Lower a (possibly compressed) model into a costed plan.

    Convenience wrapper: extracts the model's IR (one traced forward
    pass) and runs :func:`lower_to_plan` on it.  Pipelines that already
    hold a :class:`~repro.ir.ModelIR` should annotate and lower it
    directly instead of paying another extraction.
    """
    # Imported lazily: repro.ir consumes this module's annotations.
    from repro.ir import extract_ir
    return lower_to_plan(extract_ir(model, *example_inputs))
