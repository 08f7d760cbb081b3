"""Running lowered integer executors in place of a model's kernel layers.

:func:`repro.ir.lowering.lower_executors` compiles a compressed
:class:`~repro.ir.ModelIR` into per-layer integer executors;
:class:`LoweredProgram` is the runtime object that owns them and routes
the model's kernel layers to them for the duration of a forward pass.
The routing goes through the layer-call seam
(:func:`repro.nn.module.routed`): inside :meth:`LoweredProgram.attached`
a call to a routed layer runs its executor instead of its float
forward, in the calling thread only.  Neither the model nor the
executors change, so any number of threads can run one model under
different programs (or under one program) at once.

A program accepts a ``mode`` of ``"lowered"`` or ``"reference"``
(:data:`EXECUTION_MODES`).  Both run each executor's one exact integer
path (see :mod:`repro.nn.quantized`); the value is kept in
:attr:`LoweredProgram.mode` because the end-to-end benchmark
(``perfbench``) builds its unpinned-seed oracle with
``execution="reference"`` and tells the two programs apart by it.

Per-layer telemetry is per call and strictly opt-in: a routed layer
hands its executor the counter for its name from the ``layer name →``
:class:`~repro.runtime.telemetry.LayerTelemetry` map of the block —
the map passed to :meth:`LoweredProgram.attached`, else the program's
default map (:meth:`LoweredProgram.enable_telemetry`).

BatchNorm and ReLU run as epilogues (see ``docs/PERFORMANCE.md``,
"Fused epilogue").  A :class:`~repro.nn.ConvBNReLU` whose conv has an
executor is routed as one call: the executor runs, then the block's
eval BatchNorm and its ReLU rewrite the executor's float32 output in
place, with the float ops of the unfused layers in their order.  Every
other BatchNorm of the model is routed to the same normalization.  The
BN constants are read once, when the program binds the model (at
engine construction): like the executors' weight codes, the program is
a snapshot.  A routed block or BN runs its module's own forward
whenever the BN is in training mode or the calling thread records
gradients.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import partial
from typing import NamedTuple

import numpy as np

from repro.nn.graph import layer_map
from repro.nn.layers import BatchNorm1d, BatchNorm2d, ConvBNReLU, ReLU, \
    batchnorm_eval
from repro.nn.module import Module, routed
from repro.nn.tensor import Tensor, is_grad_enabled

from .telemetry import LayerTelemetry

__all__ = ["LoweredProgram", "EXECUTION_MODES"]

EXECUTION_MODES = ("reference", "lowered")


class _FrozenNorm:
    """One eval BatchNorm's constants, read (and copied) when a program
    binds its model; rewriting the BN afterwards does not reach them."""

    __slots__ = ("constants",)

    def __init__(self, bn: Module):
        self.constants = tuple(np.array(c) for c in bn.eval_constants())

    def __call__(self, x: Tensor) -> Tensor:
        """The BN's no-grad eval forward on the frozen constants."""
        return Tensor(batchnorm_eval(x.data, self.constants))

    def with_relu(self, y: np.ndarray) -> None:
        """Executor epilogue: BN, then ReLU, in place on ``y``."""
        batchnorm_eval(y, self.constants, out=y)
        np.multiply(y, y > 0, out=y)


def _unless_recording(module: Module, bn: Module, fast, x):
    """``fast(x)``, or ``module.forward(x)`` while ``bn`` trains or this
    thread records gradients (the fallback that keeps the semantics)."""
    if bn.training or is_grad_enabled():
        return module.forward(x)
    return fast(x)


def _route_map(runs: dict, blocks: dict, norms: dict) -> dict:
    """Routes for each kernel layer (``runs``), each BN (``norms``) and
    each fused block: its conv's run with the BN/ReLU epilogue."""
    routes = {**runs, **norms}
    for block, norm in blocks.items():
        routes[block] = partial(
            _unless_recording, block, block.bn,
            partial(runs[block.conv], epilogue=norm.with_relu))
    return routes


class _Binding(NamedTuple):
    """What :meth:`LoweredProgram._bind` compiles for one model."""

    model: Module
    #: kernel layer → the executor's run function (``_run_fn``)
    runs: dict
    #: kernel layer → its layer name
    names: dict
    #: fused ``ConvBNReLU`` block → its BN's frozen constants
    blocks: dict
    #: every other BatchNorm → its route
    norms: dict
    #: the :func:`_route_map` used when no telemetry is counted
    routes: dict
    #: whether every kernel layer has an executor
    covers: bool


class LoweredProgram:
    """A model's quantized layers compiled to executable integer kernels.

    Parameters
    ----------
    executors:
        ``layer name → executor`` as produced by
        :func:`repro.ir.lowering.lower_executors`.
    mode:
        ``"lowered"`` or ``"reference"``; both run the executors' one
        integer path, and the value is only recorded.
    telemetry:
        When true, start with a default collector map (equivalent to
        calling :meth:`enable_telemetry`).
    """

    def __init__(self, executors: dict[str, Module],
                 mode: str = "lowered", telemetry: bool = False):
        if mode not in EXECUTION_MODES:
            raise ValueError(f"unknown execution mode {mode!r}; "
                             f"expected one of {EXECUTION_MODES}")
        self.executors = dict(executors)
        self.mode = mode
        #: default ``layer name → LayerTelemetry`` map a block counts
        #: into when it is given none; empty while telemetry is off
        self.telemetry: dict[str, LayerTelemetry] = {}
        #: the :class:`_Binding` of the last model bound, so the model
        #: walk runs once per program/model pair
        self._binding: _Binding | None = None
        if telemetry:
            self.enable_telemetry()

    def __len__(self) -> int:
        return len(self.executors)

    @property
    def layer_names(self) -> list[str]:
        return list(self.executors)

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def _filled(self, store: dict[str, LayerTelemetry]) \
            -> dict[str, LayerTelemetry]:
        """``store`` with a counter for every executor (missing ones
        created; ``setdefault`` keeps racing fillers on one counter)."""
        for name in self.executors:
            if name not in store:
                store.setdefault(name, LayerTelemetry(layer=name))
        return store

    def enable_telemetry(self, collectors: dict[str, LayerTelemetry]
                         | None = None) -> dict[str, LayerTelemetry]:
        """Set the default collector map; returns it.

        ``collectors`` lets a caller supply a long-lived map so
        counters outlive the program; missing entries are created.
        Telemetry is strictly opt-in: until this is called (or a block
        is given its own map), executors count nothing.
        """
        store = self.telemetry if collectors is None else collectors
        self.telemetry = self._filled(store)
        return self.telemetry

    def disable_telemetry(self) -> None:
        """Clear the default collector map (its counters are untouched)."""
        self.telemetry = {}

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _run_fn(self, executor: Module):
        """The callable a routed layer runs: the executor's forward, in
        either mode."""
        return executor.forward

    def _bind(self, model: Module) -> _Binding:
        """The :class:`_Binding` for ``model``, cached.

        ``runs`` maps each kernel layer with an executor to the
        executor's run function; when two layer names resolve to one
        shared module, the later name's executor runs it.  Each
        ``ConvBNReLU`` with a routed conv, a ``BatchNorm2d`` and a
        ``ReLU`` is fused (a folded block's ``Identity`` BN is not);
        every other BatchNorm is routed alone.
        Binding reads the BN constants, so it is the program's snapshot
        of them.
        """
        binding = self._binding
        if binding is None or binding.model is not model:
            layers = layer_map(model)
            names = {layers[name]: name
                     for name in self.executors if name in layers}
            runs = {module: self._run_fn(self.executors[name])
                    for module, name in names.items()}
            modules = list(model.modules())
            blocks = {module: _FrozenNorm(module.bn) for module in modules
                      if isinstance(module, ConvBNReLU)
                      and module.conv in runs
                      and type(module.bn) is BatchNorm2d
                      and type(module.act) is ReLU}
            fused_bns = {block.bn for block in blocks}
            norms = {module: partial(_unless_recording, module, module,
                                     _FrozenNorm(module))
                     for module in modules
                     if isinstance(module, (BatchNorm1d, BatchNorm2d))
                     and module not in fused_bns}
            covers = bool(self.executors) \
                and all(name in self.executors for name in layers)
            binding = self._binding = _Binding(
                model, runs, names, blocks, norms,
                _route_map(runs, blocks, norms), covers)
        return binding

    @contextmanager
    def attached(self, model: Module,
                 telemetry: dict[str, LayerTelemetry] | None = None):
        """Run ``model``'s kernel layers through the executors.

        Inside the block, calling a layer that has an executor runs the
        executor; layers without one (unquantized, or absent from the
        IR) keep their float forward.  Fused blocks and BatchNorms run
        as the module docstring describes.  The routing is local to the
        calling thread and ends with the block, also when inference
        raises.  Every argument of the layer call is passed to the
        executor, so a call the executor cannot satisfy fails loudly.

        ``telemetry`` is the ``layer name → LayerTelemetry`` map this
        block counts into (missing entries are created); ``None``
        counts into the program's default map, if any.  A fused block
        counts under its conv's name.
        """
        binding = self._bind(model)
        store = self.telemetry if telemetry is None \
            else self._filled(telemetry)
        routes = binding.routes
        if store:
            names = binding.names
            routes = _route_map(
                {module: partial(run, telemetry=store[names[module]])
                 for module, run in binding.runs.items()},
                binding.blocks, binding.norms)
        with routed(routes):
            yield model

    def covers_kernels(self, model: Module) -> bool:
        """Whether every kernel layer of ``model`` has an executor.

        The micro-batching window is only byte-identical to sequential
        execution when every conv/deconv/linear runs through an exact
        integer executor — float32 kernels batched through BLAS may
        round differently per batch shape.  Elementwise trunk ops
        (BN eval, activations, pooling, upsampling) are per-sample and
        always safe.
        """
        return self._bind(model).covers

    def predict_window(self, model: Module, scenes,
                       telemetry: dict[str, LayerTelemetry] | None = None
                       ) -> list:
        """Run a micro-batch window of scenes through ``model``.

        Uses the model's batched trunk (:meth:`Detector3D.predict_batch`)
        with the executors attached when batching is certified exact
        (:meth:`covers_kernels`); otherwise falls back to sequential
        single-frame predicts, which define the semantics either way.
        ``telemetry`` is passed to :meth:`attached`.
        """
        scenes = list(scenes)
        if not self.executors:
            return [model.predict(scene) for scene in scenes]
        with self.attached(model, telemetry):
            if len(scenes) > 1 and self.covers_kernels(model):
                return model.predict_batch(scenes)
            return [model.predict(scene) for scene in scenes]

    def summary(self) -> str:
        """One line: executor count, how many of them run a fused
        BN/ReLU epilogue on the model last bound (0 before any), and
        the mode."""
        fused = 0 if self._binding is None else len(self._binding.blocks)
        return (f"lowered program: {len(self.executors)} integer "
                f"executors, {fused} with a fused BN/ReLU epilogue, "
                f"mode={self.mode}")
