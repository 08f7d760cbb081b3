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
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import partial

from repro.nn.graph import layer_map
from repro.nn.module import Module, routed

from .telemetry import LayerTelemetry

__all__ = ["LoweredProgram", "EXECUTION_MODES"]

EXECUTION_MODES = ("reference", "lowered")


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
        #: ``(model, routes, names, covers)`` for the last model bound,
        #: so the ``layer_map`` walk runs once per program/model pair
        self._binding: tuple | None = None
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

        ``collectors`` lets a caller (the engine) supply a long-lived
        map so counters survive the program being re-lowered — e.g.
        across a watchdog fallback swap; missing entries are created.
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

    def _bind(self, model: Module) -> tuple:
        """``(model, routes, names, covers)`` for ``model``, cached.

        ``routes`` maps each kernel layer with an executor to the
        executor's run function, ``names`` maps it to its layer name.
        When two layer names resolve to one shared module, the later
        name's executor runs it.
        """
        binding = self._binding
        if binding is None or binding[0] is not model:
            layers = layer_map(model)
            names = {layers[name]: name
                     for name in self.executors if name in layers}
            routes = {module: self._run_fn(self.executors[name])
                      for module, name in names.items()}
            covers = bool(self.executors) \
                and all(name in self.executors for name in layers)
            binding = self._binding = (model, routes, names, covers)
        return binding

    @contextmanager
    def attached(self, model: Module,
                 telemetry: dict[str, LayerTelemetry] | None = None):
        """Run ``model``'s kernel layers through the executors.

        Inside the block, calling a layer that has an executor runs the
        executor; layers without one (unquantized, or absent from the
        IR) keep their float forward.  The routing is local to the
        calling thread and ends with the block, also when inference
        raises.  Every argument of the layer call is passed to the
        executor, so a call the executor cannot satisfy fails loudly.

        ``telemetry`` is the ``layer name → LayerTelemetry`` map this
        block counts into (missing entries are created); ``None``
        counts into the program's default map, if any.
        """
        _, routes, names, _ = self._bind(model)
        store = self.telemetry if telemetry is None \
            else self._filled(telemetry)
        if store:
            routes = {module: partial(run, telemetry=store[names[module]])
                      for module, run in routes.items()}
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
        return self._bind(model)[3]

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
        return (f"lowered program: {len(self.executors)} integer "
                f"executors, mode={self.mode}")
