"""Binding lowered integer executors to a live model forward pass.

:func:`repro.ir.lowering.lower_executors` compiles a compressed
:class:`~repro.ir.ModelIR` into per-layer integer executors;
:class:`LoweredProgram` is the runtime object that owns them and swaps
them into the model's kernel layers for the duration of a forward pass
(the same ``object.__setattr__`` patching discipline the profiler
uses — no model surgery, fully reversible, exception-safe).

The program runs in one of three modes sharing the same executors:

* ``"lowered"`` — int64 multiply-accumulate per layer;
* ``"lowered-sparse"`` — the same integer path, but each prediction
  runs inside an activated :class:`~repro.nn.occupancy.OccupancyContext`
  so the scatter reports the frame's occupied-canvas bbox and the
  executors skip verified all-zero input columns at runtime;
* ``"reference"`` — float64 fake-quant reference semantics.

All modes are bit-for-bit identical after the final rescale (see
:mod:`repro.nn.quantized`; the sparse mode verifies every window
against the actual codes before using it), which is what lets the
engine's parity tests compare whole detection outputs with ``==``.

The program also owns the per-layer telemetry collectors
(:meth:`LoweredProgram.enable_telemetry`): one
:class:`~repro.runtime.telemetry.LayerTelemetry` per executor, strictly
opt-in, populated by the executors while they run.
"""

from __future__ import annotations

import threading
import weakref
from contextlib import contextmanager, nullcontext

from repro.nn.graph import layer_map
from repro.nn.layers import Conv2d, ConvTranspose2d, Linear
from repro.nn.module import Module
from repro.nn.occupancy import activate_occupancy

from .telemetry import LayerTelemetry, telemetry_digest

__all__ = ["LoweredProgram", "EXECUTION_MODES"]

EXECUTION_MODES = ("reference", "lowered", "lowered-sparse")

# One re-entrant lock per model object, shared by every program that
# attaches to it: patching rewrites the *model's* ``forward`` slots, so
# exclusion must be per model, not per program.  The locks live here,
# not on the model, so models still pickle (process replicas) and
# deep-copy; weak keys let a model and its lock be collected together.
_MODEL_LOCKS: "weakref.WeakKeyDictionary[Module, threading.RLock]" = \
    weakref.WeakKeyDictionary()
_MODEL_LOCKS_GUARD = threading.Lock()


def _model_lock(model: Module) -> threading.RLock:
    with _MODEL_LOCKS_GUARD:
        lock = _MODEL_LOCKS.get(model)
        if lock is None:
            lock = _MODEL_LOCKS[model] = threading.RLock()
        return lock


class LoweredProgram:
    """A model's quantized layers compiled to executable integer kernels.

    Parameters
    ----------
    executors:
        ``layer name → executor`` as produced by
        :func:`repro.ir.lowering.lower_executors`.
    mode:
        ``"lowered"`` runs the integer path, ``"lowered-sparse"`` the
        integer path under a per-frame occupancy context (skipping
        verified all-zero columns), ``"reference"`` the float64
        fake-quant reference path of the same executors.
    telemetry:
        When true, attach a per-layer counter to every executor on
        construction (equivalent to calling :meth:`enable_telemetry`).
    """

    def __init__(self, executors: dict[str, Module],
                 mode: str = "lowered", telemetry: bool = False):
        if mode not in EXECUTION_MODES:
            raise ValueError(f"unknown execution mode {mode!r}; "
                             f"expected one of {EXECUTION_MODES}")
        self.executors = dict(executors)
        self.mode = mode
        #: ``layer name → LayerTelemetry`` — empty until telemetry is
        #: enabled; the counters are live objects the executors update.
        self.telemetry: dict[str, LayerTelemetry] = {}
        # Attachment mutates the executors' telemetry slots, so a
        # program shared by several workers is attached by one at a
        # time (the model's own lock, taken after this one, guards its
        # forward slots).  Re-entrant so one thread may enable
        # telemetry around its own attachment.
        self._attach_lock = threading.RLock()
        if telemetry:
            self.enable_telemetry()

    def __len__(self) -> int:
        return len(self.executors)

    # ------------------------------------------------------------------
    # Pickling (process-backed serving replicas)
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        """Everything but the attach lock, which is process-local."""
        state = dict(self.__dict__)
        del state["_attach_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._attach_lock = threading.RLock()

    @property
    def layer_names(self) -> list[str]:
        return list(self.executors)

    # ------------------------------------------------------------------
    # Telemetry ownership
    # ------------------------------------------------------------------
    def enable_telemetry(self, collectors: dict[str, LayerTelemetry]
                         | None = None) -> dict[str, LayerTelemetry]:
        """Attach one counter per executor; returns the collector map.

        ``collectors`` lets a caller (the engine) supply a long-lived
        map so counters survive the program being re-lowered — e.g.
        across a watchdog fallback swap; missing entries are created.
        Telemetry is strictly opt-in: until this is called, executors
        carry ``telemetry = None`` and count nothing.
        """
        with self._attach_lock:
            store = self.telemetry if collectors is None else collectors
            for name, executor in self.executors.items():
                counter = store.get(name)
                if counter is None:
                    counter = LayerTelemetry(layer=name)
                    store[name] = counter
                object.__setattr__(executor, "telemetry", counter)
            self.telemetry = store
            return store

    def disable_telemetry(self) -> None:
        """Detach counters from the executors (the map is kept)."""
        with self._attach_lock:
            for executor in self.executors.values():
                object.__setattr__(executor, "telemetry", None)

    def reset_telemetry(self) -> None:
        for counter in self.telemetry.values():
            counter.reset()

    def telemetry_summary(self) -> str:
        """One-line digest of the attached counters."""
        if not self.telemetry:
            return "telemetry: disabled"
        return telemetry_digest(self.telemetry)

    # ------------------------------------------------------------------
    def _run_fn(self, executor: Module):
        if self.mode == "reference":
            return executor.reference
        return executor.forward

    @contextmanager
    def attached(self, model: Module):
        """Patch ``model``'s layers to run through the executors.

        Layers without an executor (unquantized, or absent from the
        IR) keep their float forward.  Original forwards are restored
        on exit even when inference raises.  Restoration walks the
        patch list in *reverse* order: when two IR names resolve to the
        same shared module, the second patch captured the first
        ``routed`` as its "original", and only a LIFO unwind puts the
        true original back.  Patched forwards pass every argument
        through to the executor, so a call the executor cannot satisfy
        fails loudly instead of silently dropping arguments.

        In ``"lowered-sparse"`` mode the whole attachment additionally
        runs under a fresh :func:`~repro.nn.occupancy.activate_occupancy`
        context: the scatter(s) executed inside the block observe the
        occupied canvas, and the executors use the resulting bbox — for
        a micro-batched window the bbox is the union across the member
        frames, because every scatter observes into this one context.

        Attachment is exclusive per program *and* per model: the block
        holds the program's attach lock (which also guards its
        telemetry slots), then the model's lock, always in that order.
        The model lock is what keeps two programs over one shared model
        — two serving replicas built from one model object — from
        interleaving their patches: without it one could restore the
        float forwards, or leave its ``routed`` installed, while the
        other is mid-window.  Windows over a shared model therefore
        run one at a time; parallelism needs a model per replica.
        """
        with self._attach_lock, _model_lock(model):
            layers = layer_map(model)
            patched: list[tuple[Module, object]] = []
            for name, executor in self.executors.items():
                module = layers.get(name)
                if module is None:
                    continue
                original = module.forward
                run = self._run_fn(executor)

                def routed(*args, _run=run, **kwargs):
                    return _run(*args, **kwargs)

                object.__setattr__(module, "forward", routed)
                patched.append((module, original))
            occupancy = (activate_occupancy()
                         if self.mode == "lowered-sparse" else nullcontext())
            try:
                with occupancy:
                    yield model
            finally:
                for module, original in reversed(patched):
                    object.__setattr__(module, "forward", original)

    def covers_kernels(self, model: Module) -> bool:
        """Whether every kernel layer of ``model`` has an executor.

        The micro-batching window is only byte-identical to sequential
        execution when every conv/deconv/linear runs through an exact
        integer executor — float32 kernels batched through BLAS may
        round differently per batch shape.  Elementwise trunk ops
        (BN eval, activations, pooling, upsampling) are per-sample and
        always safe.
        """
        if not self.executors:
            return False
        kernel_types = (Conv2d, ConvTranspose2d, Linear)
        return all(name in self.executors
                   for name, module in layer_map(model).items()
                   if isinstance(module, kernel_types))

    def predict_window(self, model: Module, scenes) -> list:
        """Run a micro-batch window of scenes through ``model``.

        Uses the model's batched trunk (:meth:`Detector3D.predict_batch`)
        with the executors attached when batching is certified exact
        (:meth:`covers_kernels`); otherwise falls back to sequential
        single-frame predicts, which define the semantics either way.

        In sparse mode the batched trunk naturally sees the union bbox
        of the window (every per-scene scatter observes into the
        attachment's context); the sequential fallback instead nests a
        fresh context per frame, which keeps each frame's window tight
        instead of unioning it with its predecessors'.
        """
        scenes = list(scenes)
        if not self.executors:
            return [model.predict(scene) for scene in scenes]
        with self.attached(model):
            if len(scenes) > 1 and self.covers_kernels(model):
                return model.predict_batch(scenes)
            if self.mode == "lowered-sparse":
                results = []
                for scene in scenes:
                    with activate_occupancy():
                        results.append(model.predict(scene))
                return results
            return [model.predict(scene) for scene in scenes]

    def summary(self) -> str:
        return (f"lowered program: {len(self.executors)} integer "
                f"executors, mode={self.mode}")
