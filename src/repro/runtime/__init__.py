"""``repro.runtime`` — deployment-style streaming inference.

Runs detectors over scene streams with per-frame simulated device
latency/energy accounting and real-time deadline tracking; loads packed
compressed checkpoints produced by :mod:`repro.core.packing`.  Quantized
layers execute through integer kernels lowered from the model's
:class:`~repro.ir.ModelIR` (:mod:`repro.runtime.executors`) in either
``"lowered"`` (int64) or ``"reference"`` (float64 fake-quant) mode.
The fault-tolerance layer — seeded fault injection, degradation
policies, and the deadline watchdog — lives in
:mod:`repro.runtime.faults` and
:class:`~repro.runtime.engine.DegradationPolicy`; see
``docs/ROBUSTNESS.md`` for the taxonomy.  Opt-in observability —
per-layer executor counters and per-frame deadline-miss cost
attribution — lives in :mod:`repro.runtime.telemetry`; see
``docs/OBSERVABILITY.md``.  Multi-stream serving — N concurrent client
streams multiplexed over shared compiled programs with per-stream SLOs,
admission control, backpressure and cross-stream micro-batching — lives
in :mod:`repro.runtime.serving`; see ``docs/SERVING.md``.

The names below are re-exported lazily (PEP 562): importing one
submodule — say :mod:`repro.runtime.executors` for
``EXECUTION_MODES`` — does not pull in the engine, serving and
hardware stacks.
"""

import importlib

#: public name → submodule that defines it (imported on first access)
_EXPORTS = {
    "InferenceEngine": "engine", "StreamReport": "engine",
    "FrameRecord": "engine", "DegradationPolicy": "engine",
    "DegradationLadder": "engine", "LadderRung": "engine",
    "SwapEvent": "engine",
    "FaultInjector": "faults", "FaultSpec": "faults",
    "FrameFaults": "faults",
    "LoweredProgram": "executors", "EXECUTION_MODES": "executors",
    "LayerTelemetry": "telemetry", "TraceEvent": "telemetry",
    "LayerAttribution": "telemetry", "aggregate_telemetry": "telemetry",
    "export_trace": "telemetry",
    "ServingEngine": "serving", "StreamSLO": "serving",
    "StreamHandle": "serving", "ServingStats": "serving",
    "ReplicaSpec": "serving", "SERVING_BACKENDS": "serving",
    "ServingError": "serving", "AdmissionError": "serving",
    "BackpressureError": "serving",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
