"""The three axes of the fuzz sweep: scenarios × presets × conditions.

Every axis is a named registry so CLI flags, the committed baseline and
tests all speak the same vocabulary:

* **Scenarios** come from :data:`repro.pointcloud.SCENARIOS` — the
  adverse scene families.
* **Presets** are compression configurations: the paper's HCK/LCK mixed
  searches plus fixed-bitwidth ladders (4/8/16 bit) and an
  uncompressed ``float`` control.
* **Conditions** are runtime environments for the
  :class:`~repro.runtime.InferenceEngine`: clean streaming, seeded
  fault injection, deadline pressure with a watchdog fallback,
  micro-batching, and a multi-rung degradation ladder under transient
  pressure.

Cell identity is ``scenario|preset|condition``; every stochastic knob
inside a cell (fault schedules) is seeded from a digest of the sweep
seed and the cell key, so cells are independent of sweep order and
composition — running a subset of the matrix reproduces exactly the
cells a full sweep would have produced.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.pointcloud import scenario_names

__all__ = ["RuntimeCondition", "FuzzConfig", "PRESETS", "CONDITIONS",
           "DEFAULT_SCENARIOS", "DEFAULT_PRESETS", "DEFAULT_CONDITIONS",
           "preset_names", "condition_names", "cell_key", "cell_seed",
           "build_fuzz_model", "build_preset_config"]


# ---------------------------------------------------------------------------
# Compression presets
# ---------------------------------------------------------------------------

#: preset name → UPAQConfig factory kwargs; ``None`` marks the
#: uncompressed float control.
_PRESET_RECIPES: dict[str, tuple[str, dict] | None] = {
    "float": None,
    "hck": ("hck", {}),
    "lck": ("lck", {}),
    "hck-4bit": ("hck", {"quant_bits": (4,)}),
    "hck-8bit": ("hck", {"quant_bits": (8,)}),
    "lck-8bit": ("lck", {"quant_bits": (8,)}),
    "lck-16bit": ("lck", {"quant_bits": (16,)}),
}

PRESETS = tuple(_PRESET_RECIPES)


def preset_names() -> tuple:
    return PRESETS


def build_preset_config(name: str):
    """The UPAQConfig for a preset name; ``None`` for ``float``."""
    try:
        recipe = _PRESET_RECIPES[name]
    except KeyError:
        known = ", ".join(_PRESET_RECIPES)
        raise KeyError(f"unknown preset {name!r}; known: {known}") from None
    if recipe is None:
        return None
    from repro.core import hck_config, lck_config
    family, overrides = recipe
    factory = {"hck": hck_config, "lck": lck_config}[family]
    return factory(**overrides)


# ---------------------------------------------------------------------------
# Runtime conditions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RuntimeCondition:
    """One runtime environment a cell's stream is run under."""

    name: str
    description: str
    deadline_ms: float = 50.0
    batch_size: int = 1
    #: fault injection knobs (zero rates disable the injector entirely)
    drop_rate: float = 0.0
    corrupt_rate: float = 0.0
    nan_fraction: float = 0.05
    jitter: str = "none"
    jitter_ms: float = 0.0
    on_corrupt: str = "last_good"
    miss_limit: int = 3
    #: lower rungs of a degradation ladder (the cell's preset is the
    #: primary rung; it is skipped here if repeated)
    ladder_presets: tuple | None = None
    #: ladder promotion knobs (see DegradationLadder)
    promote_after: int = 0
    probation: int = 0
    #: transient deadline pressure: frames with ``frame_id <
    #: pressure_frames`` have their device latency multiplied by
    #: ``pressure_factor`` through the engine's cost hook
    pressure_factor: float = 0.0
    pressure_frames: int = 0

    @property
    def injects_faults(self) -> bool:
        return (self.drop_rate > 0 or self.corrupt_rate > 0
                or self.jitter != "none")


CONDITIONS: dict[str, RuntimeCondition] = {
    "clean": RuntimeCondition(
        name="clean",
        description="fault-free stream under a comfortable 50 ms deadline"),
    "faulty": RuntimeCondition(
        name="faulty",
        description="seeded chaos: frame drops, NaN-poisoned clouds and "
                    "heavy-tailed latency jitter",
        drop_rate=0.15, corrupt_rate=0.15, nan_fraction=0.3,
        jitter="lognormal", jitter_ms=4.0),
    "pressure": RuntimeCondition(
        name="pressure",
        description="impossible deadline: every frame misses, arming the "
                    "watchdog swap to a 4-bit fallback after 2 misses",
        deadline_ms=1e-3, miss_limit=2, ladder_presets=("hck-4bit",)),
    "batched": RuntimeCondition(
        name="batched",
        description="clean stream through a batch-3 micro-batching window",
        batch_size=3),
    "ladder": RuntimeCondition(
        name="ladder",
        description="transient deadline pressure on the first frame "
                    "demotes through a preset degradation ladder, then "
                    "on-deadline frames promote back to the primary",
        miss_limit=1,
        ladder_presets=("lck-8bit", "hck-8bit", "hck-4bit"),
        promote_after=1,
        pressure_factor=1e6, pressure_frames=1),
}


def condition_names() -> tuple:
    return tuple(CONDITIONS)


# ---------------------------------------------------------------------------
# Sweep configuration
# ---------------------------------------------------------------------------

DEFAULT_SCENARIOS = scenario_names()
DEFAULT_PRESETS = ("hck", "lck", "hck-4bit", "lck-16bit")
DEFAULT_CONDITIONS = ("clean", "faulty", "pressure")


@dataclass(frozen=True)
class FuzzConfig:
    """One sweep: which cells to run and how to run each stream."""

    scenarios: tuple = DEFAULT_SCENARIOS
    presets: tuple = DEFAULT_PRESETS
    conditions: tuple = DEFAULT_CONDITIONS
    frames_per_cell: int = 3
    seed: int = 0
    #: ``tiny`` is the fast reduced PointPillars the runtime test-suite
    #: uses; ``pointpillars`` sweeps the full reduced-scale model.
    model: str = "tiny"
    execution: str = "reference"
    device: str = "jetson"

    def __post_init__(self):
        if self.frames_per_cell < 1:
            raise ValueError("frames_per_cell must be >= 1")
        unknown = [s for s in self.scenarios if s not in scenario_names()]
        if unknown:
            raise ValueError(
                f"unknown scenarios {unknown}; known: "
                f"{', '.join(scenario_names())}")
        unknown = [p for p in self.presets if p not in PRESETS]
        if unknown:
            raise ValueError(
                f"unknown presets {unknown}; known: {', '.join(PRESETS)}")
        unknown = [c for c in self.conditions if c not in CONDITIONS]
        if unknown:
            raise ValueError(
                f"unknown conditions {unknown}; known: "
                f"{', '.join(CONDITIONS)}")

    @property
    def num_cells(self) -> int:
        return (len(self.scenarios) * len(self.presets)
                * len(self.conditions))

    def cells(self):
        """All (scenario, preset, condition) triples, in axis order."""
        for scenario in self.scenarios:
            for preset in self.presets:
                for condition in self.conditions:
                    yield scenario, preset, condition


def cell_key(scenario: str, preset: str, condition: str) -> str:
    """The canonical ``scenario|preset|condition`` cell identifier."""
    return f"{scenario}|{preset}|{condition}"


def cell_seed(sweep_seed: int, key: str) -> int:
    """A stable per-cell seed independent of sweep order/composition."""
    digest = hashlib.blake2b(f"{sweep_seed}:{key}".encode("utf-8"),
                             digest_size=8).digest()
    return int.from_bytes(digest, "big")


# ---------------------------------------------------------------------------
# Models under test
# ---------------------------------------------------------------------------

_FUZZ_MODELS = ("tiny", "pointpillars")


def build_fuzz_model(name: str = "tiny", seed: int = 1):
    """Construct the detector a sweep compresses and streams.

    ``tiny`` mirrors the reduced PointPillars the runtime tests pin
    their byte-exactness suites on — small enough that a full default
    matrix sweeps in about a minute; ``pointpillars`` is the registry's
    reduced-scale model.
    """
    if name == "tiny":
        from repro.models import PointPillars
        from repro.pointcloud import PillarConfig
        return PointPillars(
            pillar_config=PillarConfig(x_range=(0, 25.6),
                                       y_range=(-12.8, 12.8)),
            pfn_channels=8, stage_channels=(8, 16, 32),
            stage_depths=(1, 1, 1), upsample_channels=8, seed=seed)
    if name == "pointpillars":
        from repro.models import build_model
        return build_model("pointpillars")
    raise KeyError(f"unknown fuzz model {name!r}; known: "
                   f"{', '.join(_FUZZ_MODELS)}")
