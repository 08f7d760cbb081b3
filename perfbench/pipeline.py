"""The program under test, driven only through its public calls.

The model is the compressed tiny PointPillars the serving benchmarks
use (HCK preset).  :func:`prepare` compresses it and packs it into a
blob-v4 with its IR — untimed, and deterministic byte for byte — and
every workload restores its engine from that blob in its timed set-up,
exactly as a vehicle would boot from a shipped checkpoint.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass

import numpy as np

from repro import nn
from repro.core import UPAQCompressor, hck_config
from repro.core.packing import pack_model
from repro.hardware import default_devices
from repro.models import PointPillars
from repro.pointcloud import (LidarConfig, PillarConfig, SceneConfig,
                              SceneGenerator)
from repro.runtime import InferenceEngine

#: Distinct scenes per seed; ``frame`` and ``trunk`` cycle through all of
#: them (trunk time follows the pillar count, so a small pool would make
#: the seed, not the program, move the median), ``serve`` through the
#: first :data:`SERVE_SCENES`.
SCENES_PER_SEED = 32
SERVE_SCENES = 8
#: Seeds 0 .. PINNED_SEEDS - 1 have their outputs pinned in golden.json.
PINNED_SEEDS = 32
GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden.json")


def architecture() -> PointPillars:
    """An uncompressed instance of the benchmarked architecture.

    Module-level so a serving replica spec can pickle it by name.
    """
    return PointPillars(
        pillar_config=PillarConfig(x_range=(0, 25.6), y_range=(-12.8, 12.8)),
        pfn_channels=8, stage_channels=(8, 16, 32), stage_depths=(1, 1, 1),
        upsample_channels=8, seed=1)


def device():
    return default_devices()["jetson"]


def packed_blob() -> bytes:
    """Compress the model (HCK preset) and pack it with its IR."""
    model = architecture()
    report = UPAQCompressor(hck_config()).compress(
        model, *model.example_inputs())
    report.model.eval()
    return pack_model(report.model, ir=report.ir)


def scenes(seed: int) -> list:
    """The seed's scene pool — the only input the program receives."""
    config = SceneConfig(x_range=(5, 24), y_range=(-10, 10),
                         lidar=LidarConfig(channels=10, azimuth_steps=80))
    generator = SceneGenerator(config, seed=seed)
    return [generator.generate(frame_id, with_image=False)
            for frame_id in range(SCENES_PER_SEED)]


@dataclass
class SetupTimes:
    restore_s: float
    lowering_s: float
    warm_s: float

    @property
    def total_s(self) -> float:
        return self.restore_s + self.lowering_s + self.warm_s


def restore_engine(blob: bytes, warm_scene, *,
                   batch_size: int = 1) -> tuple[InferenceEngine, SetupTimes]:
    """Timed set-up: restore from the blob, lower, run one warm frame."""
    start = time.perf_counter()
    engine = InferenceEngine.from_packed(blob, architecture(), device(),
                                         execution="lowered",
                                         batch_size=batch_size)
    restored = time.perf_counter()
    engine.program
    engine.frame_cost()
    lowered = time.perf_counter()
    engine.run([warm_scene])
    warmed = time.perf_counter()
    return engine, SetupTimes(restored - start, lowered - restored,
                              warmed - lowered)


def run_frame(engine: InferenceEngine, scene):
    """One ``frame`` unit: scene in, boxes out, through the engine."""
    return engine.run([scene]).predictions[0]


def run_trunk(engine: InferenceEngine, scene) -> dict:
    """One ``trunk`` unit: pillarize and run the compressed network."""
    model = engine.model
    with engine.program.attached(model), nn.no_grad():
        return model.forward(*model.preprocess(scene))


def detections_digest(prediction) -> str:
    """Digest of a frame's detections: labels, boxes and scores."""
    h = hashlib.blake2b(digest_size=8)
    for box in prediction.boxes:
        h.update(box.label.encode())
        h.update(np.asarray(box.as_vector(), dtype=np.float64).tobytes())
        h.update(np.float64(box.score).tobytes())
    return h.hexdigest()


def head_digest(outputs: dict) -> str:
    """Digest of the detection head's raw outputs."""
    h = hashlib.blake2b(digest_size=8)
    for key in sorted(outputs):
        h.update(key.encode())
        h.update(np.ascontiguousarray(outputs[key].data).tobytes())
    return h.hexdigest()


#: ``kind`` → (unit function, digest function) for expected outputs.
KINDS = {"detections": (run_frame, detections_digest),
         "head": (run_trunk, head_digest)}


def expected_digests(kind: str, seed: int, blob: bytes, pool) -> dict:
    """Trusted digest of every scene's output: ``frame_id`` → digest.

    ``kind`` is ``"detections"`` (the ``frame`` output, which ``serve``
    must equal too) or ``"head"`` (the ``trunk`` output).  Seeds below
    :data:`PINNED_SEEDS` read golden.json, so any change to what the
    program outputs — NMS included — fails the unit.  Any other seed
    computes the digests from an engine restored with
    ``execution="reference"`` (the float64 fake-quant path, byte-equal
    to the lowered one): that catches a fault in lowering or the
    executors, but not one in code both paths share, such as NMS.
    """
    with open(GOLDEN_PATH) as handle:
        pinned = json.load(handle)["seeds"]
    if str(seed) in pinned:
        return {scene.frame_id: pinned[str(seed)][kind][scene.frame_id]
                for scene in pool}
    engine = InferenceEngine.from_packed(blob, architecture(), device(),
                                         execution="reference")
    unit, digest = KINDS[kind]
    return {scene.frame_id: digest(unit(engine, scene)) for scene in pool}


def write_golden() -> None:
    """Regenerate golden.json from the current program (pinned seeds)."""
    blob = packed_blob()
    engine = None
    seeds = {}
    for seed in range(PINNED_SEEDS):
        pool = scenes(seed)
        if engine is None:
            engine, _ = restore_engine(blob, pool[0])
        seeds[str(seed)] = {kind: [digest(unit(engine, scene))
                                   for scene in pool]
                            for kind, (unit, digest) in KINDS.items()}
    with open(GOLDEN_PATH, "w") as handle:
        handle.write('{"seeds": {\n')
        handle.write(",\n".join(f'"{seed}": {json.dumps(kinds)}'
                                 for seed, kinds in seeds.items()))
        handle.write("\n}}\n")


if __name__ == "__main__":
    write_golden()
