"""Batched inference equals sequential inference for every detector.

``predict_batch(scenes)`` runs one trunk pass over the whole list and
decodes each scene's slice; it must give, byte for byte, the boxes,
labels and scores of ``predict`` called on each scene in turn.
"""

import numpy as np
import pytest

from repro.camera import render_scene
from repro.models import MODEL_REGISTRY, build_model
from repro.pointcloud import LidarConfig, SceneConfig, SceneGenerator

from .conftest import TINY_CAMERA, TINY_PILLARS, TINY_SMOKE, TINY_VOXELS

TINY_CONFIGS = {"pointpillars": TINY_PILLARS, "second": TINY_VOXELS,
                "focalsconv": TINY_VOXELS, "vsc": TINY_VOXELS,
                "smoke": TINY_SMOKE, "monoflex": TINY_SMOKE}


@pytest.fixture(scope="module")
def scenes():
    cfg = SceneConfig(x_range=(5, 24), y_range=(-10, 10),
                      lidar=LidarConfig(channels=12, azimuth_steps=90))
    generator = SceneGenerator(cfg, seed=5)
    out = []
    for frame_id in range(3):
        scene = generator.generate(frame_id, with_image=False)
        scene.image = render_scene(TINY_CAMERA, scene.boxes,
                                   rng=np.random.default_rng(frame_id))
        out.append(scene)
    return out


def _as_bytes(result):
    return (result.frame_id,
            [(box.label, np.asarray(box.as_vector(), np.float64).tobytes(),
              np.float64(box.score).tobytes()) for box in result.boxes])


def test_every_registry_model_is_covered():
    assert set(TINY_CONFIGS) == set(MODEL_REGISTRY)


@pytest.mark.parametrize("name", sorted(TINY_CONFIGS))
def test_predict_batch_equals_sequential_predict(name, scenes):
    model = build_model(name, seed=0, score_threshold=0.0,
                        **TINY_CONFIGS[name]).train()
    batched = model.predict_batch(scenes)
    # The first predict left the training-mode model in eval mode.
    assert not any(module.training for module in model.modules())
    sequential = [model.predict(scene) for scene in scenes]
    assert sum(len(result.boxes) for result in sequential) > 0
    assert [_as_bytes(r) for r in batched] == \
        [_as_bytes(r) for r in sequential]
