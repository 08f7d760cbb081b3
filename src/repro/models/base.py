"""Common interface all 3D detectors in the repo implement."""

from __future__ import annotations

import numpy as np

from repro import nn
from repro.detection.evaluation import DetectionResult
from repro.nn import Tensor
from repro.pointcloud.scenes import Scene

__all__ = ["Detector3D"]


class Detector3D(nn.Module):
    """A trainable 3D object detector.

    Subclasses provide preprocessing from a :class:`Scene` to model
    inputs, a differentiable forward, a training loss, and the decoding
    of one scene's head outputs into boxes.  Inference is composed here
    once: :meth:`predict` is the one-scene case of :meth:`predict_batch`.
    ``example_inputs`` feeds graph tracing (UPAQ Algorithm 1) and the
    hardware cost model.
    """

    #: human-readable model name used in tables
    name: str = "detector"

    def example_inputs(self) -> tuple:
        """Representative inputs for tracing/cost analysis."""
        raise NotImplementedError

    def preprocess(self, scene: Scene) -> tuple:
        """Convert a scene into forward() inputs."""
        raise NotImplementedError

    def decode(self, outputs: dict, scene: Scene) -> DetectionResult:
        """One scene's head outputs (batch axis of 1) → boxes."""
        raise NotImplementedError

    def forward_batch(self, scenes) -> dict:
        """The batched trunk: head outputs for ``scenes`` along axis 0.

        One scene runs ``forward(*preprocess(scene))`` as is; more
        concatenate each scene's single preprocess tensor and run
        ``forward`` once.  Every trunk op is batch-parallel, so each
        scene's slice equals its one-scene outputs.
        """
        if len(scenes) == 1:
            return self.forward(*self.preprocess(scenes[0]))
        return self.forward(Tensor(np.concatenate(
            [self.preprocess(scene)[0].data for scene in scenes], axis=0)))

    def predict(self, scene: Scene) -> DetectionResult:
        """Full inference on one scene: preprocess → forward → decode."""
        return self.predict_batch([scene])[0]

    def predict_batch(self, scenes) -> list[DetectionResult]:
        """Inference over a micro-batch of scenes, one result per scene.

        A model left in training mode is switched to eval once; one in
        eval mode is never written to, so threads may share it.
        """
        if not scenes:
            return []
        if self.training:
            self.eval()
        with nn.no_grad():
            outputs = self.forward_batch(scenes)
        return [self.decode({key: Tensor(value.data[i:i + 1])
                             for key, value in outputs.items()}, scene)
                for i, scene in enumerate(scenes)]

    def loss(self, outputs, scene: Scene):
        """Training loss for one frame."""
        raise NotImplementedError

    def train_step(self, optimizer, scene: Scene) -> float:
        """One optimization step on one frame; returns the loss value."""
        self.train()
        optimizer.zero_grad()
        outputs = self.forward(*self.preprocess(scene))
        loss = self.loss(outputs, scene)
        loss.backward()
        optimizer.step()
        return loss.item()
