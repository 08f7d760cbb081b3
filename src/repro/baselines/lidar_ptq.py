"""LiDAR-PTQ: post-training quantization for 3D detectors (Zhou et al.).

Quantization only, no pruning and — critically — no fine-tuning: a
max–min calibrated symmetric INT8 grid with *adaptive rounding*: instead
of rounding every weight to the nearest code, borderline weights are
rounded in the direction that minimizes the layer's output
reconstruction error on calibration activations (an AdaRound-style
coordinate descent).  Sensitive boundary layers (first and last) stay at
16-bit, which is why its compression ratio lands near 3–3.5× rather than
the naive 4×.
"""

from __future__ import annotations

import numpy as np

from repro.core.quantizer import quantize_to_int
from repro.nn.module import routed
from repro.nn.tensor import enable_grad

from .base import CompressionFramework, register_framework

__all__ = ["LidarPTQ"]


def _adaptive_round(weights: np.ndarray, scale: float, bits: int,
                    calib_moments: np.ndarray | None) -> np.ndarray:
    """Error-feedback adaptive rounding (AdaRound-style).

    Per-weight nearest rounding minimizes each weight's own error but
    lets per-output errors *accumulate*: after ReLU, activations are
    non-negative and correlated, so the output error is approximately
    ``Σ_f Δw_f · E[x_f]``.  We therefore round sequentially per output
    row, steering each weight's floor/ceil choice to cancel the running
    accumulated error — a sigma-delta scheme guided by the calibration
    activations' first moments.  Falls back to unit moments without
    calibration data.
    """
    max_code = 2 ** (bits - 1) - 1
    ratio = weights / scale
    floor = np.floor(ratio)
    frac = ratio - floor

    rows = weights.shape[0] if weights.ndim > 1 else 1
    flat_frac = frac.reshape(rows, -1)
    flat_floor = floor.reshape(rows, -1)
    features = flat_frac.shape[1]

    if calib_moments is not None and calib_moments.size > 0:
        per_channel = np.sqrt(np.maximum(
            np.asarray(calib_moments, dtype=np.float64).reshape(-1), 1e-12))
        repeat = max(features // per_channel.size, 1)
        moments = np.repeat(per_channel, repeat)[:features]
        if moments.size < features:
            moments = np.pad(moments, (0, features - moments.size),
                             constant_values=float(moments.mean()))
    else:
        moments = np.ones(features)

    up = np.zeros_like(flat_frac)
    accumulated = np.zeros(rows)
    for f in range(features):
        err_up = (1.0 - flat_frac[:, f]) * scale * moments[f]
        err_down = -flat_frac[:, f] * scale * moments[f]
        choose_up = np.abs(accumulated + err_up) \
            <= np.abs(accumulated + err_down)
        up[:, f] = choose_up
        accumulated += np.where(choose_up, err_up, err_down)

    codes = np.clip((flat_floor + up).reshape(weights.shape),
                    -max_code, max_code)
    return (codes * scale).astype(np.float32)


@register_framework("lidarptq")
class LidarPTQ(CompressionFramework):
    """Max–min calibrated PTQ with adaptive rounding; no fine-tuning."""

    name = "LiDAR-PTQ"
    uses_finetuning = False

    def __init__(self, bits: int = 8, boundary_bits: int = 16,
                 calibration_scenes=None):
        self.bits = bits
        self.boundary_bits = boundary_bits
        self.calibration_scenes = calibration_scenes or []

    def _collect_calibration(self, model, *example_inputs) -> dict:
        """Capture per-layer input activations on calibration data.

        The forwards run with grad enabled whatever the caller's mode,
        so the moments come from the graph path (the PFN's dense pillar
        grid), not the real-point inference path.
        """
        captured: dict[str, list] = {}

        def make_hook(name, module):
            def wrapper(*args, **kwargs):
                x = args[0]
                data = x.data
                if data.ndim == 4:        # (N, C, H, W): per-channel E[x²]
                    moments = (data ** 2).mean(axis=(0, 2, 3))
                else:                     # (N, F): per-feature E[x²]
                    moments = (data ** 2).mean(axis=0).reshape(-1)
                captured.setdefault(name, []).append(moments)
                return module.forward(*args, **kwargs)

            return wrapper

        hooks = {module: make_hook(name, module)
                 for name, module in self._kernel_layers(model).items()}
        with routed(hooks), enable_grad():
            runs = []
            if self.calibration_scenes and hasattr(model, "preprocess"):
                runs = [model.preprocess(s) for s in self.calibration_scenes]
            if not runs:
                runs = [example_inputs]
            for inputs in runs:
                model.eval()
                model(*inputs)
        return {name: np.mean(np.stack(chunks), axis=0)
                for name, chunks in captured.items()}

    def _compress_in_place(self, model, report, *example_inputs) -> None:
        calibration = self._collect_calibration(model, *example_inputs)
        layers = self._kernel_layers(model)
        names = list(layers)
        boundary = {names[0], names[-1]} if names else set()

        for layer_name, module in layers.items():
            weights = module.weight.data
            bits = self.boundary_bits if layer_name in boundary else self.bits
            _, scale = quantize_to_int(weights, bits)
            calib = calibration.get(layer_name)
            rounded = _adaptive_round(weights.astype(np.float64), scale,
                                      bits, calib)
            quantized = rounded.astype(np.float32)
            noise_var = float((weights - quantized).var())
            signal_var = float(weights.var())
            sqnr = signal_var / noise_var if noise_var > 1e-20 \
                else float("inf")
            module.weight.data = quantized
            self._record(report, module, layer_name,
                         mask=np.ones_like(weights, dtype=np.float32),
                         bits=bits, scheme="dense", sqnr=sqnr,
                         pattern="ptq")
