"""The recording passes still see the PFN's dense ``(1, 9, P, N)`` input.

Only eval under ``no_grad`` runs the PFN on its real points.
:func:`~repro.ir.extract_ir` (which sets the lowering scales and the
simulated per-layer cost) and LiDAR-PTQ's calibration trace run with
grad enabled whatever the caller's grad mode, so they keep recording
``pfn.conv`` over every pillar slot, padding included — also when the
caller is inside ``no_grad``.  Pinned on the benchmarked architecture, for
its example inputs (the ones the compressor and the engine trace) and
for an encoded scene, whose padding makes the dense and the real-point
inputs differ.  The recorded sizes are also pinned to literals: the
point-major encoder left them where the slot-major one had them.
"""

import contextlib

import numpy as np
import pytest

from perfbench.pipeline import architecture
from repro import nn
from repro.baselines.lidar_ptq import LidarPTQ
from repro.hardware.profile import profile_model
from repro.ir import extract_ir
from repro.pointcloud.voxelize import slot_grid

#: ``pfn.conv``'s recorded (MACs, fp32 input bytes, input absmax).
RECORDED = {"example": (110592, 55296, 3.945549726486206),
            "scene": (300672, 150336, 24.75234031677246)}


def _dense(model, inputs):
    """``pfn.conv``'s input on the graph path: the (1, 9, P, N) grid."""
    points, counts, _ = inputs
    grid, _ = slot_grid(points.data, counts,
                        model.pillar_config.max_points_per_pillar)
    return grid[None]


def _inputs(kind, scene):
    model = architecture()
    if kind == "example":
        return model, model.example_inputs()
    return model, model.preprocess(scene)


def _grad_mode(grad):
    return contextlib.nullcontext() if grad else nn.no_grad()


GRAD = pytest.mark.parametrize("grad", [True, False],
                               ids=["grad", "no_grad"])


@GRAD
@pytest.mark.parametrize("kind", ["example", "scene"])
def test_extract_ir_records_dense_pfn_conv(kind, grad, tiny_scene):
    model, inputs = _inputs(kind, tiny_scene)
    dense = _dense(model, inputs)
    if kind == "scene":
        assert inputs[0].shape[1] < dense[0, 0].size        # has padding
    with _grad_mode(grad):
        node = extract_ir(model, *inputs).node("pfn.conv")
    channels = model.pfn.out_channels
    assert node.macs == channels * dense.size
    assert node.profile.input_bytes_fp32 == dense.size * 4
    assert node.profile.input_absmax == float(np.abs(dense).max())
    assert (node.macs, node.profile.input_bytes_fp32,
            node.profile.input_absmax) == RECORDED[kind]


@GRAD
def test_profile_model_records_dense_pfn_conv(grad, tiny_scene):
    model, inputs = _inputs("scene", tiny_scene)
    with _grad_mode(grad):
        layer = profile_model(model, *inputs).by_name()["pfn.conv"]
    assert layer.input_bytes_fp32 == _dense(model, inputs).size * 4 \
        == RECORDED["scene"][1]


@GRAD
@pytest.mark.parametrize("kind", ["example", "scene"])
def test_lidar_ptq_calibrates_on_dense_pfn_conv(kind, grad, tiny_scene):
    model, inputs = _inputs(kind, tiny_scene)
    scenes = [tiny_scene] if kind == "scene" else []
    with _grad_mode(grad):
        moments = LidarPTQ(calibration_scenes=scenes)._collect_calibration(
            model, *model.example_inputs())["pfn.conv"]
    expected = (_dense(model, inputs) ** 2).mean(axis=(0, 2, 3))
    assert moments.tobytes() == expected.tobytes()
