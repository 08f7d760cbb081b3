"""The PFN's real-point inference path ≡ its autograd graph path.

Under eval and ``no_grad`` :class:`PillarFeatureNet` runs conv → BN →
ReLU on the M pillar-major points alone and pools each pillar with one
segment max.  These tests pin its output byte for byte to the
grad-enabled graph path over the dense ``(P, N)`` slot grid, with zeros
canonicalized to +0.0 (the segment max ranks ±0.0 ties differently from
the graph's max over slots, so the fast path adds 0.0): single-point,
full and ragged pillars, a channel that is all negative before the
ReLU, a channel of mixed-sign zeros, pillars without a point and a
scene without a point in range.

For the integer executor the parity is exact by construction; for the
float conv it depends on the BLAS rounding each column alike at any
matrix width, so it is measured here over point counts up to ~8k.

Also pinned: what the lowered ``pfn.conv`` counts in telemetry (real
points only), and that neither the float conv nor the lowered one's
identity 1×1 plan builds geometry in the shared im2col cache (nor an
entry in the executor's plan memo), however the point count changes.
"""

import dataclasses

import numpy as np
import pytest

from repro import nn
from repro.models import PointPillars
from repro.models.pointpillars.pfn import PillarFeatureNet
from repro.nn import Tensor
from repro.nn import functional as F
from repro.nn.quantized import QuantizedConv2d, activation_scale
from repro.runtime.executors import LoweredProgram
from tests.models.conftest import TINY_PILLARS

CHANNELS = 8
MAX_POINTS = 24


def _pillars(seed, empty=()):
    """(9, M) pillar-major points + counts: full, single-point and
    ragged pillars, and no point at all for the ``empty`` pillars."""
    rng = np.random.default_rng(seed)
    counts = np.concatenate([[MAX_POINTS, 1, MAX_POINTS, 1],
                             rng.integers(1, MAX_POINTS + 1, 12)])
    counts[list(empty)] = 0
    points = rng.standard_normal((9, counts.sum())).astype(np.float32)
    return points, counts


def _pfn(seed):
    pfn = PillarFeatureNet(out_channels=CHANNELS,
                           rng=np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    pfn.bn.running_mean[:] = rng.standard_normal(CHANNELS) * 0.1
    pfn.bn.running_var[:] = rng.uniform(0.5, 2.0, CHANNELS)
    # Channel 0 is negative everywhere: the ReLU leaves -0.0 on every
    # point, so its pooled value is a zero of either sign.  Channel 1 is
    # ±0.0 everywhere (zero gain, -0.0 shift), so the max ranks zeros of
    # both signs.
    pfn.bn.bias.data[0] = -1e3
    pfn.bn.weight.data[1] = 0.0
    pfn.bn.bias.data[1] = -0.0
    return pfn.eval()


def _quantized(pfn, points):
    """The PFN with its 1×1 conv swapped for an integer executor."""
    pfn.conv = QuantizedConv2d.from_float(pfn.conv, activation_scale(points))
    return pfn


def _assert_fast_equals_graph(pfn, points, counts):
    with nn.no_grad():
        fast = pfn(Tensor(points), counts)
    graph = pfn(Tensor(points), counts)
    assert graph.requires_grad and not fast.requires_grad
    assert fast.data.dtype == graph.data.dtype == np.float32
    assert fast.shape == graph.shape == (len(counts), CHANNELS)
    assert fast.data.tobytes() == (graph.data + 0.0).tobytes()
    assert not np.signbit(fast.data[fast.data == 0]).any()
    return fast.data


@pytest.mark.parametrize("seed", range(4))
def test_float_conv_matches_graph(seed):
    out = _assert_fast_equals_graph(_pfn(seed), *_pillars(seed))
    zero = out[:, 0]
    assert (zero == 0).all() and not np.signbit(zero).any()
    assert (out[:, 1] == 0).all()


@pytest.mark.parametrize("pillars", [1, 3, 40, 700])
def test_float_conv_matches_graph_at_any_width(pillars):
    # The float conv's parity is measured, not exact by construction:
    # the gemm sees a (9, M) matrix on the fast path and a (9, P·N) one
    # on the graph path, so it holds only while the BLAS rounds each
    # column alike at both widths.  Widths from 1 to ~8k points (past
    # small-matrix kernels) pin that on the BLAS the suite runs on.
    rng = np.random.default_rng(pillars)
    counts = rng.integers(1, MAX_POINTS + 1, pillars)
    points = rng.standard_normal((9, counts.sum())).astype(np.float32) * 10
    _assert_fast_equals_graph(_pfn(pillars), points, counts)


@pytest.mark.parametrize("seed", range(4))
def test_quantized_conv_matches_graph(seed):
    # The lowered program swaps the 1×1 conv for an integer executor.
    points, counts = _pillars(seed)
    _assert_fast_equals_graph(_quantized(_pfn(seed), points),
                              points, counts)


@pytest.mark.parametrize("empty", [[0], [7], [15], [0, 1, 15]])
def test_pillar_without_points_keeps_the_fill(empty):
    # The encoder never emits one, but the segment max must not borrow
    # a neighbour's points for it: it pools to the graph path's -1e4.
    out = _assert_fast_equals_graph(_pfn(5), *_pillars(5, empty))
    assert (out[empty] == np.float32(-1e4)).all()


def test_training_mode_keeps_graph_path():
    points, counts = _pillars(0)
    pfn = _pfn(0).train()
    with nn.no_grad():
        fast = pfn(Tensor(points), counts)
    graph = pfn(Tensor(points), counts)
    assert graph.requires_grad
    assert fast.data.tobytes() == graph.data.tobytes()


def test_encoded_scene_matches_graph(tiny_scene):
    model = PointPillars(seed=0, **TINY_PILLARS).eval()
    points, counts, _ = model.preprocess(tiny_scene)
    assert (counts == 1).any() and (counts < MAX_POINTS).any()
    _assert_fast_equals_graph(model.pfn, points.data, counts)


@pytest.mark.parametrize("lowered", [False, True])
@pytest.mark.parametrize("in_range", [True, False])
def test_head_maps_match_graph(tiny_scene, lowered, in_range):
    # Pooled zeros lose their sign, but nothing downstream reads it: the
    # model's head maps keep every byte.  With no point in range the
    # PFN yields (0, C) features and an empty canvas.
    model = PointPillars(seed=0, **TINY_PILLARS).eval()
    if lowered:
        _quantized(model.pfn, np.ones(1, np.float32))
    scene = tiny_scene if in_range else dataclasses.replace(
        tiny_scene, points=tiny_scene.points[:0])
    inputs = model.preprocess(scene)
    with nn.no_grad():
        pooled = model.pfn(*inputs[:2])
        fast = model.forward(*inputs)
    assert pooled.shape == (len(inputs[2]), CHANNELS)
    assert (len(inputs[2]) > 0) == in_range
    graph = model.forward(*inputs)
    assert sorted(fast) == sorted(graph)
    for key in graph:
        assert fast[key].data.tobytes() == graph[key].data.tobytes()


def _lowered_pfn(seed):
    """A PFN whose conv runs through a lowered integer executor at a
    scale that clips the input's tails (so some codes saturate)."""
    points, counts = _pillars(seed)
    pfn = _pfn(seed)
    executor = QuantizedConv2d.from_float(
        pfn.conv, activation_scale(points) * 0.5)
    return pfn, LoweredProgram({"conv": executor}), points, counts


def test_telemetry_counts_real_points_only():
    pfn, program, points, counts = _lowered_pfn(2)
    m = points.shape[1]
    fast, dense = {}, {}
    with program.attached(pfn, fast), nn.no_grad():
        pfn(Tensor(points), counts)
    with program.attached(pfn, dense):
        pfn(Tensor(points), counts)
    conv, grid = fast["conv"], dense["conv"]
    assert conv.calls == 1
    assert conv.activations_total == 9 * m
    assert conv.macs == CHANNELS * 9 * m
    assert grid.activations_total == 9 * len(counts) * MAX_POINTS
    # Padding is all zeros and never saturates: the same codes clip,
    # out of fewer activations, so the rate rises.
    assert conv.activations_saturated == grid.activations_saturated > 0
    assert conv.saturation_rate > grid.saturation_rate


def test_point_counts_add_no_geometry():
    pfn, program, _, _ = _lowered_pfn(3)
    F.clear_geometry_cache()
    seen = set()
    with program.attached(pfn), nn.no_grad():
        for seed in range(6):
            points, counts = _pillars(seed)
            seen.add(points.shape[1])
            pfn(Tensor(points), counts)
    assert len(seen) == 6
    assert F.geometry_cache_stats()["misses"] == 0
    assert F.geometry_cache_stats()["size"] == 0
    assert program.executors["conv"]._plans == {}


def test_float_point_counts_add_no_geometry():
    # The float 1×1 conv's im2col is the identity too: a new point
    # count each frame must not add a plan to the shared cache.
    pfn = _pfn(3)
    F.clear_geometry_cache()
    seen = set()
    with nn.no_grad():
        for seed in range(6):
            points, counts = _pillars(seed)
            seen.add(points.shape[1])
            pfn(Tensor(points), counts)
    assert len(seen) == 6
    assert F.geometry_cache_stats() == {
        "size": 0, "capacity": F.geometry_cache_stats()["capacity"],
        "hits": 0, "misses": 0}
