"""The PFN's raw-numpy pooling ≡ its autograd graph path, byte for byte.

Under eval and ``no_grad`` :class:`PillarFeatureNet` applies the ReLU
and the masked max over points straight on arrays (one ``np.where``
and one ``max``) instead of four graph ops.  These tests pin its
output to the grad-enabled eval graph path: single-point and full
pillars, empty slots, and channels that are all negative before the
ReLU — whose pooled value is a signed zero — or mix zeros of both
signs.
"""

import numpy as np
import pytest

from repro import nn
from repro.models import PointPillars
from repro.models.pointpillars.pfn import PillarFeatureNet
from repro.nn import Tensor
from repro.nn.quantized import QuantizedConv2d, activation_scale
from tests.models.conftest import TINY_PILLARS

CHANNELS = 8
MAX_POINTS = 24


def _pillars(seed):
    """(P, 24, 9) features + mask: full, single-point and ragged pillars."""
    rng = np.random.default_rng(seed)
    counts = np.concatenate([[MAX_POINTS, 1, MAX_POINTS, 1],
                             rng.integers(1, MAX_POINTS + 1, 12)])
    mask = (np.arange(MAX_POINTS)[None, :] < counts[:, None]) \
        .astype(np.float32)
    features = rng.standard_normal((len(counts), MAX_POINTS, 9)) \
        .astype(np.float32) * mask[:, :, None]
    return features, mask


def _pfn(seed):
    pfn = PillarFeatureNet(out_channels=CHANNELS,
                           rng=np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    pfn.bn.running_mean[:] = rng.standard_normal(CHANNELS) * 0.1
    pfn.bn.running_var[:] = rng.uniform(0.5, 2.0, CHANNELS)
    # Channel 0 is negative everywhere: the ReLU leaves -0.0 on every
    # point, so its pooled value is a signed zero.  Channel 1 is ±0.0
    # everywhere (zero gain, -0.0 shift), so the max ranks zeros of
    # both signs.
    pfn.bn.bias.data[0] = -1e3
    pfn.bn.weight.data[1] = 0.0
    pfn.bn.bias.data[1] = -0.0
    return pfn.eval()


def _assert_fast_equals_graph(pfn, features, mask):
    with nn.no_grad():
        fast = pfn(Tensor(features), Tensor(mask))
    graph = pfn(Tensor(features), Tensor(mask))
    assert graph.requires_grad and not fast.requires_grad
    assert fast.data.dtype == graph.data.dtype == np.float32
    assert fast.shape == graph.shape == (len(features), CHANNELS)
    assert fast.data.tobytes() == graph.data.tobytes()
    return fast.data


@pytest.mark.parametrize("seed", range(4))
def test_float_conv_matches_graph(seed):
    features, mask = _pillars(seed)
    out = _assert_fast_equals_graph(_pfn(seed), features, mask)
    zero = out[:, 0]
    assert (zero == 0).all() and np.signbit(zero).all()


@pytest.mark.parametrize("seed", range(4))
def test_quantized_conv_matches_graph(seed):
    # The lowered program swaps the 1×1 conv for an integer executor.
    features, mask = _pillars(seed)
    pfn = _pfn(seed)
    pfn.conv = QuantizedConv2d.from_float(pfn.conv,
                                          activation_scale(features))
    _assert_fast_equals_graph(pfn, features, mask)


def test_training_mode_keeps_graph_path():
    features, mask = _pillars(0)
    pfn = _pfn(0).train()
    with nn.no_grad():
        fast = pfn(Tensor(features), Tensor(mask))
    graph = pfn(Tensor(features), Tensor(mask))
    assert graph.requires_grad
    assert fast.data.tobytes() == graph.data.tobytes()


def test_encoded_scene_matches_graph(tiny_scene):
    model = PointPillars(seed=0, **TINY_PILLARS).eval()
    features, mask, _ = model.preprocess(tiny_scene)
    assert (mask.data.sum(axis=1) == 1).any()
    _assert_fast_equals_graph(model.pfn, features.data, mask.data)
