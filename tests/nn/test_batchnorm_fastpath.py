"""Eval BatchNorm under ``no_grad`` is byte-identical to the graph path.

The no-grad eval path normalizes in raw numpy, in place on the one
array its first subtract allocates; the grad-enabled eval path builds
the autograd graph.  Both must emit the same bytes for any running
statistics — including tiny variances, statistics swapped in by
``load_state_dict`` (float64 ones too) and buffers rewritten in place
— the fast path must leave its input alone, and the graph path must
still back-propagate.
"""

import numpy as np
import pytest

from repro import nn
from repro.nn import Tensor


def _random_stats(bn, rng):
    c = bn.num_features
    bn.weight.data[:] = rng.standard_normal(c).astype(np.float32)
    bn.bias.data[:] = rng.standard_normal(c).astype(np.float32)
    bn.running_mean[:] = rng.standard_normal(c).astype(np.float32)
    var = rng.uniform(0.01, 4.0, c).astype(np.float32)
    # Tiny variances, where eps dominates the denominator.
    var[::3] = np.float32(1e-12)
    var[1::5] = 0.0
    bn.running_var[:] = var


def _make(kind, rng):
    bn = nn.BatchNorm2d(7) if kind == "2d" else nn.BatchNorm1d(7)
    _random_stats(bn, rng)
    return bn.eval()


def _input(kind, batch, rng):
    shape = (batch, 7, 5, 4) if kind == "2d" else (batch, 7)
    return (rng.standard_normal(shape) * 3).astype(np.float32)


def _assert_paths_equal(bn, x):
    graph = bn(Tensor(x))
    with nn.no_grad():
        fast = bn(Tensor(x))
    assert fast.data.dtype == graph.data.dtype == np.float32
    assert fast.data.tobytes() == graph.data.tobytes()
    assert not fast.requires_grad
    return fast


@pytest.mark.parametrize("kind", ["1d", "2d"])
@pytest.mark.parametrize("batch", [1, 3])
class TestEvalParity:
    def test_random_stats(self, kind, batch):
        rng = np.random.default_rng(batch)
        bn = _make(kind, rng)
        _assert_paths_equal(bn, _input(kind, batch, rng))

    def test_after_load_state_dict(self, kind, batch):
        rng = np.random.default_rng(10 + batch)
        bn = _make(kind, rng)
        x = _input(kind, batch, rng)
        before = _assert_paths_equal(bn, x)
        other = _make(kind, rng)
        bn.load_state_dict(other.state_dict())
        after = _assert_paths_equal(bn, x)
        # The new statistics are used on the very next call.
        assert after.data.tobytes() != before.data.tobytes()
        with nn.no_grad():
            assert bn(Tensor(x)).data.tobytes() \
                == other(Tensor(x)).data.tobytes()

    def test_after_in_place_rewrite(self, kind, batch):
        rng = np.random.default_rng(20 + batch)
        bn = _make(kind, rng)
        x = _input(kind, batch, rng)
        before = _assert_paths_equal(bn, x)
        bn.running_var[:] = rng.uniform(1e-9, 2.0, 7).astype(np.float32)
        bn.running_mean[:] += np.float32(0.5)
        after = _assert_paths_equal(bn, x)
        assert after.data.tobytes() != before.data.tobytes()


@pytest.mark.parametrize("kind", ["1d", "2d"])
def test_input_is_never_mutated(kind):
    # The fast path normalizes in place, but only on the array its first
    # subtract allocates, never on the caller's input.
    rng = np.random.default_rng(5)
    bn = _make(kind, rng)
    x = _input(kind, 3, rng)
    before = x.copy()
    with nn.no_grad():
        out = bn(Tensor(x))
    assert x.tobytes() == before.tobytes()
    assert not np.shares_memory(out.data, x)


@pytest.mark.parametrize("kind", ["1d", "2d"])
def test_float64_buffers_from_load_state_dict(kind):
    # Buffers loaded as float64 stay float64; both paths coerce them to
    # float32 before normalizing, so the output stays float32 and equal.
    rng = np.random.default_rng(6)
    bn = _make(kind, rng)
    state = {key: value.astype(np.float64)
             if key.startswith("running_") else value
             for key, value in _make(kind, rng).state_dict().items()}
    bn.load_state_dict(state)
    assert bn.running_mean.dtype == bn.running_var.dtype == np.float64
    _assert_paths_equal(bn, _input(kind, 3, rng))


@pytest.mark.parametrize("kind", ["1d", "2d"])
def test_grad_enabled_eval_backpropagates(kind):
    rng = np.random.default_rng(3)
    bn = _make(kind, rng)
    x = Tensor(_input(kind, 3, rng), requires_grad=True)
    bn(x).sum().backward()
    assert x.grad is not None
    shape = (1, 7, 1, 1) if kind == "2d" else (1, 7)
    expected = bn.weight.data / np.sqrt(bn.running_var
                                        + np.float32(bn.eps))
    np.testing.assert_allclose(
        x.grad, np.broadcast_to(expected.reshape(shape), x.shape),
        rtol=1e-5)
    assert bn.weight.grad is not None


def test_training_under_no_grad_still_updates_statistics():
    rng = np.random.default_rng(4)
    bn = nn.BatchNorm2d(7)
    x = _input("2d", 3, rng)
    with nn.no_grad():
        bn(Tensor(x))
    assert not np.array_equal(bn.running_mean, np.zeros(7, np.float32))
