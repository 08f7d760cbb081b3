"""Unit tests for the autograd core: ops, broadcasting, graph mechanics."""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Tensor, no_grad
from repro.nn.tensor import is_grad_enabled

from .util import check_grad


class TestBasicOps:
    def test_add(self):
        check_grad(lambda a, b: a + b, (3, 4), (3, 4))

    def test_add_broadcast(self):
        check_grad(lambda a, b: a + b, (3, 4), (4,))

    def test_add_broadcast_leading(self):
        check_grad(lambda a, b: a + b, (2, 3, 4), (1, 3, 1))

    def test_sub(self):
        check_grad(lambda a, b: a - b, (5,), (5,))

    def test_mul(self):
        check_grad(lambda a, b: a * b, (3, 4), (3, 4))

    def test_mul_broadcast(self):
        check_grad(lambda a, b: a * b, (2, 3), (3,))

    def test_div(self):
        rng = np.random.default_rng(1)
        check_grad(lambda a, b: a / (b * b + 1.0), (3,), (3,), rng=rng)

    def test_neg(self):
        check_grad(lambda a: -a, (4,))

    def test_pow(self):
        check_grad(lambda a: (a * a + 1.0) ** 1.5, (3,))

    def test_matmul_2d(self):
        check_grad(lambda a, b: a @ b, (3, 4), (4, 5))

    def test_matmul_batched(self):
        check_grad(lambda a, b: a @ b, (2, 3, 4), (2, 4, 5))

    def test_scalar_ops(self):
        check_grad(lambda a: a * 2.5 + 1.0, (3, 3))
        check_grad(lambda a: 3.0 - a, (3,))
        check_grad(lambda a: 2.0 / (a * a + 1.0), (3,))


class TestElementwise:
    def test_exp(self):
        check_grad(lambda a: a.exp(), (3, 3), scale=0.5)

    def test_log(self):
        check_grad(lambda a: (a * a + 1.0).log(), (3, 3))

    def test_sqrt(self):
        check_grad(lambda a: (a * a + 1.0).sqrt(), (4,))

    def test_relu(self):
        x = Tensor(np.array([-1.0, 0.5, 2.0], dtype=np.float32),
                   requires_grad=True)
        out = x.relu()
        np.testing.assert_array_equal(out.data, [0.0, 0.5, 2.0])
        out.sum().backward()
        np.testing.assert_array_equal(x.grad, [0.0, 1.0, 1.0])

    def test_leaky_relu(self):
        x = Tensor(np.array([-2.0, 3.0], dtype=np.float32),
                   requires_grad=True)
        out = x.leaky_relu(0.1)
        np.testing.assert_allclose(out.data, [-0.2, 3.0], rtol=1e-6)
        out.sum().backward()
        np.testing.assert_allclose(x.grad, [0.1, 1.0], rtol=1e-6)

    def test_sigmoid(self):
        check_grad(lambda a: a.sigmoid(), (3, 4))

    def test_tanh(self):
        check_grad(lambda a: a.tanh(), (3, 4))

    def test_sin_cos(self):
        check_grad(lambda a: a.sin() * a.cos(), (5,))

    def test_abs(self):
        x = Tensor(np.array([-1.5, 2.5], dtype=np.float32),
                   requires_grad=True)
        out = x.abs()
        out.sum().backward()
        np.testing.assert_array_equal(x.grad, [-1.0, 1.0])

    def test_clip(self):
        x = Tensor(np.array([-3.0, 0.0, 3.0], dtype=np.float32),
                   requires_grad=True)
        out = x.clip(-1.0, 1.0)
        np.testing.assert_array_equal(out.data, [-1.0, 0.0, 1.0])
        out.sum().backward()
        np.testing.assert_array_equal(x.grad, [0.0, 1.0, 0.0])


class TestReductions:
    def test_sum_all(self):
        check_grad(lambda a: a.sum(), (3, 4))

    def test_sum_axis(self):
        check_grad(lambda a: a.sum(axis=1), (3, 4))

    def test_sum_keepdims(self):
        check_grad(lambda a: a.sum(axis=0, keepdims=True), (3, 4))

    def test_mean(self):
        x = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3),
                   requires_grad=True)
        out = x.mean()
        assert out.item() == pytest.approx(2.5)
        out.backward()
        np.testing.assert_allclose(x.grad, np.full((2, 3), 1 / 6), rtol=1e-5)

    def test_mean_axis_tuple(self):
        check_grad(lambda a: a.mean(axis=(0, 2), keepdims=True), (2, 3, 4))

    def test_max_axis(self):
        x = Tensor(np.array([[1.0, 5.0], [7.0, 2.0]], dtype=np.float32),
                   requires_grad=True)
        out = x.max(axis=1)
        np.testing.assert_array_equal(out.data, [5.0, 7.0])
        out.sum().backward()
        np.testing.assert_array_equal(x.grad, [[0, 1], [1, 0]])

    def test_max_all(self):
        x = Tensor(np.array([1.0, 9.0, 3.0], dtype=np.float32),
                   requires_grad=True)
        assert x.max().item() == 9.0

    def test_var(self):
        x = np.random.default_rng(0).standard_normal((4, 5)).astype(np.float32)
        t = Tensor(x)
        np.testing.assert_allclose(t.var().item(), x.var(), rtol=1e-4)


class TestShapes:
    def test_reshape(self):
        check_grad(lambda a: a.reshape(6) * 2.0, (2, 3))

    def test_transpose(self):
        check_grad(lambda a: a.transpose(1, 0) @ a, (3, 4))

    def test_getitem(self):
        x = Tensor(np.arange(12, dtype=np.float32).reshape(3, 4),
                   requires_grad=True)
        out = x[1]
        out.sum().backward()
        expected = np.zeros((3, 4))
        expected[1] = 1.0
        np.testing.assert_array_equal(x.grad, expected)

    def test_getitem_fancy(self):
        x = Tensor(np.arange(10, dtype=np.float32), requires_grad=True)
        idx = np.array([1, 1, 3])
        out = x[idx]
        out.sum().backward()
        expected = np.zeros(10)
        expected[1] = 2.0
        expected[3] = 1.0
        np.testing.assert_array_equal(x.grad, expected)

    def test_pad2d(self):
        check_grad(lambda a: a.pad2d(1), (1, 2, 3, 3))

    def test_concatenate(self):
        check_grad(lambda a, b: Tensor.concatenate([a, b], axis=1),
                   (2, 3), (2, 2))

    def test_stack(self):
        check_grad(lambda a, b: Tensor.stack([a, b], axis=0), (3,), (3,))

    def test_softmax_sums_to_one(self):
        x = Tensor(np.random.default_rng(0).standard_normal((4, 7))
                   .astype(np.float32))
        probs = x.softmax(axis=-1)
        np.testing.assert_allclose(probs.data.sum(axis=-1), np.ones(4),
                                   rtol=1e-5)

    def test_log_softmax_grad(self):
        check_grad(lambda a: a.log_softmax(axis=-1), (3, 5))


class TestGraphMechanics:
    def test_no_grad_blocks_recording(self):
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        with no_grad():
            y = x * 2.0
        assert not y.requires_grad
        assert y._parents == ()

    def test_nested_no_grad(self):
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        with no_grad():
            with no_grad():
                pass
            y = x + 1.0
        assert not y.requires_grad
        z = x + 1.0
        assert z.requires_grad

    def test_no_grad_is_per_thread(self):
        # Thread A holds no_grad() while thread B records a graph and
        # back-propagates: the mode of one thread must not leak into
        # another (a serving thread vs. a calibration/QAT thread).
        entered, done = threading.Event(), threading.Event()
        seen = {}

        def hold_no_grad():
            with no_grad():
                seen["a"] = is_grad_enabled()
                entered.set()
                done.wait(timeout=10)

        def train():
            entered.wait(timeout=10)
            seen["b"] = is_grad_enabled()
            x = Tensor(np.array([3.0], dtype=np.float32),
                       requires_grad=True)
            (x * x).sum().backward()
            seen["grad"] = None if x.grad is None else x.grad.copy()
            done.set()

        a = threading.Thread(target=hold_no_grad)
        b = threading.Thread(target=train)
        a.start()
        b.start()
        b.join(timeout=10)
        done.set()
        a.join(timeout=10)
        assert not a.is_alive() and not b.is_alive()
        assert seen["a"] is False
        assert seen["b"] is True
        np.testing.assert_array_equal(seen["grad"], [6.0])
        assert is_grad_enabled() is True

    def test_grad_accumulates_over_reuse(self):
        x = Tensor(np.array([2.0], dtype=np.float32), requires_grad=True)
        y = x * x + x  # dy/dx = 2x + 1 = 5
        y.backward()
        np.testing.assert_allclose(x.grad, [5.0])

    def test_diamond_graph(self):
        x = Tensor(np.array([3.0], dtype=np.float32), requires_grad=True)
        a = x * 2.0
        b = x + 1.0
        out = a * b  # d/dx (2x*(x+1)) = 4x + 2 = 14
        out.backward()
        np.testing.assert_allclose(x.grad, [14.0])

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        with pytest.raises(RuntimeError):
            (x * 2.0).backward()

    def test_backward_on_non_grad_raises(self):
        x = Tensor(np.ones(1))
        with pytest.raises(RuntimeError):
            x.backward()

    def test_detach_cuts_graph(self):
        x = Tensor(np.array([2.0], dtype=np.float32), requires_grad=True)
        y = (x * 3.0).detach() * x
        y.backward()
        np.testing.assert_allclose(x.grad, [6.0])

    def test_zero_grad(self):
        x = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
        (x * 2.0).sum().backward()
        assert x.grad is not None
        x.zero_grad()
        assert x.grad is None

    def test_float64_input_downcast(self):
        x = Tensor(np.ones(3, dtype=np.float64))
        assert x.dtype == np.float32

    def test_deep_chain_no_recursion_error(self):
        x = Tensor(np.ones(1, dtype=np.float32), requires_grad=True)
        y = x
        for _ in range(2000):
            y = y + 0.001
        y.backward()
        np.testing.assert_allclose(x.grad, [1.0])


class TestHypothesisInvariants:
    @given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=16))
    @settings(max_examples=30, deadline=None)
    def test_add_commutes(self, values):
        x = Tensor(np.array(values, dtype=np.float32))
        y = Tensor(np.array(values[::-1], dtype=np.float32))
        np.testing.assert_array_equal((x + y).data, (y + x).data)

    @given(st.integers(1, 5), st.integers(1, 5))
    @settings(max_examples=20, deadline=None)
    def test_reshape_roundtrip(self, rows, cols):
        rng = np.random.default_rng(rows * 10 + cols)
        x = Tensor(rng.standard_normal((rows, cols)).astype(np.float32))
        back = x.reshape(rows * cols).reshape(rows, cols)
        np.testing.assert_array_equal(back.data, x.data)

    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=20))
    @settings(max_examples=30, deadline=None)
    def test_softmax_bounded(self, values):
        x = Tensor(np.array(values, dtype=np.float32))
        probs = x.softmax().data
        assert np.all(probs >= 0.0)
        assert np.all(probs <= 1.0 + 1e-6)

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=12))
    @settings(max_examples=30, deadline=None)
    def test_sum_linear_in_scale(self, values):
        x = Tensor(np.array(values, dtype=np.float32))
        assert (x * 2.0).sum().item() == pytest.approx(2 * x.sum().item(),
                                                       rel=1e-4, abs=1e-4)
