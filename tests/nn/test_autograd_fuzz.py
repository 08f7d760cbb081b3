"""Property-based fuzzing of the autograd engine.

Builds random expression DAGs from the Tensor op vocabulary and checks
the backward pass against central-difference gradients — the strongest
guarantee that arbitrary model compositions differentiate correctly.
A central difference is no oracle across a ReLU/leaky-ReLU kink, so
draws whose probes move a kink's input across (or onto) zero are
rejected rather than compared.
"""

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.nn import Tensor

from .util import numeric_grad

_UNARY = [
    ("relu", lambda t: t.relu()),
    ("sigmoid", lambda t: t.sigmoid()),
    ("tanh", lambda t: t.tanh()),
    ("exp_small", lambda t: (t * 0.3).exp()),
    ("softplus", lambda t: ((t).exp() + 1.0).log()),
    ("square", lambda t: t * t),
    ("scale", lambda t: t * 1.7 - 0.3),
    ("leaky", lambda t: t.leaky_relu(0.2)),
]
#: Unary ops with a kink at 0.
_KINKED = {"relu", "leaky"}
_BINARY = [
    ("add", lambda a, b: a + b),
    ("sub", lambda a, b: a - b),
    ("mul", lambda a, b: a * b),
    ("smooth_div", lambda a, b: a / (b * b + 1.0)),
]


def _build_dag(inputs: list[Tensor], plan: list[tuple],
               kinks: list | None = None) -> Tensor:
    """Deterministically compose a DAG from (kind, op_idx, src_a, src_b).

    ``kinks``, if given, collects the input of every kinked op.
    """
    nodes = list(inputs)
    for kind, op_idx, src_a, src_b in plan:
        if kind == 0:
            name, op = _UNARY[op_idx % len(_UNARY)]
            source = nodes[src_a % len(nodes)]
            if kinks is not None and name in _KINKED:
                kinks.append(source.data)
            nodes.append(op(source))
        else:
            name, op = _BINARY[op_idx % len(_BINARY)]
            nodes.append(op(nodes[src_a % len(nodes)],
                            nodes[src_b % len(nodes)]))
    return nodes[-1]


@st.composite
def dag_plans(draw):
    n_ops = draw(st.integers(1, 8))
    plan = []
    for _ in range(n_ops):
        plan.append((draw(st.integers(0, 1)),
                     draw(st.integers(0, 7)),
                     draw(st.integers(0, 20)),
                     draw(st.integers(0, 20))))
    return plan


class TestAutogradFuzz:
    @given(plan=dag_plans(), seed=st.integers(0, 10_000))
    @example(plan=[(0, 0, 1, 0)], seed=95)     # a ReLU input 7e-5 from 0
    @settings(max_examples=60, deadline=None)
    def test_random_dag_gradients_match_numeric(self, plan, seed):
        rng = np.random.default_rng(seed)
        arrays = [rng.uniform(-1.5, 1.5, size=(2, 3)).astype(np.float32)
                  for _ in range(2)]
        tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        out = _build_dag(tensors, plan)
        loss = out.sum()
        loss.backward()

        for i, array in enumerate(arrays):
            signs = []

            def scalar_fn(x, index=i):
                probe = [Tensor(a) for a in arrays]
                probe[index] = Tensor(x)
                kinks = []
                value = float(_build_dag(probe, plan, kinks).sum().data)
                signs.append([np.sign(k) for k in kinks])
                return value

            scalar_fn(array.astype(np.float64))
            expected = numeric_grad(scalar_fn, array.astype(np.float64),
                                    eps=1e-3)
            # Every probe must leave each kink's input on the side of
            # zero it has at the unperturbed point.
            assume(all(np.array_equal(a, b)
                       for probe in signs[1:]
                       for a, b in zip(probe, signs[0])))
            actual = tensors[i].grad
            if actual is None:        # input unused by this DAG
                assert np.abs(expected).max() < 1e-4
                continue
            np.testing.assert_allclose(actual, expected, atol=5e-2,
                                       rtol=5e-2)

    @given(dag_plans(), st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_forward_deterministic(self, plan, seed):
        rng = np.random.default_rng(seed)
        arrays = [rng.standard_normal((2, 3)).astype(np.float32)
                  for _ in range(2)]
        a = _build_dag([Tensor(x.copy()) for x in arrays], plan)
        b = _build_dag([Tensor(x.copy()) for x in arrays], plan)
        np.testing.assert_array_equal(a.data, b.data)

    @given(dag_plans(), st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_gradients_finite(self, plan, seed):
        rng = np.random.default_rng(seed)
        tensors = [Tensor(rng.uniform(-2, 2, (3, 2)).astype(np.float32),
                          requires_grad=True) for _ in range(2)]
        out = _build_dag(tensors, plan)
        out.sum().backward()
        for t in tensors:
            if t.grad is not None:
                assert np.isfinite(t.grad).all()
