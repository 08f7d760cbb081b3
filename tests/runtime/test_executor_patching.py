"""Regression tests for LoweredProgram's forward patching.

Three bugs are pinned here:

* restore order — when two IR names resolve to the *same* shared
  module, the second patch captures the first ``routed`` as its
  "original"; restoring in insertion order left the module permanently
  patched (same shape as the TiedLeafNet dedup fix in the search).
* argument forwarding — ``routed`` used to silently discard extra
  positional args and all kwargs, changing the patched layer's call
  semantics instead of failing loudly.
* shared-model interleaving — two programs over one model used to
  exclude each other only per program, so one could patch (or restore)
  the model's forwards while the other was mid-attachment.

"""

import sys
import threading

import numpy as np
import pytest

from repro import nn
from repro.nn.graph import layer_map
from repro.nn.quantized import QuantizedConv2d, activation_scale
from repro.nn.tensor import Tensor
from repro.runtime import LoweredProgram


class SharedConvNet(nn.Module):
    """One Conv2d object reachable under two attribute names.

    ``layer_map`` (which walks ``named_modules``) hands back *both*
    names mapped to the same module — exactly what happens when an IR
    carries two nodes that a weight-tied model implements with one
    shared layer object.
    """

    def __init__(self):
        super().__init__()
        rng = np.random.default_rng(7)
        conv = nn.Conv2d(3, 3, 3, padding=1, rng=rng)
        self.trunk = conv
        self.alias = conv

    def forward(self, x):
        return self.alias(self.trunk(x))


def _input(shape=(1, 3, 6, 6), seed=0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.standard_normal(shape).astype(np.float32))


def _program_for(model, weight_bits=8):
    layers = layer_map(model)
    x = _input()
    executors = {
        name: QuantizedConv2d.from_float(
            module, activation_scale(x.data), weight_bits=weight_bits)
        for name, module in layers.items()}
    return layers, LoweredProgram(executors)


class TestSharedModuleRestore:
    def test_two_names_one_module(self):
        model = SharedConvNet()
        layers = layer_map(model)
        assert layers["trunk"] is layers["alias"]

    @staticmethod
    def _runs_class_forward(module) -> bool:
        """True iff calling ``module.forward`` runs ``Conv2d.forward``.

        Identity on the bound-method *object* is too strict (every
        attribute access builds a fresh bound method); what must hold
        after detach is that the attribute resolves back to the class's
        forward — not to a leaked ``routed`` wrapper, which is a plain
        function with no ``__func__``.
        """
        return getattr(module.forward, "__func__", None) \
            is nn.Conv2d.forward

    def test_restore_order_with_shared_module(self):
        """The headline regression: a module patched under two names
        must come back with its true original forward, not the first
        patch's ``routed`` wrapper."""
        model = SharedConvNet()
        layers, program = _program_for(model)
        conv = layers["trunk"]
        assert self._runs_class_forward(conv)
        with program.attached(model):
            assert not self._runs_class_forward(conv)
        assert self._runs_class_forward(conv)

    def test_restore_order_on_exception(self):
        model = SharedConvNet()
        layers, program = _program_for(model)
        conv = layers["trunk"]
        with pytest.raises(RuntimeError):
            with program.attached(model):
                raise RuntimeError("inference blew up")
        assert self._runs_class_forward(conv)

    def test_repeated_attach_stays_reversible(self):
        """Attach/detach twice — a leaked patch would compound."""
        model = SharedConvNet()
        layers, program = _program_for(model)
        conv = layers["trunk"]
        for _ in range(2):
            with program.attached(model):
                pass
            assert self._runs_class_forward(conv)

    def test_model_output_unchanged_after_detach(self):
        model = SharedConvNet()
        model.eval()
        x = _input()
        before = model.forward(x).data.copy()
        _, program = _program_for(model)
        with program.attached(model):
            model.forward(x)
        after = model.forward(x).data
        np.testing.assert_array_equal(before, after)


class TestRoutedArgumentForwarding:
    def test_single_positional_still_works(self):
        model = SharedConvNet()
        layers, program = _program_for(model)
        with program.attached(model):
            out = layers["trunk"].forward(_input())
        assert out.data.shape == (1, 3, 6, 6)

    def test_unexpected_kwarg_raises(self):
        """Kwargs are forwarded to the executor, which rejects ones it
        does not understand — the old code silently swallowed them."""
        model = SharedConvNet()
        layers, program = _program_for(model)
        with program.attached(model):
            with pytest.raises(TypeError):
                layers["trunk"].forward(_input(), training=True)

    def test_extra_positional_raises(self):
        model = SharedConvNet()
        layers, program = _program_for(model)
        with program.attached(model):
            with pytest.raises(TypeError):
                layers["trunk"].forward(_input(), _input())


class TestSharedModelPrograms:
    """Two programs (e.g. two serving replicas) over one model object."""

    @staticmethod
    def _installed(module):
        """The executor a patched ``routed`` forward runs, else None."""
        run = (getattr(module.forward, "__kwdefaults__", None) or {}).get("_run")
        return getattr(run, "__self__", None)

    def test_second_program_waits_for_first(self):
        model = SharedConvNet()
        conv = layer_map(model)["trunk"]
        _, program_a = _program_for(model)
        _, program_b = _program_for(model)
        a_inside, a_release = threading.Event(), threading.Event()
        b_inside, b_release = threading.Event(), threading.Event()
        seen_by_a, seen_by_b = [], []

        def run_a():
            with program_a.attached(model):
                a_inside.set()
                a_release.wait(10)
                seen_by_a.append(self._installed(conv))

        def run_b():
            a_inside.wait(10)
            with program_b.attached(model):
                b_inside.set()
                b_release.wait(10)
                seen_by_b.append(self._installed(conv))

        threads = [threading.Thread(target=run_a),
                   threading.Thread(target=run_b)]
        for thread in threads:
            thread.start()
        try:
            assert a_inside.wait(10)
            # B is started and asks for the model while A holds it: it
            # must not get in (nor patch anything) until A exits.
            assert not b_inside.wait(0.5)
            assert self._installed(conv) is program_a.executors["alias"]
            a_release.set()
            threads[0].join(10)
            assert b_inside.wait(10)
        finally:
            a_release.set()
            b_release.set()
            for thread in threads:
                thread.join(10)
        assert seen_by_a == [program_a.executors["alias"]]
        assert seen_by_b == [program_b.executors["alias"]]
        assert TestSharedModuleRestore._runs_class_forward(conv)

    def test_stress_many_programs_one_model(self):
        """More threads than cores, each attaching its own program to one
        model with a tiny switch interval: every forward must be its own
        program's output, and the float forward must come back."""
        model = SharedConvNet()
        model.eval()
        conv = layer_map(model)["trunk"]
        x = _input()
        programs = [_program_for(model, bits)[1] for bits in (4, 6, 8, 12)]
        expected = []
        for program in programs:
            with program.attached(model):
                expected.append(model.forward(x).data.copy())
        assert not all(np.array_equal(expected[0], e) for e in expected[1:])
        mismatches = []

        def worker(k):
            for _ in range(25):
                with programs[k].attached(model):
                    out = model.forward(x).data
                if not np.array_equal(out, expected[k]):
                    mismatches.append(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,))
                       for k in range(len(programs))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []
        assert TestSharedModuleRestore._runs_class_forward(conv)
