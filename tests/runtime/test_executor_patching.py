"""Regression tests for LoweredProgram's layer routing.

A program routes the model's kernel layers to its executors through the
layer-call seam in ``Module.__call__`` (:func:`repro.nn.module.routed`),
never by patching the model.  Pinned here:

* never mutated — no module of the model gains an instance ``forward``
  during or after attachment, also when the block raises and when one
  module is reachable under two layer names (the case whose restore
  order once left a module permanently patched);
* argument forwarding — every argument of the layer call reaches the
  executor, so a call the executor cannot satisfy fails loudly instead
  of silently dropping arguments;
* shared-model programs — two programs attached to one model object at
  the same time each see their own executor's output, with no lock
  between them;
* binding — the ``layer_map`` walk runs once per program/model pair,
  and a bound program still pickles.
"""

import pickle
import sys
import threading

import numpy as np
import pytest

from repro import nn
from repro.nn.graph import layer_map
from repro.nn.quantized import (QuantizedConv2d, QuantizedLinear,
                                activation_scale)
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


def _instance_forwards(model) -> list[str]:
    """Names of the model's modules that carry an instance ``forward``."""
    return [name for name, module in model.named_modules()
            if "forward" in vars(module)]


class TestSharedModuleRestore:
    def test_two_names_one_module(self):
        model = SharedConvNet()
        layers = layer_map(model)
        assert layers["trunk"] is layers["alias"]

    @staticmethod
    def _runs_class_forward(module) -> bool:
        """True iff ``module.forward`` resolves to ``Conv2d.forward``."""
        return getattr(module.forward, "__func__", None) \
            is nn.Conv2d.forward

    def test_shared_module_never_mutated(self):
        """A module reachable under two names runs the later name's
        executor inside the block and is never patched."""
        model = SharedConvNet()
        layers, program = _program_for(model, weight_bits=4)
        conv = layers["trunk"]
        x = _input()
        with program.attached(model):
            assert _instance_forwards(model) == []
            assert self._runs_class_forward(conv)
            routed = conv(x).data
        np.testing.assert_array_equal(
            routed, program.executors["alias"].forward(x).data)
        assert _instance_forwards(model) == []
        np.testing.assert_array_equal(conv(x).data, conv.forward(x).data)

    def test_never_mutated_on_exception(self):
        model = SharedConvNet()
        layers, program = _program_for(model)
        conv = layers["trunk"]
        x = _input()
        with pytest.raises(RuntimeError):
            with program.attached(model):
                raise RuntimeError("inference blew up")
        assert _instance_forwards(model) == []
        assert self._runs_class_forward(conv)
        np.testing.assert_array_equal(conv(x).data, conv.forward(x).data)

    def test_repeated_attach_stays_reversible(self):
        """Attach/detach twice — a leaked route would compound."""
        model = SharedConvNet()
        layers, program = _program_for(model)
        conv = layers["trunk"]
        x = _input()
        for _ in range(2):
            with program.attached(model):
                pass
            assert _instance_forwards(model) == []
            np.testing.assert_array_equal(conv(x).data,
                                          conv.forward(x).data)

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
            out = layers["trunk"](_input())
        assert out.data.shape == (1, 3, 6, 6)

    def test_unexpected_kwarg_raises(self):
        """Kwargs are forwarded to the executor, which rejects ones it
        does not understand — the old code silently swallowed them."""
        model = SharedConvNet()
        layers, program = _program_for(model)
        with program.attached(model):
            with pytest.raises(TypeError):
                layers["trunk"](_input(), training=True)

    def test_extra_positional_raises(self):
        model = SharedConvNet()
        layers, program = _program_for(model)
        with program.attached(model):
            with pytest.raises(TypeError):
                layers["trunk"](_input(), _input())


class TestSharedModelPrograms:
    """Two programs (e.g. two serving replicas) over one model object."""

    def test_two_programs_inside_at_once(self):
        """Both programs are inside ``attached(model)`` together, and
        each thread's forward runs its own program's executors."""
        model = SharedConvNet()
        model.eval()
        x = _input()
        programs = [_program_for(model, bits)[1] for bits in (4, 8)]
        expected = []
        for program in programs:
            with program.attached(model):
                expected.append(model.forward(x).data.copy())
        assert not np.array_equal(expected[0], expected[1])
        inside = [threading.Event(), threading.Event()]
        seen = [None, None]

        def run(k):
            with programs[k].attached(model):
                inside[k].set()
                # Waits for the other program to be inside too; a
                # program that excluded the other would time out here.
                both = inside[1 - k].wait(5)
                seen[k] = (both, model.forward(x).data.copy())

        threads = [threading.Thread(target=run, args=(k,)) for k in (0, 1)]
        threads[0].start()
        assert inside[0].wait(10)
        threads[1].start()
        for thread in threads:
            thread.join(30)
        assert not any(thread.is_alive() for thread in threads)
        for k in (0, 1):
            both, out = seen[k]
            assert both, f"program {k} never saw the other inside"
            np.testing.assert_array_equal(out, expected[k])
        assert _instance_forwards(model) == []

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


class TestBinding:
    def test_layer_map_walked_once_per_model(self, monkeypatch):
        import repro.runtime.executors as executors_module
        walks = []
        walk = executors_module.layer_map

        def counting(model):
            walks.append(model)
            return walk(model)

        monkeypatch.setattr(executors_module, "layer_map", counting)
        model, other = SharedConvNet(), SharedConvNet()
        _, program = _program_for(model)
        for _ in range(3):
            with program.attached(model):
                pass
            assert program.covers_kernels(model)
        assert walks == [model]
        with program.attached(other):
            pass
        assert walks == [model, other]

    def test_bound_program_pickles(self):
        """Pickled with its model, a bound program routes the copy.

        Linear executors hold no plan-cache lock, so they pickle."""
        model = nn.Sequential(nn.Linear(4, 3, rng=np.random.default_rng(1)))
        x = _input((2, 4))
        program = LoweredProgram({"0": QuantizedLinear.from_float(
            model[0], activation_scale(x.data))})
        with program.attached(model):
            expected = model(x).data.copy()
        assert not np.array_equal(expected, model(x).data)
        program_copy, model_copy = pickle.loads(pickle.dumps(
            (program, model)))
        with program_copy.attached(model_copy):
            np.testing.assert_array_equal(model_copy(x).data, expected)
        assert _instance_forwards(model_copy) == []
