"""The ``repro.runtime`` package re-exports its public names lazily."""

import os
import pickle
import subprocess
import sys

import pytest

import repro.runtime as runtime

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "src")


def test_build_parser_leaves_engine_unimported():
    # The CLI parser reads EXECUTION_MODES from repro.runtime.executors;
    # that must not drag in the engine (and its hardware stack).
    code = ("import sys, repro.cli; repro.cli.build_parser(); "
            "print('repro.runtime.engine' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120,
                         check=True)
    assert out.stdout.strip() == "False"


def test_build_parser_leaves_networkx_unimported():
    # networkx is only needed to build layer graphs (compression-time
    # grouping); the executor module and the CLI parser must not load it.
    code = ("import sys, repro.runtime.executors, repro.cli; "
            "repro.cli.build_parser(); print('networkx' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120,
                         check=True)
    assert out.stdout.strip() == "False"


def test_star_import_dir_and_pickling_unchanged():
    namespace: dict = {}
    exec("from repro.runtime import *", namespace)
    assert set(runtime.__all__) <= set(namespace)
    assert set(runtime.__all__) <= set(dir(runtime))
    from repro.runtime import ReplicaSpec, StreamSLO
    assert pickle.loads(pickle.dumps(StreamSLO)) is StreamSLO
    assert ReplicaSpec.__module__ == "repro.runtime.serving"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        runtime.no_such_name
