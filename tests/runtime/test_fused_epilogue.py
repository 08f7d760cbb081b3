"""The lowered program's fused BatchNorm/ReLU epilogues are byte-exact.

:class:`~repro.runtime.executors.LoweredProgram` routes each
``ConvBNReLU`` whose conv has an executor as one call: the executor
runs with the block's eval BatchNorm and ReLU as its epilogue, on
constants read when the program binds the model.  Every other
BatchNorm is routed to the same frozen normalization.  Pinned here:

* parity — outputs and every ``LayerTelemetry`` counter equal a run
  that routes only the kernel layers to their executors, byte for byte,
  on the benchmarked PointPillars and on tiny SECOND and SMOKE, at
  batch 1 and 3, and no BatchNorm forward runs under the program;
* fallback — with grad recording on, or a BN in training mode, a routed
  block or BN returns what its module's forward returns;
* snapshot — rewriting a BN after lowering leaves the program's
  outputs unchanged, while the float path sees the rewrite;
* the summary line names how many executors run a fused epilogue;
* two threads hammering one engine each get a solo run's output.
"""

import copy
import sys
import threading
from functools import partial

import numpy as np
import pytest

from repro import nn
from repro.camera import render_scene
from repro.core import UPAQCompressor, hck_config
from repro.hardware import default_devices
from repro.ir.lowering import lower_executors
from repro.models import PointPillars, build_model
from repro.nn.graph import layer_map
from repro.nn.module import routed
from repro.nn.quantized import QuantizedConv2d, activation_scale
from repro.nn.tensor import Tensor
from repro.pointcloud import (LidarConfig, PillarConfig, SceneConfig,
                              SceneGenerator)
from repro.runtime import InferenceEngine, LoweredProgram
from repro.runtime.telemetry import LayerTelemetry

from ..models.conftest import TINY_CAMERA, TINY_SMOKE, TINY_VOXELS


def _benchmarked_pointpillars():
    """The compressed detector the end-to-end benchmark runs."""
    return PointPillars(
        pillar_config=PillarConfig(x_range=(0, 25.6), y_range=(-12.8, 12.8)),
        pfn_channels=8, stage_channels=(8, 16, 32), stage_depths=(1, 1, 1),
        upsample_channels=8, seed=1)


ARCHITECTURES = {
    "pointpillars": _benchmarked_pointpillars,
    "second": partial(build_model, "second", seed=0, **TINY_VOXELS),
    "smoke": partial(build_model, "smoke", seed=0, **TINY_SMOKE),
}


def _compress(name):
    model = ARCHITECTURES[name]()
    report = UPAQCompressor(hck_config()).compress(
        model, *model.example_inputs())
    report.model.eval()
    return report


@pytest.fixture(scope="module")
def scenes():
    cfg = SceneConfig(x_range=(5, 24), y_range=(-10, 10),
                      lidar=LidarConfig(channels=12, azimuth_steps=90))
    generator = SceneGenerator(cfg, seed=11)
    out = []
    for frame_id in range(3):
        scene = generator.generate(frame_id, with_image=False)
        scene.image = render_scene(TINY_CAMERA, scene.boxes,
                                   rng=np.random.default_rng(frame_id))
        out.append(scene)
    return out


@pytest.fixture(scope="module", params=sorted(ARCHITECTURES))
def lowered(request):
    report = _compress(request.param)
    return report.model, LoweredProgram(
        lower_executors(report.ir, report.model))


def _bytes(out):
    if isinstance(out, Tensor):
        return out.data.tobytes()
    if isinstance(out, dict):
        return {key: _bytes(out[key]) for key in sorted(out)}
    return [_bytes(item) for item in out]


def _kernel_only(program, model, scenes, store):
    """The trunk with only the kernel layers routed to the executors."""
    layers = layer_map(model)
    routes = {layers[name]: partial(executor.forward, telemetry=store[name])
              for name, executor in program.executors.items()}
    with routed(routes), nn.no_grad():
        return model.forward_batch(scenes)


@pytest.mark.parametrize("batch", [1, 3])
def test_outputs_and_telemetry_equal_kernel_only_routing(
        lowered, scenes, batch, monkeypatch):
    model, program = lowered
    window = scenes[:batch]
    plain_store = {name: LayerTelemetry(layer=name)
                   for name in program.executors}
    plain = _kernel_only(program, model, window, plain_store)

    def no_bn_forward(*args):
        raise AssertionError("a BatchNorm ran its own forward")

    monkeypatch.setattr(nn.BatchNorm2d, "forward", no_bn_forward)
    fused_store = {}
    with program.attached(model, fused_store), nn.no_grad():
        fused = model.forward_batch(window)
    monkeypatch.undo()
    assert program._bind(model).blocks
    assert _bytes(fused) == _bytes(plain)
    assert fused_store == plain_store
    assert all(counter.calls == batch for counter in fused_store.values())


# ---------------------------------------------------------------------------
# One block and one standalone BN, for the fallback rule
# ---------------------------------------------------------------------------

class BlockThenBN(nn.Module):
    def __init__(self):
        super().__init__()
        rng = np.random.default_rng(3)
        self.block = nn.ConvBNReLU(3, 4, 3, rng=rng)
        self.bn = nn.BatchNorm2d(4)
        for bn in (self.block.bn, self.bn):
            bn.weight.data[:] = rng.standard_normal(4).astype(np.float32)
            bn.bias.data[:] = rng.standard_normal(4).astype(np.float32)
            bn.running_mean[:] = rng.standard_normal(4).astype(np.float32)
            bn.running_var[:] = rng.uniform(0.1, 3.0, 4).astype(np.float32)

    def forward(self, x):
        return self.bn(self.block(x))


def _input(batch=2, seed=0):
    rng = np.random.default_rng(seed)
    return Tensor((rng.standard_normal((batch, 3, 6, 6)) * 2)
                  .astype(np.float32))


def _small_program(model):
    conv = model.block.conv
    return LoweredProgram({"block.conv": QuantizedConv2d.from_float(
        conv, activation_scale(_input().data))})


class TestFallback:
    def test_eval_no_grad_is_fused_and_exact(self):
        model = BlockThenBN().eval()
        program = _small_program(model)
        x = _input()
        with program.attached(model), nn.no_grad():
            fused = model(x)
        executor = program.executors["block.conv"]
        with routed({model.block.conv: executor.forward}), nn.no_grad():
            plain = model(x)
        assert fused.data.tobytes() == plain.data.tobytes()
        assert program.summary() == ("lowered program: 1 integer "
                                     "executors, 1 with a fused BN/ReLU "
                                     "epilogue, mode=lowered")

    @pytest.mark.parametrize("module", ["block", "bn"])
    def test_grad_recording_runs_the_module_forward(self, module):
        model = BlockThenBN().eval()
        program = _small_program(model)
        layer = getattr(model, module)
        x = model.block(_input()) if module == "bn" else _input()
        with program.attached(model):
            routed_out = layer(x)
            module_out = layer.forward(x)
        assert routed_out.requires_grad
        assert routed_out.data.tobytes() == module_out.data.tobytes()

    @pytest.mark.parametrize("module", ["block", "bn"])
    def test_training_bn_runs_the_module_forward(self, module):
        model = BlockThenBN().eval()
        program = _small_program(model)
        program._bind(model)
        twin = copy.deepcopy(model)
        for m in (model, twin):
            bn = m.bn if module == "bn" else m.block.bn
            bn.train()
        x = _input(batch=3, seed=1)
        if module == "bn":
            with nn.no_grad():
                x = twin.block(x)
        with program.attached(model), nn.no_grad():
            routed_out = getattr(model, module)(x)
        twin_program = _small_program(twin)
        with twin_program.attached(twin), nn.no_grad():
            module_out = getattr(twin, module).forward(x)
        assert routed_out.data.tobytes() == module_out.data.tobytes()
        bn = model.bn if module == "bn" else model.block.bn
        twin_bn = twin.bn if module == "bn" else twin.block.bn
        # The running statistics moved, exactly as the module's own
        # training forward moves them.
        assert bn.running_mean.tobytes() == twin_bn.running_mean.tobytes()
        assert bn.running_var.tobytes() == twin_bn.running_var.tobytes()

    def test_folded_block_is_not_fused(self):
        model = BlockThenBN().eval()
        model.block.bn = nn.Identity()
        program = _small_program(model)
        x = _input()
        with program.attached(model), nn.no_grad():
            out = model(x)
        assert not program._bind(model).blocks
        assert "0 with a fused" in program.summary()
        executor = program.executors["block.conv"]
        with routed({model.block.conv: executor.forward}), nn.no_grad():
            assert out.data.tobytes() == model(x).data.tobytes()


# ---------------------------------------------------------------------------
# Snapshot rule, summary, threads — on the benchmarked engine
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def benchmarked():
    return _compress("pointpillars")


def _engine(report, **kwargs):
    return InferenceEngine(report.model, default_devices()["jetson"],
                           ir=report.ir, execution="lowered", **kwargs)


def _trunk(engine, scene):
    model = engine.model
    with engine.program.attached(model), nn.no_grad():
        return _bytes(model.forward(*model.preprocess(scene)))


def test_bn_rewrite_after_lowering_does_not_reach_the_program(
        benchmarked, scenes):
    report = copy.deepcopy(benchmarked)
    engine = _engine(report)
    model = report.model
    # Rewritten in place after lowering, before the first run.
    for bn in (model.backbone.stage1.blocks[0].bn, model.backbone.bn1,
               model.pfn.bn):
        bn.running_var[:] = bn.running_var * np.float32(4.0)
        bn.running_mean[:] += np.float32(0.5)
        bn.weight.data[:] *= np.float32(2.0)
    untouched = _engine(benchmarked)
    expected = [_trunk(untouched, scene) for scene in scenes]
    assert [_trunk(engine, scene) for scene in scenes] == expected
    # The layers cache nothing: the float path and a program lowered
    # after the rewrite both see it.
    assert _float_trunk(model, scenes[0]) \
        != _float_trunk(benchmarked.model, scenes[0])
    assert _trunk(_engine(report), scenes[0]) != expected[0]


def _float_trunk(model, scene):
    with nn.no_grad():
        return _bytes(model.forward(*model.preprocess(scene)))


def test_summary_counts_fused_epilogues(benchmarked):
    assert _engine(benchmarked).program.summary() == (
        "lowered program: 12 integer executors, 6 with a fused BN/ReLU "
        "epilogue, mode=lowered")


def _boxes(report):
    return [[(b.x, b.y, b.z, b.dx, b.dy, b.dz, b.yaw, b.label, b.score)
             for b in p.boxes] for p in report.predictions]


def test_two_threads_hammer_one_engine(benchmarked, scenes):
    """2 threads × 20 two-scene windows on one engine; every window
    equals the same window run solo."""
    engine = _engine(benchmarked, batch_size=2)
    windows = [[scenes[k % 3], scenes[(k + 1) % 3]] for k in range(3)]
    solo = [_boxes(engine.run(window)) for window in windows]
    got = [[], []]
    errors = []

    def worker(t):
        try:
            for k in range(20):
                window = (k + t) % 3
                got[t].append((window, _boxes(engine.run(windows[window]))))
        except BaseException as exc:    # surfaced by the assert below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)     # interleave the threads finely
    try:
        threads = [threading.Thread(target=worker, args=(t,))
                   for t in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not errors
    assert not any(thread.is_alive() for thread in threads)
    assert [len(runs) for runs in got] == [20, 20]
    for runs in got:
        for window, boxes in runs:
            assert boxes == solo[window]
