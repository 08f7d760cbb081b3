"""Tests for profiling, deployment plans and the device models."""

import threading

import numpy as np
import pytest

from repro import nn
from repro.hardware import (CompressionMeta, DeviceModel, EnergyMeter,
                            JETSON_ORIN_NANO, RTX_4080, annotate_layer,
                            compile_model, default_devices, get_annotation,
                            profile_model)
from repro.hardware.profile import profiling
from repro.nn import Tensor


@pytest.fixture
def simple_model():
    rng = np.random.default_rng(0)
    return nn.Sequential(
        nn.Conv2d(3, 8, 3, padding=1, rng=rng),
        nn.ReLU(),
        nn.Conv2d(8, 4, 1, rng=rng),
    )


@pytest.fixture
def example_input():
    rng = np.random.default_rng(1)
    return Tensor(rng.standard_normal((1, 3, 16, 16)).astype(np.float32))


class TestProfile:
    def test_layer_count(self, simple_model, example_input):
        profile = profile_model(simple_model, example_input)
        assert len(profile.layers) == 2

    def test_conv_macs(self, simple_model, example_input):
        profile = profile_model(simple_model, example_input)
        conv = profile.by_name()["0"]
        # 16×16 output positions × 8 out × 3 in × 9 taps
        assert conv.macs == 16 * 16 * 8 * 3 * 9

    def test_1x1_macs(self, simple_model, example_input):
        profile = profile_model(simple_model, example_input)
        proj = profile.by_name()["2"]
        assert proj.macs == 16 * 16 * 4 * 8

    def test_weight_count_includes_bias(self, simple_model, example_input):
        profile = profile_model(simple_model, example_input)
        conv = profile.by_name()["0"]
        assert conv.weight_count == 8 * 3 * 9 + 8

    def test_forward_restored_after_profiling(self, simple_model,
                                              example_input):
        profile_model(simple_model, example_input)
        out = simple_model(example_input)  # must not re-record
        assert out.shape == (1, 4, 16, 16)

    def test_profiling_is_context_local(self, simple_model, example_input):
        """A forward on another thread while ``profiling`` is open in
        this one is not recorded, and no module is patched."""
        inside, done = threading.Event(), threading.Event()

        def other_thread():
            inside.wait(10)
            simple_model(example_input)
            done.set()

        thread = threading.Thread(target=other_thread)
        thread.start()
        with profiling(simple_model) as profile:
            inside.set()
            assert done.wait(10)
            assert profile.layers == []
            assert all("forward" not in vars(m)
                       for m in simple_model.modules())
            simple_model(example_input)
        thread.join(10)
        assert [layer.name for layer in profile.layers] == ["0", "2"]
        assert all("forward" not in vars(m) for m in simple_model.modules())

    def test_total_macs_sums(self, simple_model, example_input):
        profile = profile_model(simple_model, example_input)
        assert profile.total_macs == sum(l.macs for l in profile.layers)


class TestCompile:
    def test_dense_plan_ratio_is_one(self, simple_model, example_input):
        plan = compile_model(simple_model, example_input)
        assert plan.compression_ratio == pytest.approx(1.0)

    def test_annotations_flow_into_plan(self, simple_model, example_input):
        annotate_layer(simple_model[0],
                       CompressionMeta(bits=8, scheme="semi-structured"))
        plan = compile_model(simple_model, example_input)
        layer = {l.profile.name: l for l in plan.layers}["0"]
        assert layer.bits == 8
        assert layer.scheme == "semi-structured"

    def test_sparsity_measured_from_weights(self, simple_model,
                                            example_input):
        simple_model[0].weight.data[:, :, 0, :] = 0.0
        plan = compile_model(simple_model, example_input)
        layer = {l.profile.name: l for l in plan.layers}["0"]
        assert layer.sparsity == pytest.approx(
            (simple_model[0].weight.data == 0).mean(), abs=0.01)

    def test_quantization_shrinks_storage(self, simple_model, example_input):
        annotate_layer(simple_model[0], CompressionMeta(bits=8))
        annotate_layer(simple_model[2], CompressionMeta(bits=8))
        plan = compile_model(simple_model, example_input)
        assert plan.compression_ratio > 3.0

    def test_fp32_pruning_without_quant_skips_no_macs(self):
        rng = np.random.default_rng(2)
        model = nn.Sequential(nn.Conv2d(2, 2, 3, rng=rng))
        model[0].weight.data[:, :, :2, :] = 0.0
        annotate_layer(model[0], CompressionMeta(bits=32,
                                                 scheme="semi-structured"))
        x = Tensor(rng.standard_normal((1, 2, 8, 8)).astype(np.float32))
        plan = compile_model(model, x)
        layer = plan.layers[0]
        assert layer.effective_macs == layer.profile.macs

    def test_int8_pruning_skips_macs(self):
        rng = np.random.default_rng(2)
        model = nn.Sequential(nn.Conv2d(2, 2, 3, rng=rng))
        model[0].weight.data[:, :, :2, :] = 0.0
        annotate_layer(model[0], CompressionMeta(bits=8,
                                                 scheme="semi-structured"))
        x = Tensor(rng.standard_normal((1, 2, 8, 8)).astype(np.float32))
        plan = compile_model(model, x)
        layer = plan.layers[0]
        assert layer.effective_macs < layer.profile.macs

    def test_bad_scheme_raises(self):
        with pytest.raises(ValueError):
            CompressionMeta(bits=8, scheme="magic")

    def test_bad_bits_raises(self):
        with pytest.raises(ValueError):
            CompressionMeta(bits=0)

    def test_default_annotation_dense(self, simple_model):
        meta = get_annotation(simple_model[1])
        assert meta.bits == 32
        assert meta.scheme == "dense"


class TestDeviceModel:
    def test_jetson_slower_than_rtx(self, simple_model, example_input):
        plan = compile_model(simple_model, example_input)
        jetson = DeviceModel(JETSON_ORIN_NANO)
        rtx = DeviceModel(RTX_4080)
        assert jetson.latency(plan) > rtx.latency(plan)

    def test_quantization_reduces_latency_and_energy(self, simple_model,
                                                     example_input):
        dense_plan = compile_model(simple_model, example_input)
        for layer in (simple_model[0], simple_model[2]):
            annotate_layer(layer, CompressionMeta(bits=8,
                                                  scheme="semi-structured"))
        quant_plan = compile_model(simple_model, example_input)
        jetson = DeviceModel(JETSON_ORIN_NANO)
        assert jetson.latency(quant_plan) < jetson.latency(dense_plan)
        assert jetson.energy(quant_plan) < jetson.energy(dense_plan)

    def test_calibration_scales_latency(self, simple_model, example_input):
        plan = compile_model(simple_model, example_input)
        jetson = DeviceModel(JETSON_ORIN_NANO)
        calibrated = jetson.calibrate(plan, reference_latency_s=35.98e-3)
        assert calibrated.latency(plan) == pytest.approx(35.98e-3, rel=1e-6)

    def test_bitwidth_speedup_interpolation(self):
        spec = JETSON_ORIN_NANO
        assert spec.speedup_for_bits(8) == 4.0
        assert spec.speedup_for_bits(32) == 1.0
        assert 4.0 < spec.speedup_for_bits(6) <= 5.0
        assert spec.speedup_for_bits(64) == 1.0  # clamps high

    def test_nonkernel_floor_limits_speedup(self, simple_model,
                                            example_input):
        # Even at absurdly low bits the nonkernel time remains.
        for layer in (simple_model[0], simple_model[2]):
            annotate_layer(layer, CompressionMeta(bits=4,
                                                  scheme="semi-structured"))
        plan = compile_model(simple_model, example_input)
        jetson = DeviceModel(JETSON_ORIN_NANO)
        assert jetson.latency(plan) > jetson.nonkernel_time(plan)


class TestEnergyMeter:
    def test_trace_integrates_to_energy(self, simple_model, example_input):
        plan = compile_model(simple_model, example_input)
        device = DeviceModel(JETSON_ORIN_NANO)
        meter = EnergyMeter(device, sample_rate_hz=5e6)
        energy, samples = meter.measure(plan)
        assert len(samples) > 0
        closed_form = device.energy(plan) \
            - device.nonkernel_time(plan) * JETSON_ORIN_NANO.idle_power_w \
            - plan.elementwise_bytes * JETSON_ORIN_NANO.byte_energy_j
        assert energy == pytest.approx(closed_form, rel=1e-6)

    def test_average_power_positive(self, simple_model, example_input):
        plan = compile_model(simple_model, example_input)
        meter = EnergyMeter(DeviceModel(JETSON_ORIN_NANO))
        assert meter.average_power(plan) > 0

    def test_default_devices_keys(self):
        devices = default_devices()
        assert set(devices) == {"jetson", "rtx4080"}
