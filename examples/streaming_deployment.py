"""Deployment walkthrough: compress → pack → ship → stream.

The full on-vehicle story: compress a detector with UPAQ, serialize it
into the packed sparse format (the bytes a deployment would actually
ship), restore it into a fresh engine on the "device", and stream scenes
through it with per-frame latency/energy accounting against a real-time
deadline.

Run:  python examples/streaming_deployment.py
"""

from repro.core import UPAQCompressor, hck_config, pack_model
from repro.hardware import default_devices
from repro.models import PointPillars
from repro.pointcloud import SceneGenerator
from repro.runtime import (DegradationLadder, DegradationPolicy,
                           FaultInjector, FaultSpec, InferenceEngine,
                           LadderRung)


def main() -> None:
    # 1. Compress and pack on the "workstation".
    model = PointPillars(seed=0)
    report = UPAQCompressor(hck_config()).compress(
        model, *model.example_inputs())
    blob = pack_model(report.model)
    dense_kib = model.num_parameters() * 4 / 1024
    print(f"packed UPAQ (HCK) model: {len(blob) / 1024:.1f} KiB "
          f"(dense fp32 would be {dense_kib:.1f} KiB — "
          f"{dense_kib / (len(blob) / 1024):.2f}x)")

    # 2. Restore on the "vehicle" and build the streaming engine.
    jetson = default_devices()["jetson"]
    engine = InferenceEngine.from_packed(blob, PointPillars(seed=0),
                                         jetson, deadline_s=0.05)
    latency, energy = engine.frame_cost()
    print(f"per-frame cost on Jetson Orin Nano model: "
          f"{latency * 1e3:.3f} ms, {energy * 1e3:.2f} mJ "
          f"({'meets' if latency <= 0.05 else 'misses'} the 50 ms "
          f"real-time deadline)")

    # 3. Stream ten synthetic frames.
    generator = SceneGenerator(seed=3)
    scenes = [generator.generate(i, with_image=False) for i in range(10)]
    stream = engine.run(scenes)
    print(f"streamed {stream.num_frames} frames: "
          f"{sum(f.num_detections for f in stream.frames)} detections, "
          f"deadline hit rate {stream.deadline_hit_rate:.0%}, "
          f"total energy {stream.total_energy_j * 1e3:.1f} mJ")

    # 4. Compare against streaming the uncompressed model.
    base_engine = InferenceEngine(model, jetson, deadline_s=0.05)
    base_latency, base_energy = base_engine.frame_cost()
    print(f"uncompressed baseline: {base_latency * 1e3:.3f} ms/frame, "
          f"{base_energy * 1e3:.2f} mJ/frame → UPAQ saves "
          f"{(1 - energy / base_energy):.0%} energy per frame")

    # 5. The same stream under chaos: seeded sensor faults (frame drops,
    #    NaN-corrupted point clouds, latency jitter) with a degradation
    #    policy that holds the last good detections over corrupt frames,
    #    and a deadline watchdog ready to swap in a fallback model: a
    #    two-rung ladder whose primary is the architecture the blob is
    #    restored into.
    chaos = FaultInjector(FaultSpec(drop_rate=0.2, corrupt_rate=0.1,
                                    jitter="lognormal",
                                    jitter_scale_s=0.002, seed=11))
    restored = PointPillars(seed=0)
    ladder = DegradationLadder([LadderRung(name="hck", model=restored),
                                LadderRung(name="fallback",
                                           model=report.model)],
                               promote_after=0, probation=0)
    hardened = InferenceEngine.from_packed(
        blob, restored, jetson, deadline_s=0.05,
        policy=DegradationPolicy(on_corrupt="last_good",
                                 max_consecutive_misses=3),
        fault_injector=chaos, ladder=ladder)
    degraded = hardened.run(scenes)
    print(f"under injected faults: {degraded.summary()}")
    print("same seed → same fault schedule → identical report: "
          f"{degraded.status_counts == hardened.run(scenes).status_counts}")


if __name__ == "__main__":
    main()
