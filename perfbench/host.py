"""Host-side measurement: the speed-reference probe, CPU time and RSS.

The vCPUs this benchmark runs on change speed by 10–25 % over seconds,
and CPU time slows down with them, so raw milliseconds of identical
code drift between runs.  Every gated timing is therefore a ratio: a
unit's latency divided by the time fixed reference kernels (the probe)
took right next to it, while the program was idle.

Two kernels, because contention on a shared host slows
interpreter-bound and memory-bound code by different amounts: the
*interp* kernel (a loop of numpy calls on 4x2 arrays) tracks the
NMS-bound ``frame``; ``trunk`` (pillarization, im2col gathers, small
gemms) is tracked best by interp + *memory* (gathers and quantisation
over a 1 MiB array, into preallocated buffers so the probe adds nothing
to the peak RSS).  README.md has the measurements behind the choice.
"""

from __future__ import annotations

import os
import time

import numpy as np

#: Iterations of the interp kernel per chunk (~2.3 ms on the reference host).
PROBE_ITERS = 100
#: Iterations of the memory kernel per chunk (~2.7 ms on the reference host).
MEMORY_ITERS = 2
#: Median interp chunk on the reference host (2-vCPU x86 VM, OpenBLAS
#: 0.3.31); converts ref-normalised set-up time back to seconds.
NOMINAL_REF_MS = 2.3

_CLK_TCK = os.sysconf("SC_CLK_TCK")
_MEMORY_DATA = np.random.default_rng(0).standard_normal((16, 8192))
_MEMORY_INDEX = np.random.default_rng(1).integers(0, 8192, size=6000)
_GATHERED = np.empty((16, 6000))
_SCALED = np.empty((16, 6000))
_CODES = np.empty((16, 6000), dtype=np.int64)


def _interp_kernel(iters: int = PROBE_ITERS) -> float:
    base = np.arange(8, dtype=np.float64).reshape(4, 2)
    acc = 0.0
    for i in range(iters):
        b = base * 1.5 + i
        c = np.roll(b, 1, axis=0)
        acc += float(np.abs(np.sum(b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0])))
        d = np.array([b[0], c[1]])
        acc += float(np.hypot(d[0, 0], d[1, 1]))
    return acc


def _memory_kernel(iters: int = MEMORY_ITERS) -> float:
    acc = 0.0
    for _ in range(iters):
        np.take(_MEMORY_DATA, _MEMORY_INDEX, axis=1, out=_GATHERED)
        np.rint(np.multiply(_GATHERED, 7.0, out=_SCALED), out=_SCALED)
        np.copyto(_CODES, _SCALED, casting="unsafe")
        acc += float(_CODES.sum())
        acc += float(np.maximum(_GATHERED, 0, out=_SCALED).max())
    return acc


def probe_ms(chunks: int = 1, memory: bool = False) -> float:
    """Mean wall milliseconds of one probe chunk, over ``chunks`` runs.

    A chunk is one interp kernel run, plus one memory kernel run when
    ``memory`` is set.
    """
    start = time.perf_counter()
    for _ in range(chunks):
        _interp_kernel()
        if memory:
            _memory_kernel()
    return (time.perf_counter() - start) * 1e3 / chunks


def children_cpu_s(pids) -> float:
    """User+system CPU seconds of live processes ``pids`` (Linux /proc)."""
    total = 0
    for pid in pids:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        total += int(fields[11]) + int(fields[12])     # utime, stime
    return total / _CLK_TCK


def reset_peak_rss(pids=()) -> bool:
    """Restart the peak-RSS count of this process and ``pids`` from now.

    Returns False when the kernel refuses (no ``clear_refs``); the peak
    then still counts from process start.
    """
    try:
        for pid in ("self", *pids):
            with open(f"/proc/{pid}/clear_refs", "w") as handle:
                handle.write("5")
    except OSError:
        return False
    return True


def peak_rss_mb(pids=()) -> float:
    """Peak RSS (``VmHWM``) in MiB of this process plus live ``pids``."""
    total_kb = 0
    for pid in ("self", *pids):
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
    return total_kb / 1024.0


def blas_version() -> str:
    """The numpy version and the BLAS it was built against."""
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"numpy {np.__version__}, {blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return f"numpy {np.__version__}"
