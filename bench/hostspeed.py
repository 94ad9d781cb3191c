"""Host speed calibration for the benchmark's timings.

On a shared VM (the baseline's host is a 2-vCPU Intel Xeon VM) each vCPU
can run up to about 1.7x slower for stretches of seconds to minutes, each on
its own schedule, and CPU time slows with wall time, so neither clock is
steady by itself. So a run first pins itself, and every process it starts, to the vCPU that is
fastest at that moment, and a fixed integer-only kernel (no liecurv code, and
no GC-tracked allocations that could trigger collections of the program's
garbage) is timed next to the work on that same vCPU. Each time is reported
at the host speed where the probe takes its reference time: measured time x
reference / probe time.

The slow stretches slow pure-Python work by about 1.65x but starting a
process and importing modules by only about 1.3x, so work dominated by
process start-up (a cold CLI call, interpreter set-up) is scaled by a second
probe: a child interpreter that imports a few stdlib modules and exits.

Run directly, it prints both probes' times on this host.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
from time import perf_counter

# The probes' times on an idle vCPU of a 2-vCPU Intel Xeon VM, Python 3.11.7.
KERNEL_MS = 5.0
CHILD_MS = 55.0


def kernel_ms() -> float:
    t0 = perf_counter()
    acc, total = 1, 0
    for k in range(1, 20000):
        acc = (acc * 1103515245 + k) % 2305843009213693951
        total += acc // k
    return (perf_counter() - t0) * 1e3


def child_ms() -> float:
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import argparse, fractions, hashlib, json"],
                   check=True, timeout=60)
    return (perf_counter() - t0) * 1e3


# name -> (probe, its reference time in ms)
PROBES = {"kernel": (kernel_ms, KERNEL_MS), "child": (child_ms, CHILD_MS)}


def scale(samples_ms, probe: str = "kernel") -> float:
    """Factor that brings times measured next to these probe samples to the
    reference speed."""
    return PROBES[probe][1] / statistics.median(samples_ms)


def pin_fastest_cpu() -> int | None:
    """Pin this process (and what it starts later) to the allowed CPU on
    which the kernel runs fastest now. Returns the CPU, or None when the
    platform cannot pin."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    allowed = sorted(os.sched_getaffinity(0))
    speeds = []
    try:
        for cpu in allowed:
            os.sched_setaffinity(0, {cpu})
            speeds.append((statistics.median(kernel_ms() for _ in range(3)), cpu))
        best = min(speeds)[1]
        os.sched_setaffinity(0, {best})
    except OSError:  # pinning refused: run as placed
        return None
    return best


if __name__ == "__main__":
    for name, (probe, reference) in PROBES.items():
        print(f"{name}: {statistics.median(probe() for _ in range(21)):.3f} ms "
              f"(reference {reference} ms)")
