"""Host-speed calibration for the repo benchmark.

Shared 2-vCPU hosts drift: identical fault-simulation work takes from
0.65 s to 1.4 s within a few minutes, and the drift moves every layer at
once.  Each timed operation is therefore bracketed by a fixed kernel of
program-independent interpreter work (dict updates, integer and list
operations, the paths the engines spend their time in), timed right
before and right after it.  On the host this benchmark was written on,
an operation's time and its bracketing kernel time correlate at 0.83
across a run, while both swing by 2x.  The reported time of an
operation is its host time scaled by ``REFERENCE_KERNEL_S / kernel``: it
reads as seconds on a host where the kernel takes
:data:`REFERENCE_KERNEL_S`.  Raw host times are printed beside every
reported one.  The kernel never calls the program, so a change to the
program moves the reported times exactly as much as the raw ones.
"""

from __future__ import annotations

import statistics
import time

#: The kernel's median duration on the host the bounds were set on
#: (2-vCPU container, CPython 3.11), in its fast state.
REFERENCE_KERNEL_S = 0.004

_ITERATIONS = 9000
_SAMPLES = 9


def kernel() -> int:
    table: dict = {}
    values = list(range(64))
    acc = 0
    for i in range(_ITERATIONS):
        key = (i * 7) & 511
        table[key] = table.get(key, 0) + (values[i & 63] ^ (i >> 3))
        acc = (acc + (table[key] & 15)) & 0xFFFF
    return acc


def kernel_seconds() -> float:
    """Median of a few kernel timings: the host's current speed."""
    timings = []
    for _ in range(_SAMPLES):
        started = time.perf_counter()
        kernel()
        timings.append(time.perf_counter() - started)
    return statistics.median(timings)


def scaled(seconds: float, before: float, after: float) -> float:
    """*seconds* of host time at the speed the bracketing kernels saw."""
    return seconds * REFERENCE_KERNEL_S * 2.0 / (before + after)
