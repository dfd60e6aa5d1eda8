"""How fast this host runs right now, from a fixed reference kernel.

The benchmark's host is a few cores of a shared machine, and its speed
drifts: the 5-second medians of one fixed call, `verify_paper(5)`, range
from 28 to 46 ms within a minute, and a slow phase can outlast a whole run.
`kernel()` is a fixed mix of the kind of work homcart does: an interpreted
loop over Python ints, numpy products of small object-array and int64
matrices, and dict updates.  Timed next to homcart's ops it slows down with
them: over 90 s, the ops' 6-second medians ranged over a factor of 1.6 and
their ratios to the kernel's median over a factor of 1.14.

A time `t` measured while the kernel takes `k` ms is reported as
`t * REF_KERNEL_MS / k`: the time it would take on a host where the kernel
takes REF_KERNEL_MS.  The kernel never calls homcart, so a change to homcart
moves the ops and not the reference.  Never change the kernel or the
constant: that would rescale every reported time.
"""

import statistics
import time

import numpy as np

REF_KERNEL_MS = 1.5  # about this kernel's median on a shared 2-core x86-64 VM
WINDOW = 4  # an op is rescaled by the median of the 2 * WINDOW samples around it


def kernel() -> int:
    acc = 0
    for i in range(3000):
        acc = (acc * 31 + i) % 1_000_003
    a = np.arange(36, dtype=object).reshape(6, 6)
    for _ in range(40):
        a = (a @ a) % 1009
    b = np.arange(64, dtype=np.int64).reshape(8, 8)
    for _ in range(200):
        b = (b @ b) % 97
    d = {}
    for i in range(2000):
        d[i % 101] = d.get(i % 101, 0) + i
    return acc + int(a[0, 0]) + int(b[0, 0]) + len(d)


def sample() -> float:
    """One timed run of the kernel, in ms."""
    t0 = time.perf_counter()
    kernel()
    return (time.perf_counter() - t0) * 1e3


def scale_factor(samples: list[float]) -> float:
    """Multiply a time measured during `samples` by this to rescale it."""
    return REF_KERNEL_MS / statistics.median(samples)


def rescale(times: list[float], samples: list[float]) -> list[float]:
    """Rescale op j of `times`, run between samples[j] and samples[j + 1],
    by the samples in a window around it."""
    if len(samples) != len(times) + 1:
        raise ValueError("need one kernel sample before each op and one after the last")
    return [
        t * scale_factor(samples[max(0, j + 1 - WINDOW) : j + 1 + WINDOW])
        for j, t in enumerate(times)
    ]
