"""Reference kernel that measures how fast the machine runs right now.

On a shared machine other tenants slow a process down by up to 2x for
seconds to minutes at a time, while its CPU time still equals its wall
time.  The worker times this fixed kernel just before and just after each
CLI call; run.py divides the call's wall time by the kernel's time, so a
slow phase of the machine cancels out.  The kernel mixes the kinds of work
nslab does: small numpy expressions, batched 3x3 solves and float
formatting, driven from a Python loop.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Seconds one kernel pass takes on the reference machine when it is not
# contended (2-vCPU Intel Xeon VM, Python 3.11, numpy 2.4); normalised times
# are expressed in seconds at that speed.
REFERENCE_PASS_S = 0.031


def kernel():
    # Inputs are built without numpy.random, whose import alone would add
    # megabytes to the worker's peak resident memory.
    a = 1.0 + np.sin(np.arange(192.0)).reshape(3, 64) ** 2
    g = np.cos(np.arange(576.0)).reshape(64, 3, 3) + 3.0 * np.eye(3)
    total, chars = 0.0, 0
    for k in range(1200):
        b = np.sin(a) * a + np.sqrt(a)
        sol = np.linalg.solve(g, b.T[..., None])
        total += float(sol[k % 64, 0, 0])
        chars += len(",".join(repr(float(c)) for c in b[:, k % 64]))
        a = a + 1e-6
    return total, chars


def pass_seconds(passes=3):
    """Median seconds of one kernel pass over `passes` passes."""
    times = []
    for _ in range(passes):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)
