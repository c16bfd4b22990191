"""Machine-speed calibration of op times on a shared host.

The benchmark's cores are shared with other tenants, and the speed they
give one process changes from second to second and drifts over minutes:
the same fixed pass of ``scan`` ops varies by about 0.18 (quartile spread
over median) between 10 s windows of one process, while its CPU time
equals its wall time.  A short, fixed kernel of pure-Python work, which
does not touch ``lgphase``, is therefore timed right before and right
after every op.  The kernel slows down with the op (in the same windows
the ratio of the two varies by about 0.015), so each op's wall time is
reported scaled to a reference speed::

    scaled = wall * REFERENCE_S / mean(kernel before, kernel after)

that is, as the time the op takes when the kernel takes ``REFERENCE_S``.
A change to the package moves the op times and not the kernel, so it
shows in full.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from time import perf_counter

# Median kernel time on the reference machine: Intel Xeon at 2.0 GHz,
# 2 vCPUs shared with other tenants, Python 3.11.7.
REFERENCE_S = 125e-6

_ROWS = tuple(tuple((7 * i + 3 * j) % 11 - 5 for j in range(8)) for i in range(6))


def kernel():
    """A fixed mix of small-integer, ``Fraction``, list and dict work."""
    total = Fraction(0)
    for r in range(3):
        for row in _ROWS:
            total += Fraction(sum(x * x for x in row), 1 + len(row) + r)
        counts = {}
        for i in range(40):
            counts[i % 13] = counts.get(i % 13, 0) + i
        sorted(counts.values())
    return total


def time_kernel():
    """Wall time of one kernel run, with the cyclic collector held off.

    Garbage left by an op is collected in the op's own time, not here.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        kernel()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scale(wall, before, after):
    """``wall`` seconds at the speed measured by the kernel around them."""
    return wall * REFERENCE_S * 2 / (before + after)
