"""Machine-speed calibration for time metrics on a shared, noisy machine.

On a shared machine other tenants can slow every process by 20-40% for
spells of seconds to minutes.  Every run therefore times a fixed calibration
burst (sparse polynomial multiplication over ``Fraction``, stdlib only, close
to the package's own kernels) interleaved with its measurements, and reports
each time at reference speed:

    reported = measured * REFERENCE_S / (mean calibration burst time)

``REFERENCE_S`` is a fixed scale, about the median burst time on the
machine the benchmark was defined on (Intel Xeon at 2.1 GHz, 2 vCPUs,
Python 3.11.7), so there reported times are close to measured times.  The
values as measured are printed in each run's context line.  This file must
not change between a parent and a change that are compared.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.005

_P = {(i, j): Fraction(i - j, i + j + 1) for i in range(6) for j in range(6)}


# bursts in one calibration group (before and after a process or a pass)
GROUP = 4


def burst() -> float:
    """Seconds taken by one calibration burst.

    The garbage collector is off during the burst, so that a larger heap in
    the measured process does not slow the burst and cancel part of a real
    slowdown of the program when times are scaled.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        out: dict = {}
        for (a, b), c in _P.items():
            for (e, f), g in _P.items():
                k = (a + e, b + f)
                out[k] = out.get(k, 0) + c * g
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def bursts() -> list[float]:
    return [burst() for _ in range(GROUP)]


def factor(bursts: list[float]) -> float:
    """Scale from measured to reference-speed time."""
    return REFERENCE_S * len(bursts) / sum(bursts)
