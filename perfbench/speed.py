"""Machine-speed reference for the benchmark's wall times.

The benchmark's machine is shared: other tenants' load changes the speed of
this process by up to 1.5x, in phases that last from seconds to minutes.  A
run can fall wholly in a fast or wholly in a slow phase, so raw medians of
separate runs spread by up to 33% (quartile distance over median).  To
measure the program rather than its neighbours, a fixed pure-Python loop of
2x2 float products (the same kind of work as the program's holonomy kernel)
is timed between operations, and each wall time is scaled by REFERENCE_S over
the loop's mean time in a window around it.  That brings the spread to
2-5.5%.  Set-up launches are scaled by launches of a reference program
(REFERENCE_LAUNCH) instead.  The raw figures are printed beside the adjusted
ones on stderr.
"""

from __future__ import annotations

import math
import statistics
import time

# Nominal time of one reference_loop(); it sets the scale of adjusted times.
# On a 2-core Xeon at 2.0 GHz with Python 3.11 the loop takes 3.4-4.5 ms.
REFERENCE_S = 0.004
LOOP = 10000
# Set-up launches are scaled by launches of this stdlib-only program instead:
# a fresh interpreter with imports of about the same kind, none from the
# program, so that a change to the program's imports still shows.
REFERENCE_LAUNCH = "import argparse, decimal, fractions, json; print('ready', flush=True)"
# Nominal time of one REFERENCE_LAUNCH; it sets the scale of setup_s.
# On the 2-core Xeon named above it takes 62-85 ms.
REFERENCE_LAUNCH_S = 0.07
# Reference samples on each side of an operation that enter its scale factor.
# Speed phases can turn within a second, but single samples are noisy.
WINDOW = 4

_ROTATION = (math.cos(0.1), -math.sin(0.1), math.sin(0.1), math.cos(0.1))


def _mul(m, n):
    return (
        m[0] * n[0] + m[1] * n[2],
        m[0] * n[1] + m[1] * n[3],
        m[2] * n[0] + m[3] * n[2],
        m[2] * n[1] + m[3] * n[3],
    )


def reference_loop() -> float:
    """Wall time of LOOP products with a fixed rotation (entries stay bounded)."""
    start = time.perf_counter()
    m = (1.0, 0.0, 0.0, 1.0)
    for _ in range(LOOP):
        m = _mul(m, _ROTATION)
    return time.perf_counter() - start


def adjusted(times, refs) -> list:
    """Scale times[i] by REFERENCE_S over the mean of the reference samples near it.

    refs has one more entry than times: refs[i] was taken just before
    times[i] was measured and refs[i + 1] just after.  The mean runs over
    WINDOW samples on each side.
    """
    if len(refs) != len(times) + 1:
        raise ValueError("need one reference sample before and after every timing")
    return [
        t * REFERENCE_S / statistics.fmean(refs[max(0, i + 1 - WINDOW): i + 1 + WINDOW])
        for i, t in enumerate(times)
    ]
