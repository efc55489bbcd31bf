"""Fixed reference kernel that tracks how fast the host runs right now.

On a shared host the same pass can take 30-70% longer in one minute
than in the next, and timings stay slow for whole runs. The benchmark
therefore times this kernel next to every timed pass and every set-up
sample and reports those times rescaled to the speed at which the kernel
takes ``NOMINAL_S``:

    scaled = wall * NOMINAL_S / (kernel seconds around it)

The kernel mixes the kinds of work the program does (element-wise
array arithmetic, per-element Python calls into numpy scalars, a small
LAPACK eigensolve) and uses nothing from the program, so a change to
the program cannot move it. Raw wall times are reported alongside.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# about the kernel's fastest time on the host the benchmark was tuned on
# (Intel Xeon, 2 vCPUs, one BLAS thread), so scaled times read close to
# the wall time of an uncontended run there
NOMINAL_S = 0.1

_X = np.linspace(0.0, 1.0, 150_000)
_A = np.random.default_rng(0).standard_normal((120, 120))


def kernel() -> float:
    """Run the reference work once; returns its wall seconds."""
    start = perf_counter()
    for _ in range(3):
        for _ in range(8):
            np.exp(-_X * _X) * np.cos(_X) + _X
        acc = 0.0
        for i in range(6000):
            acc += float(np.sqrt(np.float64(i)))
        for _ in range(3):
            np.linalg.eigvals(_A)
    return perf_counter() - start


def scale(wall: float, before: float, after: float) -> float:
    """Wall seconds rescaled by the kernel times measured around them."""
    return wall * NOMINAL_S / ((before + after) / 2.0)
