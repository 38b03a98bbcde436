"""A fixed reference kernel that tracks how fast the host runs right now.

On a shared host the speed of one core swings by 15-30 % over seconds to
minutes, with the same instructions and no descheduling: thread CPU time
swings with wall time.  Run-to-run spread in raw seconds is then larger
than any bound worth enforcing.  The benchmark therefore times this kernel
between consecutive checks and scales each check's latency by
``NOMINAL_S / kernel time``, the mean of the kernels before and after it.
The result is in reference seconds (``ref_s``): wall seconds on a host that
runs the kernel in ``NOMINAL_S``.

The kernel mixes the kinds of work the program does: permutation algebra on
tuples and sets, small symmetric eigensolves, and products of Python-integer
matrices.  It never calls the program, so a change to the program cannot
change the scale.

Set-up is timed in fresh interpreters, and half of it is process start-up
and imports, which the kernel alone tracks poorly.  So a set-up is scaled
instead by a reference start-up, timed before and after it: a fresh
interpreter that runs this file, which imports numpy and runs the kernel
ten times (``startup_seconds``).
"""

from __future__ import annotations

import subprocess
import sys
from time import perf_counter

import numpy as np

NOMINAL_S = 0.012  # kernel time on a 2-CPU x86-64 VM at typical speed
STARTUP_KERNELS = 10
STARTUP_NOMINAL_S = 0.30  # startup_seconds() on the same host at that speed

_M = np.random.default_rng(0).standard_normal((24, 24))
_M = _M + _M.T
_A = (np.arange(400).reshape(20, 20) % 3).astype(object)


def _kernel() -> int:
    n = 9
    gens = (tuple((i + 1) % n for i in range(n)), (1, 0) + tuple(range(2, n)))
    seen = {tuple(range(n))}
    frontier = list(seen)
    while frontier and len(seen) < 3000:
        nxt = []
        for a in frontier:
            for g in gens:
                b = tuple(g[a[i]] for i in range(n))
                if b not in seen:
                    seen.add(b)
                    nxt.append(b)
        frontier = nxt
    for _ in range(60):
        np.linalg.eigvalsh(_M)
    P = _A
    for _ in range(6):
        P = P @ _A
    return len(seen) + int(P[0, 0] % 7)


def kernel_seconds() -> float:
    start = perf_counter()
    _kernel()
    return perf_counter() - start


def startup_seconds() -> float:
    """Wall time of a fresh interpreter that runs this file."""
    start = perf_counter()
    subprocess.run([sys.executable, __file__], check=True)
    return perf_counter() - start


if __name__ == "__main__":
    for _ in range(STARTUP_KERNELS):
        _kernel()
