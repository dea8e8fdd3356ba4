"""Fixed reference computations that gauge how fast the machine runs right now.

On a shared 2-core virtual machine (Intel Xeon, 2.1 GHz) the same
analytic-dense-m23 sweeps took from 3.2 s to 6.1 s, drifting over minutes
with the load of other tenants.  So each repetition also times one
of these computations several times just before and just after its
sweeps, and `sweep_rel` is the sweep time over their mean.  Each
computation resembles the work that dominates a workload, because a
drift slows different kinds of work by different amounts:

* `numpy`: array sampling and reductions, as in the Monte Carlo passes;
* `quad`: adaptive quadrature of a Python integrand, as in the reference.

They use only the standard library, numpy and scipy, never the package,
so no change to the package can move them.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy import integrate


def numpy_sampling() -> None:
    rng = np.random.Generator(np.random.PCG64(2024))
    # Small blocks keep its memory (about 1 MB) well below a sweep's, so
    # the calibration never sets the process's peak RSS.
    for _ in range(120):
        draws = -np.log(rng.random((200, 100, 3))).sum(axis=2)
        draws.max(axis=0)


def python_quadrature() -> None:
    for k in range(500):
        u, v, p = 10.0 ** (k % 40 / 8 - 2), 0.5 + k % 20 / 20, k % 4

        def integrand(t: float) -> float:
            e = -v * t - u * t ** 1.5 + p * math.log(t) if t > 0.0 else -math.inf
            return math.exp(e) if e > -745.0 else 0.0

        integrate.quad(integrand, 0.0, 200.0, points=[max(p, 1) / v], limit=500,
                       epsabs=0.0, epsrel=1e-11)


CALIBRATIONS = {"numpy": numpy_sampling, "quad": python_quadrature}


def calibration_seconds(kind: str) -> float:
    """Wall time of one run of the named reference computation."""
    start = time.perf_counter()
    CALIBRATIONS[kind]()
    return time.perf_counter() - start
