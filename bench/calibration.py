"""A fixed reference computation that the op metrics are measured against.

The shared 2-vCPU virtual machine the benchmark was written on changes
speed in phases of a minute or so, as other guests load the host's cores,
and CPU time follows: over 150 s of alternating runs, the same 38
equilibrium ops took from 0.66 to 1.10 s of CPU (medians of 15 s windows),
which no averaging inside a 15 s run removes; in multiples of this
computation's CPU time they took from 10.8 to 12.1.  The worker therefore
runs it about twice a second between ops and reports op times in multiples
of its median CPU time in the same pass (unit ``cal``).

The computation mixes what aym's ops spend their time on: tuple-keyed dict
updates in pure Python (the sampler and enumeration walks), elementwise
numpy on 50,000-element arrays, and scipy quadrature (the verifier).  It uses no aym code, so no change to aym can move it; changing
it changes the unit of every op metric.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate


def reference_work() -> int:
    """About 80 ms of CPU on a 2-vCPU Xeon VM; the result is only a guard."""
    seen: dict[tuple[int, ...], int] = {}
    state = (0,) * 8
    for i in range(40_000):
        state = state[1:] + ((state[0] * 31 + i) % 97,)
        seen[state] = seen.get(state, 0) + 1
    a = np.arange(50_000, dtype=float)
    for _ in range(40):
        a = np.sqrt(a * a + 1.0)
    for j in range(10):
        integrate.quad(lambda x, s=j + 1: math.exp(-x / s) * x, 0.0, 50.0)
    return len(seen)
