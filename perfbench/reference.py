"""The reference kernel that the timed loop runs between calls.

The benchmark shares its machine, whose speed changes by a third within
minutes. A fixed piece of NumPy/SciPy work, timed just before and just after
each call, measures the speed of the moment; a call's time divided by it does
not move with that speed. The program never runs this code, so a change to
the program cannot move the kernel's time.

The kernel mixes the operations the workloads spend their time on, at
N=1000: a vector loop of exp, cos, weighted means and sorts, and a small
swarm with counter-hash noise through ``ndtri``, an Ackley objective,
consensus weights, an inertia step, stored snapshots, sorted-sample gaps and
histograms. One call takes about 0.1 s.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

N = 1000
VECTOR_ROUNDS = 600
SWARM_STEPS = 200

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)


def make_kernel():
    """Build the inputs once and return the kernel, a call without arguments."""
    x = np.random.default_rng(0).standard_normal(N)
    z = np.random.default_rng(1).standard_normal(N)
    counters = np.arange(N, dtype=np.uint64)
    bins = np.linspace(-3.0, 3.0, 41)

    def noise(step: int) -> np.ndarray:
        with np.errstate(over="ignore"):
            h = (counters + np.uint64(step * N + 1)) * _GOLDEN
            h = (h ^ (h >> np.uint64(30))) * _MIX_1
            h = (h ^ (h >> np.uint64(27))) * _MIX_2
            h ^= h >> np.uint64(31)
        return ndtri(((h >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53)

    def ackley(p: np.ndarray) -> np.ndarray:
        return (-20.0 * np.exp(-0.2 * np.abs(p)) - np.exp(np.cos(2.0 * np.pi * p))
                + 20.0 + np.e)

    def vector_loop() -> float:
        s = 0.0
        for _ in range(VECTOR_ROUNDS):
            y = np.exp(-x * x) + np.cos(z) * 0.5
            w = np.exp(-30.0 * (y - y.min()))
            s += float(w @ y / w.sum())
            s += float(np.mean((np.sort(y) - z) ** 2))
        return s

    def swarm() -> float:
        p, v = x.copy(), np.zeros(N)
        snaps = np.empty((SWARM_STEPS + 1, N))
        snaps[0] = p
        s = 0.0
        for t in range(SWARM_STEPS):
            f = ackley(p)
            w = np.exp(-30.0 * (f - f.min()))
            c = float(w @ p / w.sum())
            v = 0.9 * v + 0.01 * (c - p) + 0.05 * noise(t) * np.abs(p - c)
            p = p + v
            snaps[t + 1] = p
            s += float(np.mean((np.sort(p) - np.sort(snaps[t])) ** 2))
            s += float(p.mean()) + float(p.var())
            s += float(np.histogram(p, bins=bins)[0][20])
        return s

    def kernel() -> float:
        return vector_loop() + swarm()
    return kernel
