"""Deterministic, index-addressed Gaussian increment tapes.

Every variate is a pure function of ``(seed, replicate, particle, step,
coordinate, channel)``.  Two solvers stepping through the same tape therefore
consume byte-identical noise at matching indices, no matter in which order or
from how many workers the queries arrive.  This is what makes the pathwise
PSO-vs-CBO gap a meaningful coupling estimate instead of Monte Carlo noise.

The generator is a counter hash (splitmix64 finalizer on the linearized index)
followed by the inverse normal CDF, so there is no stream state to replay.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np
from scipy.special import ndtri

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)
_U64_MASK = 0xFFFFFFFFFFFFFFFF


def _mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, vectorized over uint64 arrays."""
    z = (z ^ (z >> np.uint64(30))) * _MIX_1
    z = (z ^ (z >> np.uint64(27))) * _MIX_2
    return z ^ (z >> np.uint64(31))


def _standard_normals(seed: np.uint64, idx: np.ndarray) -> np.ndarray:
    """Map linear counters to N(0,1) variates via hash + inverse CDF."""
    with np.errstate(over="ignore"):
        h = _mix64(seed + (idx + np.uint64(1)) * _GOLDEN)
    # 53-bit uniform shifted into (0,1) so ndtri never sees 0 or 1
    u = ((h >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    return ndtri(u)


@dataclass(frozen=True)
class NoiseTape:
    """Index-addressed tape of standard normal increments.

    Layout is ``(replicates, particles, steps, dim, channels)``; channels are
    1-based, with channel 1 carrying the local noise and channel 2 the
    consensus-drift noise of the memory schemes (two independent Wiener
    processes).  Plain PSO/CBO only ever touch channel 1.

    The hash key is the row-major linear index over that layout, so the
    sizes enter it: ``steps`` is part of the index of every particle except
    particle 0 on replicate 0.  Two tapes that differ only in ``steps`` agree
    on that one particle and differ everywhere else, even at step 0, so a
    longer horizon does not extend a shorter one.
    """

    seed: int
    replicates: int
    particles: int
    steps: int
    dim: int
    channels: int = 1

    def __post_init__(self):
        if self.channels not in (1, 2):
            raise ValueError(f"channels must be 1 or 2, got {self.channels}")
        sizes = ("replicates", "particles", "steps", "dim", "channels")
        for name in sizes[:-1]:
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        # the linear index is a uint64 counter: a larger layout would wrap
        # and alias the noise of distinct indices
        if prod(getattr(self, name) for name in sizes) > 2**64:
            layout = ", ".join(f"{name}={getattr(self, name)}" for name in sizes)
            raise ValueError(f"noise tape layout {layout} has more than 2**64 "
                             "indices")

    def _seed64(self) -> np.uint64:
        return np.uint64(self.seed & _U64_MASK)

    def _check(self, name: str, value: int, bound: int, base: int = 0) -> None:
        if not base <= value < base + bound:
            raise IndexError(
                f"noise tape layout violation: {name}={value} outside "
                f"[{base}, {base + bound})"
            )

    def _linear_index(self, r, i, n, k, ch) -> np.ndarray:
        idx = np.asarray(r, dtype=np.uint64)
        for value, size in ((i, self.particles), (n, self.steps),
                            (k, self.dim), (ch, self.channels)):
            idx = idx * np.uint64(size) + np.asarray(value, dtype=np.uint64)
        return idx

    def theta(self, r: int, i: int, n: int, k: int, ch: int = 1) -> float:
        """Standard normal variate at one index tuple (repeatable)."""
        self._check("r", r, self.replicates)
        self._check("i", i, self.particles)
        self._check("n", n, self.steps)
        self._check("k", k, self.dim)
        self._check("ch", ch, self.channels, base=1)
        idx = self._linear_index(r, i, n, k, ch - 1)
        return float(_standard_normals(self._seed64(), idx))

    def theta_block(self, r: int, n: int, ch: int = 1) -> np.ndarray:
        """All per-particle, per-coordinate variates of one step.

        Returns an ``(particles, dim)`` array; entry ``[i, k]`` is bit-identical
        to ``theta(r, i, n, k, ch)``.
        """
        self._check("r", r, self.replicates)
        self._check("n", n, self.steps)
        self._check("ch", ch, self.channels, base=1)
        i = np.arange(self.particles, dtype=np.uint64)[:, None]
        k = np.arange(self.dim, dtype=np.uint64)[None, :]
        idx = self._linear_index(r, i, n, k, ch - 1)
        return _standard_normals(self._seed64(), idx)


_DIST_PARAMS = {"gaussian": ("mean", "var"), "uniform": ("a", "b")}


def initial_positions(seed, n: int, dim: int, dist=("gaussian", 0.0, 1.0)) -> np.ndarray:
    """Draw a deterministic i.i.d. initial cloud of shape ``(n, dim)``.

    ``dist`` is ``("gaussian", mean, var)`` or ``("uniform", a, b)``.  ``seed``
    may be an int or a sequence of ints (handy for per-replicate derivation,
    e.g. ``[seed, r]``); the same seed always reproduces the same cloud.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if dim < 1:
        raise ValueError("dim must be >= 1")
    kind = dist[0]
    for name, value in zip(_DIST_PARAMS.get(kind, ()), dist[1:]):
        if not np.isfinite(value):
            raise ValueError(f"{kind} {name} must be finite, got {value}")
    entropy = [s & _U64_MASK for s in seed] if np.iterable(seed) else seed & _U64_MASK
    rng = np.random.default_rng(np.random.SeedSequence(entropy))
    if kind == "gaussian":
        _, mean, var = dist
        if var <= 0:
            raise ValueError(f"gaussian variance must be > 0, got {var}")
        return mean + np.sqrt(var) * rng.standard_normal((n, dim))
    if kind == "uniform":
        _, a, b = dist
        if a >= b:
            raise ValueError(f"uniform bounds must satisfy a < b, got a={a}, b={b}")
        if not np.isfinite(b - a):
            raise ValueError(f"uniform b - a must be finite, got a={a}, b={b}")
        return rng.uniform(a, b, (n, dim))
    raise ValueError(f"unknown distribution {kind!r} (expected gaussian or uniform)")
