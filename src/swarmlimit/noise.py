"""Deterministic, index-addressed Gaussian increment tapes.

Every variate is a pure function of ``(seed, replicate, particle, step,
coordinate, channel)``.  Two solvers stepping through the same tape therefore
consume byte-identical noise at matching indices, no matter in which order or
from how many workers the queries arrive.  This is what makes the pathwise
PSO-vs-CBO gap a meaningful coupling estimate instead of Monte Carlo noise.

The generator is a counter hash (splitmix64 finalizer on the linearized index)
followed by the inverse normal CDF, so there is no stream state to replay.
The hash key of linear index ``idx`` is ``seed + (idx + 1) * GOLDEN mod
2**64``, and the index is linear in ``(r, i, n, k, ch - 1)``, so the keys of
a block are the ``(particles, dim)`` keys of replicate 0, step 0, channel 1
plus one scalar per replicate row and step, ``idx(r, 0, n, 0, ch - 1) *
GOLDEN mod 2**64``: the layout's own linear index of that row, taken by the
one function that linearizes an index.  A tape builds those keys from its
layout alone, once, on its first draw: a block is a pure function of ``(tape,
r, n, ch)``, and a tape keeps nothing that depends on what it drew.  So a
window of several steps can be drawn in one call, ahead of the steps that
use it, with the bits of one call per step.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import prod

import numpy as np
from scipy.special import ndtri

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)


def _mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, vectorized over uint64 arrays, in place."""
    z ^= z >> np.uint64(30)
    z *= _MIX_1
    z ^= z >> np.uint64(27)
    z *= _MIX_2
    z ^= z >> np.uint64(31)
    return z


def _keys(seed: np.uint64, idx: np.ndarray) -> np.ndarray:
    """Hash keys ``seed + (idx + 1) * GOLDEN mod 2**64`` of linear indices."""
    return seed + (idx + np.uint64(1)) * _GOLDEN


def _check_seed(seed) -> None:
    # a wider or fractional seed would draw the noise of another seed
    if not isinstance(seed, (int, np.integer)) or not 0 <= seed < 2**64:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed}")


def _check_count(name: str, value) -> None:
    """Reject a count that is not an integer >= 1, naming its field."""
    if not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1")


def _replicate_rows(r) -> tuple[tuple, bool]:
    """The replicates ``r`` names, one or a nonempty range or tuple of them,
    and whether ``r`` stacks them (is a range or tuple)."""
    stacked = isinstance(r, (range, tuple))
    rows = tuple(r) if stacked else (r,)
    if not rows:
        raise ValueError("r must be a replicate or a nonempty range or tuple of them")
    return rows, stacked


def _standard_normals(keys: np.ndarray) -> np.ndarray:
    """Map hash keys to N(0,1) variates via splitmix64 + inverse CDF; the
    keys are hashed in place."""
    h = _mix64(keys)
    # 53-bit uniform shifted into (0,1) so ndtri never sees 0 or 1; the top
    # value's 2**53 - 0.5 rounds up to 2**53, so it is clamped back below 1
    h >>= np.uint64(11)
    u = h.astype(np.float64)
    u += 0.5
    u *= 2.0**-53
    np.minimum(u, 1.0 - 2.0**-53, out=u)
    return ndtri(u, out=u)


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

    ``theta_block`` adds one scalar per replicate row and step, the row's
    linear index ``(r, 0, n, 0, ch - 1)`` times GOLDEN, to the keys of
    replicate 0, step 0, channel 1, which the tape builds from its sizes
    on its first draw and keeps.  They are a function of the fields, so they
    enter neither ``==``, ``hash`` nor ``repr``; a tape that only validates
    a layout never builds them.
    """

    seed: int
    replicates: int
    particles: int
    steps: int
    dim: int
    channels: int = 1

    def __post_init__(self):
        _check_seed(self.seed)
        sizes = ("replicates", "particles", "steps", "dim", "channels")
        # the uint64 index would truncate a fractional size, aliasing indices
        for name in sizes:
            _check_count(name, getattr(self, name))
        if self.channels not in (1, 2):
            raise ValueError(f"channels must be 1 or 2, got {self.channels}")
        # the linear index is a uint64 counter: a larger layout would wrap
        # and alias the noise of distinct indices (the product is taken in
        # Python ints, as one of NumPy integers would wrap itself)
        if prod(int(getattr(self, name)) for name in sizes) > 2**64:
            layout = ", ".join(f"{name}={getattr(self, name)}" for name in sizes)
            raise ValueError(f"noise tape layout {layout} has more than 2**64 "
                             "indices")

    def _check(self, name: str, value: int, bound: int, base: int = 0) -> None:
        # the uint64 index would truncate a fractional index to another one
        if not isinstance(value, (int, np.integer)):
            raise IndexError(f"noise tape layout violation: {name}={value} "
                             "is not an integer")
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
        # a one-element index keeps the uint64 arithmetic in arrays, which
        # wrap mod 2**64 without the overflow warning of NumPy scalars
        idx = self._linear_index([r], i, n, k, ch - 1)
        return float(_standard_normals(_keys(np.uint64(self.seed), idx))[0])

    @cached_property
    def _base_keys(self) -> np.ndarray:
        """The ``(particles, dim)`` keys of replicate 0, step 0, channel 1."""
        i, k = np.ogrid[:self.particles, :self.dim]
        return _keys(np.uint64(self.seed), self._linear_index(0, i, 0, k, 0))

    def theta_block(self, r, n, ch: int = 1) -> np.ndarray:
        """All per-particle, per-coordinate variates of one step or a window
        of steps.

        ``r`` is one replicate or a nonempty range or tuple of them, and
        ``n`` one step or a nonempty range of them.  Returns a ``(particles,
        dim)`` array for one replicate and step, whose entry ``[i, k]`` is
        bit-identical to ``theta(r, i, n, k, ch)``; a range or tuple ``r``
        adds an axis of ``len(r)`` rows in front, row ``j`` the block of
        replicate ``r[j]``, and a range ``n`` one of ``len(n)`` steps in
        front of that, row ``j`` the block of step ``n[j]``.  One replicate
        is drawn as row 0 of a one-row stack, and one step as row 0 of a
        one-step window.  Each row's keys are the tape's base keys plus one
        scalar, so a block depends on ``(r, n, ch)`` alone.
        """
        rows, stacked = _replicate_rows(r)
        window = isinstance(n, range)
        steps = n if window else (n,)
        if not steps:
            raise ValueError("n must be a step or a nonempty range of them")
        for value in rows:
            self._check("r", value, self.replicates)
        for value in steps:
            self._check("n", value, self.steps)
        self._check("ch", ch, self.channels, base=1)
        # the index is linear, idx(r, i, n, k, ch - 1) = idx(0, i, 0, k, 0) +
        # idx(r, 0, n, 0, ch - 1), so each (step, replicate) row's keys move
        # by that many GOLDEN steps, mod 2**64 as uint64 arrays wrap
        shifts = self._linear_index(rows, 0, np.array(steps)[:, None], 0, ch - 1) * _GOLDEN
        block = _standard_normals(self._base_keys + shifts[..., None, None])
        if not stacked:
            block = block[:, 0]
        return block if window else block[0]


_DIST_PARAMS = {"gaussian": ("mean", "var"), "uniform": ("a", "b")}


def initial_positions(seed, n: int, dim: int, dist=("gaussian", 0.0, 1.0)) -> np.ndarray:
    """Draw a deterministic i.i.d. initial cloud of shape ``(n, dim)``.

    ``dist`` is ``("gaussian", mean, var)`` or ``("uniform", a, b)``.  ``seed``
    may be an int or a sequence of ints (handy for per-replicate derivation,
    e.g. ``[seed, r]``), each in ``[0, 2**64)``; the same seed always
    reproduces the same cloud.
    """
    _check_count("n", n)
    _check_count("dim", dim)
    kind = dist[0]
    for name, value in zip(_DIST_PARAMS.get(kind, ()), dist[1:]):
        if not np.isfinite(value):
            raise ValueError(f"{kind} {name} must be finite, got {value}")
    for value in seed if np.iterable(seed) else (seed,):
        _check_seed(value)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
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
