"""Deterministic, index-addressed Gaussian increment tapes.

Every variate is a pure function of ``(seed, replicate, particle, step,
coordinate, channel)``.  Two solvers stepping through the same tape therefore
consume byte-identical noise at matching indices, no matter in which order or
from how many workers the queries arrive.  This is what makes the pathwise
PSO-vs-CBO gap a meaningful coupling estimate instead of Monte Carlo noise.

The generator is a counter hash (splitmix64 finalizer on the linearized index)
followed by the inverse normal CDF, so there is no stream state to replay.
The hash key of linear index ``idx`` is ``seed + (idx + 1) * GOLDEN mod
2**64``, and the index is affine in the step, so a block's keys are its step-0
keys plus ``n * dim * channels * GOLDEN mod 2**64``.  A tape keeps the step-0
keys of the last replicates it drew on each channel and adds that scalar per
step; no block depends on which blocks were drawn before it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod

import numpy as np
from scipy.special import ndtri

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)
_U64_MASK = 0xFFFFFFFFFFFFFFFF


def _mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, vectorized over uint64 arrays."""
    z = z ^ (z >> np.uint64(30))
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


def _replicate_rows(r) -> tuple[tuple, bool]:
    """The replicates ``r`` names, one or a nonempty range or tuple of them,
    and whether ``r`` stacks them (is a range or tuple)."""
    stacked = isinstance(r, (range, tuple))
    rows = tuple(r) if stacked else (r,)
    if not rows:
        raise ValueError("r must be a replicate or a nonempty range or tuple of them")
    return rows, stacked


def _standard_normals(keys: np.ndarray) -> np.ndarray:
    """Map hash keys to N(0,1) variates via splitmix64 + inverse CDF."""
    h = _mix64(keys)
    # 53-bit uniform shifted into (0,1) so ndtri never sees 0 or 1
    h >>= np.uint64(11)
    u = h.astype(np.float64)
    u += 0.5
    u *= 2.0**-53
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

    ``theta_block`` keeps, per channel, the step-0 keys of the replicates it
    last drew and adds the step's scalar to them.  These cached keys are not
    part of the tape's value: they enter neither ``==``, ``hash`` nor
    ``repr``.
    """

    seed: int
    replicates: int
    particles: int
    steps: int
    dim: int
    channels: int = 1
    _step0_keys: dict = field(default_factory=dict, init=False, repr=False,
                              compare=False)

    def __post_init__(self):
        _check_seed(self.seed)
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

    def theta_block(self, r, n: int, ch: int = 1) -> np.ndarray:
        """All per-particle, per-coordinate variates of one step.

        ``r`` is one replicate or a nonempty range or tuple of them.  Returns a
        ``(particles, dim)`` array for one replicate, whose entry ``[i, k]`` is
        bit-identical to ``theta(r, i, n, k, ch)``, and an ``(len(r),
        particles, dim)`` stack for a range or tuple, whose row ``j`` is the
        block of replicate ``r[j]``.  The step-0 keys of ``(r, ch)`` are built
        on the first draw and kept until another ``r`` is drawn on ``ch``.
        """
        rows, stacked = _replicate_rows(r)
        for value in rows:
            self._check("r", value, self.replicates)
        self._check("n", n, self.steps)
        self._check("ch", ch, self.channels, base=1)
        cached = self._step0_keys.get(ch)
        # keyed on the rows, not on r: a NumPy scalar r would compare with a
        # tuple elementwise
        if cached is None or cached[0] != (rows, stacked):
            rr = np.array(rows, dtype=np.uint64)[:, None, None] if stacked else r
            i = np.arange(self.particles, dtype=np.uint64)[:, None]
            k = np.arange(self.dim, dtype=np.uint64)[None, :]
            idx = self._linear_index(rr, i, 0, k, ch - 1)
            cached = self._step0_keys[ch] = ((rows, stacked),
                                             _keys(np.uint64(self.seed), idx))
        # idx(n) = idx(0) + n * dim * channels, so each key moves by that
        # many GOLDEN steps, mod 2**64 as in the key itself (in Python ints,
        # which a NumPy integer step would overflow)
        shift = int(n) * self.dim * self.channels * int(_GOLDEN) & _U64_MASK
        return _standard_normals(cached[1] + np.uint64(shift))


_DIST_PARAMS = {"gaussian": ("mean", "var"), "uniform": ("a", "b")}


def initial_positions(seed, n: int, dim: int, dist=("gaussian", 0.0, 1.0)) -> np.ndarray:
    """Draw a deterministic i.i.d. initial cloud of shape ``(n, dim)``.

    ``dist`` is ``("gaussian", mean, var)`` or ``("uniform", a, b)``.  ``seed``
    may be an int or a sequence of ints (handy for per-replicate derivation,
    e.g. ``[seed, r]``), each in ``[0, 2**64)``; the same seed always
    reproduces the same cloud.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if dim < 1:
        raise ValueError("dim must be >= 1")
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
