"""Benchmark cost functions: Ackley, sphere and Rastrigin.

Each objective is a name, a dimension, a batched evaluator and the exact
minimizer.  The bound and weighted-Lipschitz constants that the paper's
limit theorem assumes are checked by the test suite, which keeps them in
``tests/certified.py``; nothing here reads them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True, eq=False)
class Objective:
    """Immutable cost function with its exact minimizer.

    ``eval`` maps an ``(n, dim)`` batch to an ``(n,)`` cost array; calling the
    objective accepts a single ``(dim,)`` point as well.
    """

    name: str
    dim: int
    eval: Callable[[np.ndarray], np.ndarray]
    minimizer: np.ndarray

    def __call__(self, x: np.ndarray) -> np.ndarray | float:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            return float(self.eval(x[None, :])[0])
        return self.eval(x)


def _minimizer(dim: int, shift) -> np.ndarray:
    """The validated minimizer ``shift`` (the origin by default)."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if shift is None:
        return np.zeros(dim)
    shift = np.atleast_1d(np.asarray(shift, dtype=np.float64))
    if shift.shape != (dim,):
        raise ValueError(f"shift must have shape ({dim},), got {shift.shape}")
    if not np.all(np.isfinite(shift)):
        raise ValueError(f"shift must be finite, got {tuple(shift.tolist())}")
    return shift


def ackley(dim: int, shift=None) -> Objective:
    """Ackley benchmark, minimum 0 at ``shift``.

    E(x) = -20 exp(-0.2 |x - x*| / sqrt(d))
           - exp(mean_k cos(2 pi (x_k - x*_k))) + e + 20
    """
    x_star = _minimizer(dim, shift)
    inv_sqrt_d = 1.0 / np.sqrt(dim)

    def evaluate(x: np.ndarray) -> np.ndarray:
        z = x - x_star
        r = np.sqrt(np.einsum("ij,ij->i", z, z))
        c = np.mean(np.cos(2.0 * np.pi * z), axis=1)
        return -20.0 * np.exp(-0.2 * inv_sqrt_d * r) - np.exp(c) + np.e + 20.0

    return Objective(name="ackley", dim=dim, eval=evaluate, minimizer=x_star)


def sphere(dim: int, shift=None) -> Objective:
    """Squared-distance benchmark |x - x*|^2, minimum 0 at ``shift``."""
    x_star = _minimizer(dim, shift)

    def evaluate(x: np.ndarray) -> np.ndarray:
        z = x - x_star
        return np.einsum("ij,ij->i", z, z)

    return Objective(name="sphere", dim=dim, eval=evaluate, minimizer=x_star)


def rastrigin(dim: int, shift=None) -> Objective:
    """Rastrigin benchmark sum_k [z_k^2 - 10 cos(2 pi z_k) + 10], z = x - x*."""
    x_star = _minimizer(dim, shift)

    def evaluate(x: np.ndarray) -> np.ndarray:
        z = x - x_star
        return np.sum(z * z - 10.0 * np.cos(2.0 * np.pi * z) + 10.0, axis=1)

    return Objective(name="rastrigin", dim=dim, eval=evaluate, minimizer=x_star)


_REGISTRY = {"ackley": ackley, "sphere": sphere, "rastrigin": rastrigin}


def make_objective(name: str, dim: int, shift=None) -> Objective:
    """Build a benchmark objective by name (CLI/config entry point)."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(f"unknown objective {name!r} (known: {known})") from None
    return factory(dim, shift)
