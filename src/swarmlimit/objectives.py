"""Benchmark cost functions: Ackley, sphere and Rastrigin.

Each objective is a name, a dimension, a batched evaluator and the exact
minimizer.  The bound and weighted-Lipschitz constants that the paper's
limit theorem assumes are checked by the test suite, which keeps them in
``tests/certified.py``; nothing here reads them.

Bit contract.  The evaluators return the bits of the textbook NumPy forms
(``z = x - x*``, ``np.einsum`` for ``|z|^2``, ``np.mean`` or ``np.sum`` over
the coordinates, then the closed form left to right), which
``tests/certified.py`` keeps as oracles, with fewer temporaries:

* ``z = x - x*`` runs along the particle axis (``_centered``), and a
  per-coordinate term is evaluated once on the whole ``(n, dim)`` batch,
  one ufunc call per operation whatever ``dim`` is.
* Up to ``dim = 2`` (``_FOLD_MAX_DIM``) the term's columns are then added as
  written, ``t[:, 0] + t[:, 1]``.  A sum of at most two terms rounds once,
  so it has the bits of any order a NumPy reduction takes.
* From ``dim = 3`` the coordinate sums are NumPy's own reductions, whose
  order (pairwise from 8 terms, and for ``einsum`` dependent on the layout
  of its operand) a written fold does not follow.

One exception: on a Fortran-ordered batch ``einsum`` adds a row's two squares
in its own operand order, so a row whose two coordinates are both NaN may get
the other NaN's sign.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

_TWO_PI = 2.0 * np.pi
# the largest dimension whose coordinate sums are written out as a column
# fold; a sum of more terms follows NumPy's own reduction order
_FOLD_MAX_DIM = 2


@dataclass(frozen=True, eq=False)
class Objective:
    """Immutable cost function with its exact minimizer.

    ``eval`` maps an ``(n, dim)`` batch to an ``(n,)`` cost array and trusts
    that shape; calling the objective checks it and accepts a single
    ``(dim,)`` point as well.
    """

    name: str
    dim: int
    eval: Callable[[np.ndarray], np.ndarray]
    minimizer: np.ndarray

    def __call__(self, x: np.ndarray) -> np.ndarray | float:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim not in (1, 2) or x.shape[-1] != self.dim:
            raise ValueError(f"{self.name} takes a point of shape ({self.dim},) "
                             f"or a batch of shape (n, {self.dim}), "
                             f"got shape {x.shape}")
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


def _along_particles(ufunc, a: np.ndarray, b: np.ndarray,
                     out: np.ndarray) -> np.ndarray:
    """``ufunc(a, b, out=out)`` of two ``(..., n, d)`` operands, one of
    which broadcasts over the particles or the coordinates.

    The ufunc runs on the transposed ``(..., d, n)`` views in C order, so
    NumPy's inner loop walks the n particles once per coordinate.  On the
    ``(..., n, d)`` operands it walks a C-ordered batch row by row, n inner
    loops of length d, which at ``(1000, 2)`` takes about three times as long
    for the same elementwise bits.  ``dynamics._step`` uses it too.
    """
    ufunc(a.swapaxes(-1, -2), b.swapaxes(-1, -2), out=out.swapaxes(-1, -2),
          order="C")
    return out


def _centered(x: np.ndarray, x_star: np.ndarray) -> np.ndarray:
    """``z = x - x*`` of an ``(n, dim)`` batch, in ``x``'s layout."""
    return _along_particles(np.subtract, x, x_star[None, :],
                            np.empty_like(x, dtype=np.float64))


def _row_sum(z: np.ndarray, term) -> np.ndarray:
    """``np.sum(term(z), axis=-1)`` for an ``(..., dim)`` batch: the term is
    evaluated once on the whole batch, and up to ``_FOLD_MAX_DIM`` its
    columns are added as written."""
    t = term(z)
    if z.shape[-1] > _FOLD_MAX_DIM:
        return np.sum(t, axis=-1)
    if z.shape[-1] == 1:
        return t[..., 0]
    return t[..., 0] + t[..., 1]


def _square(z: np.ndarray) -> np.ndarray:
    return z * z


def _square_norm(z: np.ndarray) -> np.ndarray:
    """``|z|^2`` along the last axis of an ``(..., dim)`` batch, with the bits
    of ``np.einsum("...ij,...ij->...i", z, z)`` (``"ij,ij->i"`` on an ``(n,
    dim)`` batch); ``metrics`` takes its squared norms from here too."""
    if z.shape[-1] > _FOLD_MAX_DIM:
        return np.einsum("...ij,...ij->...i", z, z)
    return _row_sum(z, _square)


def _cos_2pi(z: np.ndarray) -> np.ndarray:
    w = _TWO_PI * z
    return np.cos(w, out=w)


def _rastrigin_term(z: np.ndarray) -> np.ndarray:
    """``z * z - 10 cos(2 pi z) + 10`` in two arrays: ``10 cos`` is ``cos *
    10``, which rounds alike."""
    a = z * z
    w = _cos_2pi(z)
    w *= 10.0
    a -= w
    a += 10.0
    return a


def ackley(dim: int, shift=None) -> Objective:
    """Ackley benchmark, minimum 0 at ``shift``.

    E(x) = -20 exp(-0.2 |x - x*| / sqrt(d))
           - exp(mean_k cos(2 pi (x_k - x*_k))) + e + 20
    """
    x_star = _minimizer(dim, shift)
    scale = -0.2 * (1.0 / np.sqrt(dim))

    def evaluate(x: np.ndarray) -> np.ndarray:
        z = _centered(x, x_star)
        r = _square_norm(z)
        np.sqrt(r, out=r)
        r *= scale
        np.exp(r, out=r)
        r *= -20.0
        c = _row_sum(z, _cos_2pi)
        c /= dim
        np.exp(c, out=c)
        r -= c
        r += np.e
        r += 20.0
        return r

    return Objective(name="ackley", dim=dim, eval=evaluate, minimizer=x_star)


def sphere(dim: int, shift=None) -> Objective:
    """Squared-distance benchmark |x - x*|^2, minimum 0 at ``shift``."""
    x_star = _minimizer(dim, shift)

    def evaluate(x: np.ndarray) -> np.ndarray:
        return _square_norm(_centered(x, x_star))

    return Objective(name="sphere", dim=dim, eval=evaluate, minimizer=x_star)


def rastrigin(dim: int, shift=None) -> Objective:
    """Rastrigin benchmark sum_k [z_k^2 - 10 cos(2 pi z_k) + 10], z = x - x*."""
    x_star = _minimizer(dim, shift)

    def evaluate(x: np.ndarray) -> np.ndarray:
        return _row_sum(_centered(x, x_star), _rastrigin_term)

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
