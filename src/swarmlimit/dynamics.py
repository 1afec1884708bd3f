"""Time stepping for the coupled swarm dynamics.

Four schemes over an ``(..., n_particles, dim)`` cloud, all advanced by one
kernel, ``_step``:

* ``pso``      second-order dynamics, semi-implicit in the friction term:
                   V' = [m V + lam dt (Xa - X) + sigma sqrt(dt) (Xa - X) th]
                        / (m + gamma dt)
                   X' = X + dt V'
* ``cbo``      first-order Euler-Maruyama:
                   X' = X + lam dt (Xa - X) + sigma sqrt(dt) (Xa - X) th
* ``pso_mem``  second-order with per-particle local bests Y; drift/noise pull
               toward Y and toward the consensus Ya of the local bests, and Y
               relaxes toward the new position weighted by a tanh of the cost
               gap.
* ``cbo_mem``  the corresponding first-order system.

With ``gamma = 1 - m`` the semi-implicit step is asymptotic-preserving: at
``m -> 0`` the denominator tends to ``dt`` and ``dt V'`` to the first-order
increment, so ``pso`` becomes ``cbo`` (and ``pso_mem`` becomes ``cbo_mem``)
at the discrete level.  ``_step`` is written in that form: the first-order
update is the second-order one with the denominator 1 and the positions in
place of ``(m / denom) V``.  Which arrays a state carries (velocities, local
bests) selects the branch; a second-order state also carries its inertia.
A state carries its arrays and inertia but no time: the time of item ``n``
of a path is ``p.times[n]``, from the grid alone.  ``_step`` advances the
state it is given, its arrays in place, and allocates its temporaries once
per call.  It checks nothing: ``lockstep`` is the one way to step, and
builds every state it steps.

A state's leading axes stack swarms: ``(R, N, d)`` is one swarm per tape
replicate, and ``(K, R, N, d)`` stacks K rungs of inertia over them, rung
first, so that an ``(R, N, d)`` tape block or first-order reference
broadcasts against the stack as it is.  A second-order stack carries one
inertia per rung as a ``(K, 1, ..., 1)`` column.  Each slice's arithmetic is
elementwise that of a solo ``(N, d)`` run and every reduction stays within
one slice, so its bits do not depend on what it is stacked with.

``Xa`` is the softmax consensus of the current positions (of the local bests
for the memory variants), computed once per step from the pre-step cloud and
shared by all particles of a slice.  The noise coupling ``(Xa - X) th`` is
componentwise (anisotropic/diagonal).  With the same seed, replicate and
grid, ``pso`` and ``cbo`` consume identical noise at matching ``(i, n, k)``,
which is what makes their pathwise gap measure the small-inertia coupling
distance.

``lockstep`` is the one stepping loop, and it builds both halves of the
coupling itself.  From one initial cloud ``x0`` it starts one state per
scheme at rest, each on its own copy, and from the seed, the replicates,
``Params`` and the channels the schemes draw it builds the one tape they
run on, so the initial data and the layout a run draws from are decided in
one place.  It advances the states together, drawing each tape block once
(one ``(R, N, d)`` block for all R replicates, a window of consecutive steps'
blocks per draw) and handing the same array to every slice of every state,
and yields the coupled path one time point at a time; a state's arrays are
the same objects on every item.  A caller reads the path in a ``for`` loop;
``run`` is that loop over a single unstacked scheme, recording every step.

The module owns the one window rule, ``_window_steps``: a window holds the
most consecutive steps whose ``(R, N, d)`` rows fit ``_WINDOW_BYTES``
(128 KiB), at least 1 and at most ``n_steps + 1``.  ``lockstep``'s tape
draws take their window from it, and so does the W2 / KL window of a
coupled pass (``experiments``).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from math import isfinite, sqrt
from typing import NamedTuple

import numpy as np

from .consensus import consensus_point, costs_of
from .metrics import empirical_moments
from .noise import NoiseTape, _check_count, _replicate_rows
from .objectives import _along_particles

SCHEMES = ("pso", "cbo", "pso_mem", "cbo_mem")


class NonFiniteStateError(RuntimeError):
    """A step produced NaN or Inf: carries the step, the array (``x``, ``v``
    or ``y``) and the index of its first non-finite entry, ``(particle,
    coordinate)`` led by the state's stacking axes: ``(rung, replicate,
    particle, coordinate)`` for a ``(K, R, N, d)`` stack."""

    def __init__(self, step: int, array: str, index: tuple[int, ...], value):
        where = f"{array}[{', '.join(map(str, index))}]"
        super().__init__(f"non-finite state after step {step}: {where} is {value}")
        self.step, self.array, self.index = step, array, index


def _check_inertia(m: float) -> None:
    if not isfinite(m):
        raise ValueError(f"m must be finite, got {m}")
    if not 0.0 < m <= 1.0:
        raise ValueError(f"inertia m must be in (0, 1], got {m}")


@dataclass(frozen=True)
class MemoryParams:
    lam1: float
    lam2: float
    sigma1: float
    sigma2: float
    nu: float
    beta: float


@dataclass(frozen=True, kw_only=True)
class Params:
    """Model and scheme constants shared by all schemes.

    The inertia ``m`` belongs to the second-order schemes: ``run`` and
    ``optimize`` hand it to ``lockstep``, which rejects ``pso`` or
    ``pso_mem`` without one, and ``compare_distributions`` couples it as its
    one rung.  The first-order schemes, ``zero_inertia_study`` and
    ``compare_ladder`` read none, so ``None``, the default, is fine for
    them; a given ``m`` is checked all the same, finite and in (0, 1].  The
    friction ``gamma`` is not a field: it is pinned to ``1 - m`` exactly.
    The grid must fit the noise tape: the widest tape a run on it draws (one
    replicate, one channel or two with memory params) is built here, so a
    layout past the tape's 64-bit index fails with the tape's message.
    """

    m: float | None = None
    lam: float
    sigma: float
    alpha: float
    dt: float
    t_end: float
    n_particles: int
    dim: int
    memory: MemoryParams | None = None

    def __post_init__(self):
        scalars = [(name, getattr(self, name)) for name in
                   ("m", "lam", "sigma", "alpha", "dt", "t_end")
                   if name != "m" or self.m is not None]
        if self.memory is not None:
            scalars += [(f"memory.{f.name}", getattr(self.memory, f.name))
                        for f in fields(self.memory)]
        for name, value in scalars:
            if not isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.m is not None:
            _check_inertia(self.m)
        if self.dt <= 0.0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if not isfinite(self.t_end / self.dt):
            raise ValueError(f"t_end / dt must be finite, got "
                             f"{self.t_end} / {self.dt}")
        if self.t_end < self.dt:
            raise ValueError(f"t_end must be >= dt, got {self.t_end}")
        _check_count("n_particles", self.n_particles)
        _check_count("dim", self.dim)
        if self.alpha < 0.0:
            raise ValueError("alpha must be >= 0")
        if self.lam < 0.0 or self.sigma < 0.0:
            raise ValueError("lam and sigma must be >= 0")
        if self.memory is not None:
            # beta, the tanh weight's sharpness, is left unsigned
            for name in ("lam1", "lam2", "sigma1", "sigma2", "nu"):
                value = getattr(self.memory, name)
                if value < 0.0:
                    raise ValueError(f"memory.{name} must be >= 0, got {value}")
        NoiseTape(0, 1, self.n_particles, self.n_steps, self.dim,
                  1 if self.memory is None else 2)

    @property
    def n_steps(self) -> int:
        # floor of t_end / dt, guarded so 0.3 / 0.1 = 2.99...96 still gives 3
        return int(self.t_end / self.dt + 1e-9)

    @property
    def times(self) -> np.ndarray:
        """The ``n_steps + 1`` time points of a path: 0, then the running
        sum of ``dt``, added in step order; item ``n`` of a path is at
        ``times[n]``."""
        return np.cumsum(np.append(0.0, np.full(self.n_steps, self.dt)))


@dataclass
class SwarmState:
    """``(..., N, d)`` positions (and velocities / local bests where the
    scheme has them); ``m`` is a second-order state's inertia, a float or the
    ``(K, 1, ..., 1)`` column of a stack of K rungs.  A state has no time:
    after ``n`` steps it is at ``Params.times[n]``."""

    x: np.ndarray
    v: np.ndarray | None = None
    y: np.ndarray | None = None
    m: float | np.ndarray | None = None

    def check_finite(self, step: int) -> None:
        """Raise ``NonFiniteStateError`` at the first non-finite entry of
        ``x``, ``v`` or ``y``, in this order, naming ``step``."""
        for name in ("x", "v", "y"):
            arr = getattr(self, name)
            if arr is None:
                continue
            mask = np.isfinite(arr)
            if not mask.all():
                index = tuple(int(i) for i in np.argwhere(~mask)[0])
                raise NonFiniteStateError(step, name, index, arr[index])

    @property
    def mean_speed(self):
        """Per-slice particle average of the velocity norm; 0 without velocities."""
        if self.v is None:
            return 0.0
        return np.linalg.norm(self.v, axis=-1).mean(axis=-1)


class Consensus(NamedTuple):
    """A state's consensus point and the costs of the cloud it weights.

    The cloud is the positions, or the local bests for the memory schemes.
    """

    point: np.ndarray
    costs: np.ndarray


def _consensus_of(state: SwarmState, p: Params, obj) -> Consensus:
    """The consensus the next step of ``state`` uses, one point per slice."""
    cloud = state.x if state.y is None else state.y
    costs = costs_of(cloud, obj)
    return Consensus(consensus_point(cloud, costs, p.alpha), costs)


def _step(state: SwarmState, p: Params, obj, theta: tuple[np.ndarray, ...],
          cons: Consensus) -> None:
    """Advance ``state`` by one step of the scheme its arrays select, in
    place: the kernel of ``lockstep``, which checks its inputs.

    ``theta`` is the step's tape block per channel, from channel 1: ``(N, d)``,
    or ``(R, N, d)`` for a state with a replicate axis, shared by every rung.
    Velocities select the semi-implicit second-order update with the state's
    inertia and local bests the memory variant, with ``p.memory``.  ``cons``
    is the pre-step ``_consensus_of(state, p, obj)``.  The update is ``acc +
    sum_j (c_j / denom) vec_j [theta_j]``, summed left to right: first order
    accumulates into ``X`` with ``denom = 1``, so ``X' = acc``; second order
    starts ``acc`` from ``(m / denom) V`` in ``V``, so ``V' = acc`` and ``X' =
    X + dt V'``.  The state's ``x``, ``v`` and ``y`` are written in place, as
    no operation reads an entry of them after writing it, which holds only
    for arrays that share no memory.

    The two broadcasts, of the consensus point over the particles
    (``Xa - X``) and of the local bests' tanh weight over the coordinates,
    run along the particle axis (``_along_particles``): d inner loops of
    length N, not N of length d, with the same elementwise bits.
    """
    sqrt_dt = sqrt(p.dt)
    to_global = _along_particles(np.subtract, cons.point[..., None, :], state.x,
                                 np.empty_like(state.x))
    if state.y is None:
        terms = [(p.lam * p.dt, to_global, None),
                 (p.sigma * sqrt_dt, to_global, theta[0])]
    else:
        mem = p.memory
        to_local = state.y - state.x
        terms = [(mem.lam1 * p.dt, to_local, None),
                 (mem.lam2 * p.dt, to_global, None),
                 (mem.sigma1 * sqrt_dt, to_local, theta[0]),
                 (mem.sigma2 * sqrt_dt, to_global, theta[1])]
    if state.v is None:
        denom, acc = 1.0, state.x
    else:
        denom = state.m + (1.0 - state.m) * p.dt
        acc = np.multiply(state.m / denom, state.v, out=state.v)
    term = np.empty_like(state.x)
    for coef, vec, noise in terms:
        np.multiply(coef / denom, vec, out=term)
        if noise is not None:
            np.multiply(term, noise, out=term)
        np.add(acc, term, out=acc)
    if state.v is not None:
        np.add(state.x, np.multiply(p.dt, acc, out=term), out=state.x)
    if state.y is not None:
        # local bests relax toward the new positions, weighted by the cost gap
        gap = costs_of(state.x, obj) - cons.costs
        pull = np.multiply(mem.nu * p.dt,
                           np.subtract(state.x, state.y, out=term), out=term)
        _along_particles(np.multiply, pull, np.tanh(mem.beta * gap)[..., None], pull)
        np.add(state.y, pull, out=state.y)


# ``lockstep`` looks the step up here once per pass, so a tracer can wrap it
# from outside the package
_STEPPERS = {"step": _step}

# the most bytes of one ``(R, N, d)`` row per step that a window of
# consecutive steps holds: ``lockstep``'s tape draws and a coupled pass's
# W2 / KL window pay a call's fixed cost once for all the window's steps,
# while larger windows hold more memory for no measured gain (512 KiB timed
# as 128 KiB on the benchmark's optimize-2d call, and 2 MiB slower)
_WINDOW_BYTES = 128 * 1024


def _window_steps(p: Params, R: int) -> int:
    """W, the most steps whose ``(R, N, d)`` rows fit ``_WINDOW_BYTES``: at
    least 1, and at most ``n_steps + 1``, the time points of a path."""
    return max(1, min(p.n_steps + 1,
                      _WINDOW_BYTES // (8 * R * p.n_particles * p.dim)))


@dataclass
class RunRecord:
    """Per-step diagnostics and the final state of one run.

    Row ``n`` of every array is time ``times[n]``, the grid's
    ``Params.times``: the initial cloud at ``n = 0``, then one row per step.
    ``consensus`` holds the point the next step uses.  ``moments`` maps
    ``"x"``, and ``"v"`` / ``"y"`` where the scheme carries velocities /
    local bests, to the (mean |.|^2, mean |.|^4) of that cloud, in this
    order.
    """

    times: np.ndarray                      # (n_steps + 1,)
    consensus: np.ndarray                  # (n_steps + 1, dim)
    moments: dict[str, np.ndarray]         # name -> (n_steps + 1, 2)
    final: SwarmState


def _initial_state(scheme: str, x0: np.ndarray, m=None) -> SwarmState:
    """The scheme's state at rest, on its own float64 copy of ``x0``: V0 = 0
    and Y0 = X0.

    ``x0`` is one ``(N, d)`` cloud or an ``(R, N, d)`` stack of one per
    replicate.  A second-order scheme needs its inertia ``m``, finite and in
    (0, 1]: a float gives one swarm, a nonempty 1-d sequence of K inertias a
    rung-major ``(K, *x0.shape)`` stack with ``x0`` in every rung.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r} (expected one of {SCHEMES})")
    x0 = np.array(x0, dtype=np.float64)
    second_order = scheme.startswith("pso")
    if not second_order:
        m = None
    elif m is None or None in np.ravel(m):
        # an unset rung, such as compare_distributions' (p.m,) for a Params
        # without m, is a missing inertia too
        raise ValueError(f"scheme {scheme!r} needs its inertia m")
    else:
        if np.ndim(m) > 1 or np.shape(m) == (0,):
            raise ValueError("inertia m must be a float or a nonempty 1-d "
                             f"sequence, got shape {np.shape(m)}")
        for value in np.ravel(m):
            _check_inertia(float(value))
        if np.ndim(m) == 1:
            m = np.asarray(m, dtype=np.float64).reshape((-1,) + (1,) * x0.ndim)
            x0 = np.repeat(x0[None], len(m), axis=0)
    return SwarmState(x=x0, v=np.zeros_like(x0) if second_order else None,
                      y=x0.copy() if scheme.endswith("_mem") else None, m=m)


def lockstep(schemes, x0: np.ndarray, p: Params, obj, seed: int, r, m=None):
    """Start every scheme of ``schemes`` at rest from ``x0`` and advance them
    on replicate ``r`` of the seed's tape together, yielding the coupled path.

    ``r`` is one replicate, for an ``(N, d)`` cloud ``x0``, or a nonempty
    sequence of R replicates (a ``range`` or a tuple), for an ``(R, N, d)``
    ``x0``: row ``j`` runs on replicate ``r[j]``.  It is passed to
    ``NoiseTape.theta_block`` as given.  Each scheme's state starts from its
    own float64 copy of ``x0``, with V0 = 0 and Y0 = X0; a second-order one
    takes the inertia ``m``, a float, or a nonempty 1-d sequence of K
    inertias for a rung-major ``(K, *x0.shape)`` stack.  The tape has the
    grid of ``p``, ``max(r) + 1`` replicates and the channels the schemes
    draw: two if any is a memory scheme, else one.  Each channel's blocks
    are drawn once, a window of W consecutive steps per ``theta_block``
    call, W from the one window rule, ``_window_steps``: the most steps
    whose ``(R, N, d)`` blocks fit ``_WINDOW_BYTES``, at least 1 and at most
    ``n_steps + 1``, and a window's draw stops at the last step.  Step ``n``
    takes row ``n mod W`` of its window and hands it to every state.  A
    window is drawn when its first step runs, after the last one is freed,
    and each state's consensus is computed once per step.
    Yields ``(n, states, points)`` for ``n = 0, ..., n_steps``: the states,
    one per scheme in order, first at rest, then after step ``n - 1``, each
    time with the consensus points the next step uses; item ``n`` is at
    time ``p.times[n]``.  Non-finite states abort with the offending step
    index.

    ``lockstep`` advances the states' arrays in place with ``_step``, so a
    yielded state changes at the next step, and a caller copies whatever it
    wants to keep.  Every check runs once, before any draw: a ``schemes``
    that is not a nonempty tuple of names is a ``ValueError``; so are a
    replicate that is not an integer >= 0, which it names, an ``x0`` that is
    not the cloud of ``p`` and ``r``, an unknown scheme, a second-order
    scheme without an inertia in (0, 1] of one of those shapes, and a memory
    scheme under ``p.memory = None``; a non-finite ``x0`` is a
    ``NonFiniteStateError`` at step -1.
    """
    if not isinstance(schemes, tuple) or not schemes:
        raise ValueError("schemes must be a nonempty tuple of scheme names, "
                         f"got {schemes!r}")
    rows, stacked = _replicate_rows(r)
    for value in rows:
        # NoiseTape's index would truncate a fractional replicate to another
        if not isinstance(value, (int, np.integer)) or value < 0:
            raise ValueError(f"replicates must be integers >= 0, got r={value}")
    cloud = ((len(rows),) if stacked else ()) + (p.n_particles, p.dim)
    if np.shape(x0) != cloud:
        raise ValueError(f"x0 shape {np.shape(x0)} does not match params "
                         f"and replicates {cloud}")
    states = [_initial_state(scheme, x0, m) for scheme in schemes]
    # each state holds its own copy, so a caller that passes no other
    # reference frees x0 here
    del x0
    channels = 2 if any(s.y is not None for s in states) else 1
    if channels == 2 and p.memory is None:
        raise ValueError("a memory scheme needs memory params")
    for s in states:
        s.check_finite(-1)
    # the replicate count only bounds r: the row-major index never multiplies
    # it into a variate, so replicate r has the same blocks on any longer tape
    tape = NoiseTape(seed, max(rows) + 1, p.n_particles, p.n_steps, p.dim,
                     channels)
    W = _window_steps(p, len(rows))
    stepper = _STEPPERS["step"]
    cons = [_consensus_of(s, p, obj) for s in states]
    yield 0, states, [c.point for c in cons]
    for n in range(p.n_steps):
        j = n % W
        if j == 0:
            # free the last window before drawing the next
            theta = window = None
            window = [tape.theta_block(r, range(n, min(n + W, p.n_steps)), ch)
                      for ch in range(1, channels + 1)]
        theta = tuple(w[j] for w in window)
        for s, c in zip(states, cons):
            stepper(s, p, obj, theta, c)
            s.check_finite(n)
        cons = [_consensus_of(s, p, obj) for s in states]
        yield n + 1, states, [c.point for c in cons]


def run(scheme: str, p: Params, obj, seed: int, x0: np.ndarray) -> RunRecord:
    """Iterate a scheme from rest at ``x0`` for floor(t_end / dt) steps on
    replicate 0 of the seed's tape, recording diagnostics.

    The consensus point and the moments of every cloud the state carries
    (positions, then velocities and local bests where the scheme has them)
    are recorded at every step, including the initial cloud; the recorded
    consensus is the one the next step uses.  Non-finite states abort with
    the offending step index.
    """
    times = p.times
    cons = np.empty((len(times), p.dim))
    for n, (s,), (point,) in lockstep((scheme,), x0, p, obj, seed, 0, p.m):
        if n == 0:
            moments = {name: np.empty((len(times), 2)) for name in ("x", "v", "y")
                       if getattr(s, name) is not None}
        cons[n] = point
        for name, table in moments.items():
            table[n] = empirical_moments(getattr(s, name))
    return RunRecord(times=times, consensus=cons, moments=moments, final=s)
