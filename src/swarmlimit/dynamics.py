"""Time stepping for the coupled swarm dynamics.

Four schemes over an ``(..., n_particles, dim)`` cloud, all advanced by one
``step``:

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
at the discrete level.  ``step`` is written in that form: the first-order
update is the second-order one with the denominator 1 and the positions in
place of ``(m / denom) V``.  Which arrays a state carries (velocities, local
bests) selects the branch; a second-order state also carries its inertia.

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

``lockstep`` is the one stepping loop: it advances states that share a seed,
the tape replicates they run on and ``Params`` together, drawing each tape
block once per step (one ``(R, N, d)`` block for all R replicates) and
handing the same array to every slice of every state, and yields the coupled
path one time point at a time.  It builds the tape itself, from the seed,
the replicates, ``Params`` and the channels the states draw, so the layout a
run draws from is decided in one place.  It advances the states passed in,
their arrays in place and their time with them, with scratch arrays (and
the finiteness mask) shared by all states, so no state-sized array is
allocated per step.  A caller reads the path in a ``for`` loop; ``run`` is
that loop over a single unstacked state, recording every step.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from math import isfinite, sqrt
from typing import NamedTuple

import numpy as np

from .consensus import consensus_point, costs_of
from .metrics import empirical_moments
from .noise import NoiseTape, _replicate_rows
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


def _check_count(name: str, value) -> None:
    """Reject a count that is not an integer >= 1, naming its field."""
    if not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1")


@dataclass(frozen=True)
class MemoryParams:
    lam1: float
    lam2: float
    sigma1: float
    sigma2: float
    nu: float
    beta: float


@dataclass(frozen=True)
class Params:
    """Model and scheme constants shared by all schemes.

    The friction ``gamma`` is not a field: it is pinned to ``1 - m`` exactly.
    The grid must fit the noise tape: the widest tape a run on it draws (one
    replicate, one channel or two with memory params) is built here, so a
    layout past the tape's 64-bit index fails with the tape's message.
    """

    m: float
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
                   ("m", "lam", "sigma", "alpha", "dt", "t_end")]
        if self.memory is not None:
            scalars += [(f"memory.{f.name}", getattr(self.memory, f.name))
                        for f in fields(self.memory)]
        for name, value in scalars:
            if not isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
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
        NoiseTape(0, 1, self.n_particles, self.n_steps, self.dim,
                  1 if self.memory is None else 2)

    @property
    def n_steps(self) -> int:
        # floor of t_end / dt, guarded so 0.3 / 0.1 = 2.99...96 still gives 3
        return int(self.t_end / self.dt + 1e-9)


@dataclass
class SwarmState:
    """``(..., N, d)`` positions (and velocities / local bests where the
    scheme has them); ``m`` is a second-order state's inertia, a float or the
    ``(K, 1, ..., 1)`` column of a stack of K rungs."""

    t: float
    x: np.ndarray
    v: np.ndarray | None = None
    y: np.ndarray | None = None
    m: float | np.ndarray | None = None

    def check_finite(self, step: int) -> None:
        _check_finite(self, step, None)

    @property
    def mean_speed(self):
        """Per-slice particle average of the velocity norm; 0 without velocities."""
        if self.v is None:
            return 0.0
        return np.linalg.norm(self.v, axis=-1).mean(axis=-1)


def _check_finite(state: SwarmState, step: int, finite) -> None:
    """Raise ``NonFiniteStateError`` at the first non-finite entry of the
    state's ``x``, ``v`` or ``y``.  ``finite`` is a boolean array of their
    shape that takes each array's mask, or ``None`` to allocate the masks."""
    for name in ("x", "v", "y"):
        arr = getattr(state, name)
        if arr is None:
            continue
        mask = np.isfinite(arr, out=finite)
        if not mask.all():
            index = tuple(int(i) for i in np.argwhere(~mask)[0])
            raise NonFiniteStateError(step, name, index, arr[index])


class Consensus(NamedTuple):
    """A state's consensus point and the costs of the cloud it weights.

    The cloud is the positions, or the local bests for the memory schemes.
    """

    point: np.ndarray
    costs: np.ndarray


def consensus_of(state: SwarmState, p: Params, obj) -> Consensus:
    """The consensus the next step of ``state`` uses, one point per slice."""
    cloud = state.x if state.y is None else state.y
    costs = costs_of(cloud, obj)
    return Consensus(consensus_point(cloud, costs, p.alpha), costs)


class _Buffers(NamedTuple):
    """The arrays a step writes into: the new state's ``x``, ``v`` and ``y``,
    which may be the state's own, and scratch for the vectors to the global
    and local consensus and for one update term; ``None`` allocates a fresh
    array."""

    x: np.ndarray | None = None
    v: np.ndarray | None = None
    y: np.ndarray | None = None
    to_global: np.ndarray | None = None
    to_local: np.ndarray | None = None
    term: np.ndarray | None = None


def step(state: SwarmState, p: Params, obj, theta: tuple[np.ndarray, ...],
         cons: Consensus, out: _Buffers = _Buffers()) -> SwarmState:
    """One step of the scheme the state's arrays select.

    ``theta`` is the step's tape block per channel, from channel 1: ``(N, d)``,
    or ``(R, N, d)`` for a state with a replicate axis, shared by every rung.
    Velocities select the semi-implicit second-order update with the state's
    inertia and local bests the memory variant.  ``cons`` is the pre-step
    ``consensus_of(state, p, obj)``.  The
    update is ``acc + sum_j (c_j / denom) vec_j [theta_j]``, summed left to
    right: first order starts ``acc`` from ``X`` with ``denom = 1`` and
    returns ``X' = acc``; second order starts it from ``(m / denom) V`` and
    returns ``V' = acc``, ``X' = X + dt V'``.  ``out`` holds the arrays
    ``lockstep`` has the step write, of the new state's shape: the state's
    own ``x``, ``v`` and ``y``, which the step then advances in place, as no
    operation reads an entry of them after writing it.  By default every
    operation allocates its result, so a state may also broadcast up against
    a larger tape block.

    The two broadcasts, of the consensus point over the particles
    (``Xa - X``) and of the local bests' tanh weight over the coordinates,
    run along the particle axis (``_along_particles``): d inner loops of
    length N, not N of length d, with the same elementwise bits.
    """
    sqrt_dt = sqrt(p.dt)
    to_global = _along_particles(
        np.subtract, cons.point[..., None, :], state.x,
        np.empty_like(state.x) if out.to_global is None else out.to_global)
    if state.y is None:
        terms = [(p.lam * p.dt, to_global, None),
                 (p.sigma * sqrt_dt, to_global, theta[0])]
    else:
        mem = p.memory
        if mem is None:
            raise ValueError("a state with local bests needs memory params")
        to_local = np.subtract(state.y, state.x, out=out.to_local)
        terms = [(mem.lam1 * p.dt, to_local, None),
                 (mem.lam2 * p.dt, to_global, None),
                 (mem.sigma1 * sqrt_dt, to_local, theta[0]),
                 (mem.sigma2 * sqrt_dt, to_global, theta[1])]
    if state.v is None:
        denom, acc, acc_out = 1.0, state.x, out.x
    else:
        denom = state.m + (1.0 - state.m) * p.dt
        acc, acc_out = np.multiply(state.m / denom, state.v, out=out.v), out.v
    for coef, vec, noise in terms:
        term = np.multiply(coef / denom, vec, out=out.term)
        if noise is not None:
            term = np.multiply(term, noise, out=out.term)
        acc = np.add(acc, term, out=acc_out)
    if state.v is None:
        x_new, v_new = acc, None
    else:
        term = np.multiply(p.dt, acc, out=out.term)
        x_new, v_new = np.add(state.x, term, out=out.x), acc
    y_new = None
    if state.y is not None:
        # local bests relax toward the new positions, weighted by the cost gap
        gap = costs_of(x_new, obj) - cons.costs
        pull = np.multiply(mem.nu * p.dt,
                           np.subtract(x_new, state.y, out=out.term), out=out.term)
        pull = _along_particles(np.multiply, pull,
                                np.tanh(mem.beta * gap)[..., None], pull)
        y_new = np.add(state.y, pull, out=out.y)
    return SwarmState(t=state.t + p.dt, x=x_new, v=v_new, y=y_new, m=state.m)


# ``lockstep`` looks the step up here once per pass, so a tracer can wrap it
# from outside the package
_STEPPERS = {"step": step}


@dataclass
class RunRecord:
    """Per-step diagnostics and the final state of one run.

    Row ``n`` of every array is time ``times[n]``: the initial cloud at
    ``n = 0``, then one row per step.  ``consensus`` holds the point the next
    step uses.  ``moments`` maps ``"x"``, and ``"v"`` / ``"y"`` where the
    scheme carries velocities / local bests, to the (mean |.|^2, mean |.|^4)
    of that cloud, in this order.
    """

    times: np.ndarray                      # (n_steps + 1,)
    consensus: np.ndarray                  # (n_steps + 1, dim)
    moments: dict[str, np.ndarray]         # name -> (n_steps + 1, 2)
    final: SwarmState


def initial_state(scheme: str, x0: np.ndarray, m=None) -> SwarmState:
    """The scheme's state at rest: positions ``x0``, V0 = 0 and Y0 = X0.

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
    elif m is None:
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
    return SwarmState(t=0.0, x=x0, v=np.zeros_like(x0) if second_order else None,
                      y=x0.copy() if scheme.endswith("_mem") else None, m=m)


def lockstep(states, p: Params, obj, seed: int, r):
    """Advance ``states`` on replicate ``r`` of the seed's tape together,
    yielding the coupled path.

    ``r`` is one replicate, for states of ``(N, d)`` clouds, or a nonempty
    sequence of R replicates (a ``range`` or a tuple), for states whose
    clouds are ``(R, N, d)``: row ``j`` runs on replicate ``r[j]``.  It is
    passed to ``NoiseTape.theta_block`` as given.  The states share ``p``,
    each second-order one with its own inertia.  The tape has the grid of
    ``p``, ``max(r) + 1`` replicates and the channels the states draw: two if
    any state has local bests, else one.  Per step, the tape blocks are
    drawn once, one ``(R, N, d)`` block per channel for all replicates, and
    handed to every state, and each state's consensus is computed once.
    Yields ``(n, states, points)`` for ``n = 0, ..., n_steps``: the states
    passed in, first as given, then after step ``n - 1``, each time with the
    consensus points the next step uses.  Non-finite states abort with the
    offending step index.

    ``lockstep`` advances the states passed in: their arrays in place and
    their time ``t`` by ``dt`` a step, so a state's time always matches its
    arrays.  A yielded state changes at the next step, and a caller copies
    whatever it wants to keep.  Before any draw, a replicate that is not an
    integer >= 0 is a ``ValueError`` naming it, and so is a state it cannot
    step in place, naming the state and the array: one that is not a float64
    array, is read-only, or may share memory with another array of the
    states.
    """
    rows, stacked = _replicate_rows(r)
    for value in rows:
        # NoiseTape's index would truncate a fractional replicate to another
        if not isinstance(value, (int, np.integer)) or value < 0:
            raise ValueError(f"replicates must be integers >= 0, got r={value}")
    channels = 2 if any(s.y is not None for s in states) else 1
    # the replicate count only bounds r: the row-major index never multiplies
    # it into a variate, so replicate r has the same blocks on any longer tape
    tape = NoiseTape(seed, max(rows) + 1, p.n_particles, p.n_steps, p.dim,
                     channels)
    cloud = ((len(rows),) if stacked else ()) + (p.n_particles, p.dim)
    for s in states:
        s.check_finite(-1)
        if s.x.shape[-len(cloud):] != cloud:
            raise ValueError(f"x0 shape {s.x.shape} does not match params "
                             f"and replicates {cloud}")
    arrays = [(f"state {j} {k}", a) for j, s in enumerate(states)
              for k in ("x", "v", "y") if (a := getattr(s, k)) is not None]
    for i, (name, a) in enumerate(arrays):
        if a.dtype != np.float64 or not a.flags.writeable:
            raise ValueError(f"cannot step {name} in place: not a writeable float64 array")
        for other, b in arrays[:i]:
            if np.may_share_memory(a, b):
                raise ValueError(f"cannot step {name} in place: may share memory with {other}")
    stepper = _STEPPERS["step"]
    size = max((s.x.size for s in states), default=0)
    scratch = {name: np.empty(size) for name in (
        "to_global", "term", *(("to_local",) if channels == 2 else ()))}
    # each state's own arrays, and views of the scratch shaped like them
    bufs = [_Buffers(s.x, s.v, s.y, **{name: flat[:s.x.size].reshape(s.x.shape)
                                       for name, flat in scratch.items()})
            for s in states]
    masks = np.empty(size, dtype=bool)
    finite = [masks[:s.x.size].reshape(s.x.shape) for s in states]

    cons = [consensus_of(s, p, obj) for s in states]
    yield 0, states, [c.point for c in cons]
    for n in range(p.n_steps):
        theta = tuple(tape.theta_block(r, n, ch) for ch in range(1, channels + 1))
        for s, c, b, f in zip(states, cons, bufs, finite):
            # the step writes the new arrays into the state's own
            s.t = stepper(s, p, obj, theta, c, b).t
            _check_finite(s, n, f)
        cons = [consensus_of(s, p, obj) for s in states]
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
    state = initial_state(scheme, x0, p.m)
    times = np.empty(p.n_steps + 1)
    cons = np.empty((len(times), p.dim))
    moments = {name: np.empty((len(times), 2)) for name in ("x", "v", "y")
               if getattr(state, name) is not None}

    for n, (s,), (point,) in lockstep([state], p, obj, seed, 0):
        times[n] = s.t
        cons[n] = point
        for name, table in moments.items():
            table[n] = empirical_moments(getattr(s, name))
    return RunRecord(times=times, consensus=cons, moments=moments, final=s)
