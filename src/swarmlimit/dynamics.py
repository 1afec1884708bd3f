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

A ``(K, N, d)`` state is a stack of K swarms, and a second-order stack
carries one inertia per slice as a ``(K, 1, 1)`` column.  Each slice's
arithmetic is elementwise that of a solo ``(N, d)`` run and every reduction
stays within one slice, so its bits do not depend on what it is stacked with.

``Xa`` is the softmax consensus of the current positions (of the local bests
for the memory variants), computed once per step from the pre-step cloud and
shared by all particles of a slice.  The noise coupling ``(Xa - X) th`` is
componentwise (anisotropic/diagonal).  With matching tapes, ``pso`` and
``cbo`` consume identical noise at matching ``(i, n, k)``, which is what
makes their pathwise gap measure the small-inertia coupling distance.

``lockstep`` is the one stepping loop: it advances states that share a tape
replicate and ``Params`` together, drawing each tape block once per step and
handing the same array to every slice of every state.  ``run`` is
``lockstep`` over a single unstacked state plus per-step recording.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from math import isfinite, sqrt
from typing import NamedTuple

import numpy as np

from .consensus import consensus_point, costs_of
from .metrics import empirical_moments

SCHEMES = ("pso", "cbo", "pso_mem", "cbo_mem")


class NonFiniteStateError(RuntimeError):
    """A step produced NaN or Inf: carries the step, the array (``x``, ``v``
    or ``y``) and the index of its first non-finite entry, ``(particle,
    coordinate)`` led by the rung for a stacked state."""

    def __init__(self, step: int, array: str, index: tuple[int, ...], value):
        where = f"{array}[{', '.join(map(str, index))}]"
        super().__init__(f"non-finite state after step {step}: {where} is {value}")
        self.step, self.array, self.index = step, array, index


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
        if not 0.0 < self.m <= 1.0:
            raise ValueError(f"inertia m must be in (0, 1], got {self.m}")
        if self.dt <= 0.0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if not isfinite(self.t_end / self.dt):
            raise ValueError(f"t_end / dt must be finite, got "
                             f"{self.t_end} / {self.dt}")
        if self.t_end < self.dt:
            raise ValueError(f"t_end must be >= dt, got {self.t_end}")
        if self.n_particles < 1:
            raise ValueError("n_particles must be >= 1")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.alpha < 0.0:
            raise ValueError("alpha must be >= 0")
        if self.lam < 0.0 or self.sigma < 0.0:
            raise ValueError("lam and sigma must be >= 0")

    @property
    def n_steps(self) -> int:
        # floor of t_end / dt, guarded so 0.3 / 0.1 = 2.99...96 still gives 3
        return int(self.t_end / self.dt + 1e-9)


@dataclass
class SwarmState:
    """``(..., N, d)`` positions (and velocities / local bests where the
    scheme has them); ``m`` is a second-order state's inertia, a float or the
    ``(K, 1, 1)`` column of a ``(K, N, d)`` stack."""

    t: float
    x: np.ndarray
    v: np.ndarray | None = None
    y: np.ndarray | None = None
    m: float | np.ndarray | None = None

    def check_finite(self, step: int) -> None:
        for name in ("x", "v", "y"):
            arr = getattr(self, name)
            if arr is not None and not np.isfinite(arr).all():
                index = tuple(int(i) for i in np.argwhere(~np.isfinite(arr))[0])
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


def consensus_of(state: SwarmState, p: Params, obj) -> Consensus:
    """The consensus the next step of ``state`` uses, one point per slice."""
    cloud = state.x if state.y is None else state.y
    costs = costs_of(cloud, obj)
    return Consensus(consensus_point(cloud, obj, p.alpha, costs=costs), costs)


def step(state: SwarmState, p: Params, obj, theta: tuple[np.ndarray, ...],
         cons: Consensus | None = None) -> SwarmState:
    """One step of the scheme the state's arrays select.

    ``theta`` is the step's ``(N, d)`` tape block per channel, from channel 1,
    shared by every slice.  Velocities select the semi-implicit second-order
    update with the state's inertia and local bests the memory variant.
    ``cons`` is the pre-step ``consensus_of(state, p, obj)`` when the caller
    already holds it.  The update is ``acc + sum_j (c_j / denom) vec_j
    [theta_j]``, summed left to right: first order starts ``acc`` from ``X``
    with ``denom = 1`` and returns ``X' = acc``; second order starts it from
    ``(m / denom) V`` and returns ``V' = acc``, ``X' = X + dt V'``.
    """
    if cons is None:
        cons = consensus_of(state, p, obj)
    sqrt_dt = sqrt(p.dt)
    to_global = cons.point[..., None, :] - state.x
    if state.y is None:
        terms = [(p.lam * p.dt, to_global, None),
                 (p.sigma * sqrt_dt, to_global, theta[0])]
    else:
        mem = p.memory
        if mem is None:
            raise ValueError("a state with local bests needs memory params")
        to_local = state.y - state.x
        terms = [(mem.lam1 * p.dt, to_local, None),
                 (mem.lam2 * p.dt, to_global, None),
                 (mem.sigma1 * sqrt_dt, to_local, theta[0]),
                 (mem.sigma2 * sqrt_dt, to_global, theta[1])]
    if state.v is None:
        denom, acc = 1.0, state.x
    else:
        denom = state.m + (1.0 - state.m) * p.dt
        acc = (state.m / denom) * state.v
    for coef, vec, noise in terms:
        term = (coef / denom) * vec
        acc = acc + (term if noise is None else term * noise)
    if state.v is None:
        x_new, v_new = acc, None
    else:
        x_new, v_new = state.x + p.dt * acc, acc
    y_new = None
    if state.y is not None:
        # local bests relax toward the new positions, weighted by the cost gap
        gap = costs_of(x_new, obj) - cons.costs
        y_new = state.y + mem.nu * p.dt * (x_new - state.y) \
            * np.tanh(mem.beta * gap)[..., None]
    return SwarmState(t=state.t + p.dt, x=x_new, v=v_new, y=y_new, m=state.m)


# one entry per scheme, all the same ``step``: ``lockstep`` looks the step up
# here on every call, so a tracer can wrap it from outside the package
_STEPPERS = dict.fromkeys(SCHEMES, step)


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


def _scheme_of(state: SwarmState) -> str:
    return ("cbo" if state.v is None else "pso") + ("" if state.y is None else "_mem")


def initial_state(scheme: str, x0: np.ndarray, m=None) -> SwarmState:
    """The scheme's state at rest: positions ``x0``, V0 = 0 and Y0 = X0.

    A second-order scheme needs its inertia ``m``: a float gives one swarm,
    a sequence of K inertias a ``(K, N, d)`` stack with ``x0`` in every slice.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r} (expected one of {SCHEMES})")
    x0 = np.array(x0, dtype=np.float64)
    second_order = scheme.startswith("pso")
    if not second_order:
        m = None
    elif m is None:
        raise ValueError(f"scheme {scheme!r} needs its inertia m")
    elif np.ndim(m) == 1:
        x0 = np.repeat(x0[None], len(m), axis=0)
        m = np.asarray(m, dtype=np.float64)[:, None, None]
    return SwarmState(t=0.0, x=x0, v=np.zeros_like(x0) if second_order else None,
                      y=x0.copy() if scheme.endswith("_mem") else None, m=m)


def lockstep(states, p: Params, obj, tape, r: int, observe=None
             ) -> tuple[list[SwarmState], list[np.ndarray]]:
    """Advance ``states`` on replicate ``r`` of one tape together.

    The states share ``p``, each second-order one with its own inertia.  Per
    step, the tape blocks are drawn once and handed to every state, and each
    state's consensus is computed once: the step that follows consumes it and
    ``observe(n, states, points)`` receives its points, at ``n = 0`` for the
    initial states and at ``n + 1`` after step ``n``.  Returns the final
    states and their consensus points.  Non-finite states abort with the
    offending step index.
    """
    for state in states:
        state.check_finite(-1)
        if state.x.shape[-2:] != (p.n_particles, p.dim):
            raise ValueError(f"x0 shape {state.x.shape} does not match params "
                             f"({p.n_particles}, {p.dim})")
    channels = 2 if any(s.y is not None for s in states) else 1

    cons = [consensus_of(s, p, obj) for s in states]
    if observe is not None:
        observe(0, states, [c.point for c in cons])
    for n in range(p.n_steps):
        theta = tuple(tape.theta_block(r, n, ch) for ch in range(1, channels + 1))
        states = [_STEPPERS[_scheme_of(s)](s, p, obj, theta, c)
                  for s, c in zip(states, cons)]
        for s in states:
            s.check_finite(n)
        cons = [consensus_of(s, p, obj) for s in states]
        if observe is not None:
            observe(n + 1, states, [c.point for c in cons])
    return states, [c.point for c in cons]


def run(scheme: str, p: Params, obj, tape, r: int, x0: np.ndarray) -> RunRecord:
    """Iterate a scheme from rest at ``x0`` for floor(t_end / dt) steps,
    recording diagnostics.

    The consensus point and the moments of every cloud the state carries
    (positions, then velocities and local bests where the scheme has them)
    are recorded at every step, including the initial cloud; the recorded
    consensus is the one the next step uses.  Non-finite states abort with
    the offending step index.
    """
    state = initial_state(scheme, x0, p.m)
    rows = p.n_steps + 1
    times = np.empty(rows)
    cons = np.empty((rows, p.dim))
    moments = {name: np.empty((rows, 2)) for name in ("x", "v", "y")
               if getattr(state, name) is not None}

    def record(n: int, states: list[SwarmState], points: list[np.ndarray]) -> None:
        (s,), (point,) = states, points
        times[n] = s.t
        cons[n] = point
        for name, table in moments.items():
            table[n] = empirical_moments(getattr(s, name))

    (final,), _ = lockstep([state], p, obj, tape, r, observe=record)
    return RunRecord(times=times, consensus=cons, moments=moments, final=final)
