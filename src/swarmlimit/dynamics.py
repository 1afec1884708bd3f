"""Time stepping for the coupled swarm dynamics.

Four schemes over an ``(n_particles, dim)`` cloud, all advanced by one
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
bests) selects the branch.

``Xa`` is the softmax consensus of the current positions (of the local bests
for the memory variants), computed once per step from the pre-step cloud and
shared by all particles.  The noise coupling ``(Xa - X) th`` is componentwise
(anisotropic/diagonal).  With matching tapes, ``pso`` and ``cbo`` consume
identical noise at matching ``(i, n, k)``, which is what makes their pathwise
gap measure the small-inertia coupling distance.

``lockstep`` is the one stepping loop: it advances any number of states that
share a tape replicate and a time grid together, drawing each tape block once
per step and computing each state's consensus once per step.  ``run`` is
``lockstep`` over a single state plus per-step recording.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from math import isfinite, sqrt
from typing import NamedTuple

import numpy as np

from .consensus import consensus_point
from .metrics import empirical_moments

SCHEMES = ("pso", "cbo", "pso_mem", "cbo_mem")


class NonFiniteStateError(RuntimeError):
    """A step produced NaN or Inf; carries the offending step index."""

    def __init__(self, step: int, detail: str):
        super().__init__(f"non-finite state after step {step}: {detail}")
        self.step = step
        self.detail = detail


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

    ``gamma`` is not a free field: the friction is pinned to ``1 - m`` exactly.
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
    def gamma(self) -> float:
        return 1.0 - self.m

    @property
    def n_steps(self) -> int:
        # floor of t_end / dt, guarded so 0.3 / 0.1 = 2.99...96 still gives 3
        return int(self.t_end / self.dt + 1e-9)


@dataclass
class SwarmState:
    """Positions (and velocities / local bests where the scheme has them)."""

    t: float
    x: np.ndarray
    v: np.ndarray | None = None
    y: np.ndarray | None = None

    def check_finite(self, step: int) -> None:
        for name, arr in (("x", self.x), ("v", self.v), ("y", self.y)):
            if arr is not None and not np.all(np.isfinite(arr)):
                raise NonFiniteStateError(step, f"{name} contains NaN/Inf")

    @property
    def mean_speed(self) -> float:
        """Particle-average Euclidean velocity norm; 0 without velocities."""
        if self.v is None:
            return 0.0
        return float(np.mean(np.linalg.norm(self.v, axis=1)))


class Consensus(NamedTuple):
    """A state's consensus point and the costs of the cloud it weights.

    The cloud is the positions, or the local bests for the memory schemes.
    """

    point: np.ndarray
    costs: np.ndarray


def consensus_of(state: SwarmState, p: Params, obj) -> Consensus:
    """The consensus the next step of ``state`` uses."""
    cloud = state.x if state.y is None else state.y
    costs = np.asarray(obj(cloud), dtype=np.float64)
    return Consensus(consensus_point(cloud, obj, p.alpha, costs=costs), costs)


def step(state: SwarmState, p: Params, obj, tape, r: int, n: int,
         cons: Consensus | None = None) -> SwarmState:
    """One step of the scheme the state's arrays select.

    Velocities select the semi-implicit second-order update and local bests
    the memory variant.  ``cons`` is the pre-step ``consensus_of(state, p,
    obj)`` when the caller already holds it; it is computed otherwise.  The
    update is ``acc + sum_j (c_j / denom) vec_j [theta_j]``, summed left to
    right: first order starts ``acc`` from ``X`` with ``denom = 1`` and
    returns ``X' = acc``; second order starts it from ``(m / denom) V`` and
    returns ``V' = acc``, ``X' = X + dt V'``.
    """
    if cons is None:
        cons = consensus_of(state, p, obj)
    sqrt_dt = sqrt(p.dt)
    to_global = cons.point - state.x
    if state.y is None:
        terms = [(p.lam * p.dt, to_global, None),
                 (p.sigma * sqrt_dt, to_global, tape.theta_block(r, n, 1))]
    else:
        mem = p.memory
        if mem is None:
            raise ValueError("a state with local bests needs memory params")
        to_local = state.y - state.x
        terms = [(mem.lam1 * p.dt, to_local, None),
                 (mem.lam2 * p.dt, to_global, None),
                 (mem.sigma1 * sqrt_dt, to_local, tape.theta_block(r, n, 1)),
                 (mem.sigma2 * sqrt_dt, to_global, tape.theta_block(r, n, 2))]
    if state.v is None:
        denom, acc = 1.0, state.x
    else:
        denom = p.m + p.gamma * p.dt
        acc = (p.m / denom) * state.v
    for coef, vec, theta in terms:
        term = (coef / denom) * vec
        acc = acc + (term if theta is None else term * theta)
    if state.v is None:
        x_new, v_new = acc, None
    else:
        x_new, v_new = state.x + p.dt * acc, acc
    y_new = None
    if state.y is not None:
        # local bests relax toward the new positions, weighted by the cost gap
        gap = np.asarray(obj(x_new)) - cons.costs
        y_new = state.y + mem.nu * p.dt * (x_new - state.y) \
            * np.tanh(mem.beta * gap)[:, None]
    out = SwarmState(t=state.t + p.dt, x=x_new, v=v_new, y=y_new)
    out.check_finite(n)
    return out


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


def _arrays_of(scheme: str) -> tuple[bool, bool]:
    """Whether a state of ``scheme`` carries velocities and local bests."""
    return scheme.startswith("pso"), scheme.endswith("_mem")


def initial_state(scheme: str, x0: np.ndarray) -> SwarmState:
    """The scheme's state at rest: positions ``x0``, V0 = 0 and Y0 = X0."""
    x0 = np.array(x0, dtype=np.float64)
    has_v, has_y = _arrays_of(scheme)
    return SwarmState(t=0.0, x=x0, v=np.zeros_like(x0) if has_v else None,
                      y=x0.copy() if has_y else None)


class _StepTape:
    """One step's view of a tape: each ``(r, n, ch)`` block is drawn once and
    the same array goes to every state that asks for it.

    Sharing is exact because a block is a pure function of its index.
    """

    def __init__(self, tape):
        self._tape = tape
        self._blocks = {}

    def theta_block(self, r: int, n: int, ch: int = 1) -> np.ndarray:
        key = (r, n, ch)
        if key not in self._blocks:
            self._blocks[key] = self._tape.theta_block(r, n, ch)
        return self._blocks[key]


def lockstep(runs, obj, tape, r: int, observe=None
             ) -> tuple[list[SwarmState], list[np.ndarray]]:
    """Advance several states on replicate ``r`` of one tape together.

    ``runs`` lists ``(scheme, params, initial state)`` triples that share the
    time grid (``dt`` and the step count).  Per step, each tape block is
    drawn once and handed to every state, and each state's consensus is
    computed once: the step that follows consumes it and ``observe(n,
    states, points)`` receives its point, at ``n = 0`` for the initial states
    and at ``n + 1`` after step ``n``.  Each state keeps its own arrays and
    the arithmetic of a run on its own, so its bits do not depend on which
    other states share the call.  Returns the final states and their
    consensus points.  Non-finite states abort with the offending step index.
    """
    for scheme, _, state in runs:
        if scheme not in _STEPPERS:
            raise ValueError(f"unknown scheme {scheme!r} (expected one of {SCHEMES})")
        if (state.v is not None, state.y is not None) != _arrays_of(scheme):
            raise ValueError(f"state arrays do not match scheme {scheme!r} "
                             "(velocities for pso*, local bests for *_mem)")
    params = [p for _, p, _ in runs]
    n_steps = params[0].n_steps
    if n_steps < 1:
        raise ValueError("t_end / dt must give at least one step")
    if any(q.dt != params[0].dt or q.n_steps != n_steps for q in params):
        raise ValueError("lockstep states must share dt and the step count")
    states = [state for _, _, state in runs]
    for p, state in zip(params, states):
        state.check_finite(-1)
        if state.x.shape != (p.n_particles, p.dim):
            raise ValueError(
                f"x0 shape {state.x.shape} does not match params "
                f"({p.n_particles}, {p.dim})"
            )

    cons = [consensus_of(s, p, obj) for s, p in zip(states, params)]
    if observe is not None:
        observe(0, states, [c.point for c in cons])
    for n in range(n_steps):
        step_tape = _StepTape(tape)
        states = [_STEPPERS[scheme](s, p, obj, step_tape, r, n, c)
                  for (scheme, p, _), s, c in zip(runs, states, cons)]
        cons = [consensus_of(s, p, obj) for s, p in zip(states, params)]
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
    state = initial_state(scheme, x0)
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

    (final,), _ = lockstep([(scheme, p, state)], obj, tape, r, observe=record)
    return RunRecord(times=times, consensus=cons, moments=moments, final=final)
