"""Time stepping for the coupled swarm dynamics.

Four schemes over an ``(n_particles, dim)`` cloud:

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

from dataclasses import dataclass, field, fields
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


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


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


def pso_step(state: SwarmState, p: Params, obj, tape, r: int, n: int,
             cons: Consensus | None = None) -> SwarmState:
    """One semi-implicit step of the second-order scheme (velocity first).

    ``cons`` is the pre-step ``consensus_of(state, p, obj)`` when the caller
    already holds it; every stepper computes it otherwise.
    """
    _require(state.v is not None and state.y is None,
             "pso_step needs velocities and no local bests")
    if cons is None:
        cons = consensus_of(state, p, obj)
    xa = cons.point
    theta = tape.theta_block(r, n, 1)
    denom = p.m + p.gamma * p.dt
    drift = xa - state.x
    v_new = (p.m / denom) * state.v \
        + (p.lam * p.dt / denom) * drift \
        + (p.sigma * sqrt(p.dt) / denom) * drift * theta
    x_new = state.x + p.dt * v_new
    out = SwarmState(t=state.t + p.dt, x=x_new, v=v_new)
    out.check_finite(n)
    return out


def cbo_step(state: SwarmState, p: Params, obj, tape, r: int, n: int,
             cons: Consensus | None = None) -> SwarmState:
    """One Euler-Maruyama step of the first-order scheme.

    Consumes the same tape indices (channel 1) as ``pso_step``.
    """
    _require(state.v is None and state.y is None,
             "cbo_step takes positions only")
    if cons is None:
        cons = consensus_of(state, p, obj)
    xa = cons.point
    theta = tape.theta_block(r, n, 1)
    drift = xa - state.x
    x_new = state.x + p.dt * p.lam * drift + sqrt(p.dt) * p.sigma * drift * theta
    out = SwarmState(t=state.t + p.dt, x=x_new)
    out.check_finite(n)
    return out


def _cost_gap_weight(obj, x_new: np.ndarray, y_costs: np.ndarray,
                     beta: float) -> np.ndarray:
    return np.tanh(beta * (np.asarray(obj(x_new)) - y_costs))[:, None]


def pso_memory_step(state: SwarmState, p: Params, obj, tape, r: int, n: int,
                    cons: Consensus | None = None) -> SwarmState:
    """Second-order step with local bests; consensus is over the Y cloud."""
    _require(state.v is not None and state.y is not None,
             "pso_memory_step needs velocities and local bests")
    _require(p.memory is not None, "pso_memory_step needs memory params")
    mem = p.memory
    if cons is None:
        cons = consensus_of(state, p, obj)
    ya, y_costs = cons
    th1 = tape.theta_block(r, n, 1)
    th2 = tape.theta_block(r, n, 2)
    denom = p.m + p.gamma * p.dt
    to_local = state.y - state.x
    to_global = ya - state.x
    v_new = (p.m / denom) * state.v \
        + (mem.lam1 * p.dt / denom) * to_local \
        + (mem.lam2 * p.dt / denom) * to_global \
        + (mem.sigma1 * sqrt(p.dt) / denom) * to_local * th1 \
        + (mem.sigma2 * sqrt(p.dt) / denom) * to_global * th2
    x_new = state.x + p.dt * v_new
    y_new = state.y + mem.nu * p.dt * (x_new - state.y) \
        * _cost_gap_weight(obj, x_new, y_costs, mem.beta)
    out = SwarmState(t=state.t + p.dt, x=x_new, v=v_new, y=y_new)
    out.check_finite(n)
    return out


def cbo_memory_step(state: SwarmState, p: Params, obj, tape, r: int, n: int,
                    cons: Consensus | None = None) -> SwarmState:
    """First-order step with local bests; same tape channels as ``pso_mem``."""
    _require(state.v is None and state.y is not None,
             "cbo_memory_step takes positions and local bests, no velocities")
    _require(p.memory is not None, "cbo_memory_step needs memory params")
    mem = p.memory
    if cons is None:
        cons = consensus_of(state, p, obj)
    ya, y_costs = cons
    th1 = tape.theta_block(r, n, 1)
    th2 = tape.theta_block(r, n, 2)
    to_local = state.y - state.x
    to_global = ya - state.x
    x_new = state.x + mem.lam1 * p.dt * to_local + mem.lam2 * p.dt * to_global \
        + mem.sigma1 * sqrt(p.dt) * to_local * th1 \
        + mem.sigma2 * sqrt(p.dt) * to_global * th2
    y_new = state.y + mem.nu * p.dt * (x_new - state.y) \
        * _cost_gap_weight(obj, x_new, y_costs, mem.beta)
    out = SwarmState(t=state.t + p.dt, x=x_new, y=y_new)
    out.check_finite(n)
    return out


_STEPPERS = {
    "pso": pso_step,
    "cbo": cbo_step,
    "pso_mem": pso_memory_step,
    "cbo_mem": cbo_memory_step,
}


@dataclass
class RunRecord:
    """Per-step diagnostics plus optional position snapshots of one run."""

    scheme: str
    n_steps: int
    dt: float
    times: np.ndarray                      # (n_steps + 1,)
    consensus: np.ndarray                  # (n_steps + 1, dim)
    x_m2: np.ndarray
    x_m4: np.ndarray
    v_m2: np.ndarray | None = None
    v_m4: np.ndarray | None = None
    y_m2: np.ndarray | None = None
    y_m4: np.ndarray | None = None
    snapshot_steps: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))
    snapshot_x: np.ndarray | None = None   # (n_snapshots, n_particles, dim)
    snapshot_y: np.ndarray | None = None
    final: SwarmState | None = None


def initial_state(scheme: str, x0: np.ndarray, v0: np.ndarray | None = None,
                  y0: np.ndarray | None = None) -> SwarmState:
    """Assemble the scheme-appropriate state; V0 = 0 and Y0 = X0 by default."""
    x0 = np.array(x0, dtype=np.float64)
    has_v = scheme in ("pso", "pso_mem")
    has_y = scheme in ("pso_mem", "cbo_mem")
    v = None
    y = None
    if has_v:
        v = np.zeros_like(x0) if v0 is None else np.array(v0, dtype=np.float64)
    elif v0 is not None:
        raise ValueError(f"{scheme} carries no velocities")
    if has_y:
        y = x0.copy() if y0 is None else np.array(y0, dtype=np.float64)
    elif y0 is not None:
        raise ValueError(f"{scheme} carries no local bests")
    return SwarmState(t=0.0, x=x0, v=v, y=y)


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
    for scheme, _, _ in runs:
        if scheme not in _STEPPERS:
            raise ValueError(f"unknown scheme {scheme!r} (expected one of {SCHEMES})")
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


def run(scheme: str, p: Params, obj, tape, r: int, x0: np.ndarray,
        v0: np.ndarray | None = None, y0: np.ndarray | None = None,
        snapshot_every: int | None = None) -> RunRecord:
    """Iterate a scheme for floor(t_end / dt) steps, recording diagnostics.

    Moments and the consensus point are recorded at every step (including the
    initial cloud); the recorded consensus is the one the next step uses.
    Position snapshots are kept every ``snapshot_every`` steps (always
    including step 0 and the final step); ``None`` disables them.
    Non-finite states abort with the offending step index.
    """
    state = initial_state(scheme, x0, v0, y0)
    n_steps = p.n_steps

    take_snapshot = (lambda n: False) if snapshot_every is None else \
        (lambda n: n % snapshot_every == 0 or n == n_steps)

    times = np.empty(n_steps + 1)
    cons = np.empty((n_steps + 1, p.dim))
    x_m2 = np.empty(n_steps + 1)
    x_m4 = np.empty(n_steps + 1)
    v_m2 = np.empty(n_steps + 1) if state.v is not None else None
    v_m4 = np.empty(n_steps + 1) if state.v is not None else None
    y_m2 = np.empty(n_steps + 1) if state.y is not None else None
    y_m4 = np.empty(n_steps + 1) if state.y is not None else None
    snap_steps: list[int] = []
    snap_x: list[np.ndarray] = []
    snap_y: list[np.ndarray] = []

    def record(n: int, states: list[SwarmState], points: list[np.ndarray]) -> None:
        (s,), (point,) = states, points
        times[n] = s.t
        cons[n] = point
        x_m2[n], x_m4[n] = empirical_moments(s.x)
        if v_m2 is not None:
            v_m2[n], v_m4[n] = empirical_moments(s.v)
        if y_m2 is not None:
            y_m2[n], y_m4[n] = empirical_moments(s.y)
        if take_snapshot(n):
            snap_steps.append(n)
            snap_x.append(s.x.copy())
            if s.y is not None:
                snap_y.append(s.y.copy())

    (final,), _ = lockstep([(scheme, p, state)], obj, tape, r, observe=record)

    return RunRecord(
        scheme=scheme,
        n_steps=n_steps,
        dt=p.dt,
        times=times,
        consensus=cons,
        x_m2=x_m2,
        x_m4=x_m4,
        v_m2=v_m2,
        v_m4=v_m4,
        y_m2=y_m2,
        y_m4=y_m4,
        snapshot_steps=np.array(snap_steps, dtype=int),
        snapshot_x=np.array(snap_x) if snap_x else None,
        snapshot_y=np.array(snap_y) if snap_y else None,
        final=final,
    )
