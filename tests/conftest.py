from collections import defaultdict
from typing import NamedTuple

import numpy as np
import pytest

from swarmlimit import NoiseTape, Objective, consensus_point, costs_of, lockstep
from swarmlimit.dynamics import _initial_states, _relax_local_bests, _step


def linear_cost(dim: int = 1) -> Objective:
    """E(x) = x_1; handy for hand-checkable oracles."""
    return Objective(
        name="linear",
        dim=dim,
        eval=lambda x: x[:, 0].copy(),
        minimizer=np.zeros(dim),
    )


def trajectory(scheme, p, obj, seed, r, x0):
    """Positions and local bests (``None`` without memory) of a solo run on
    replicate ``r`` of the seed's tape, one entry per time point from the
    initial cloud on."""
    xs, ys = [], []
    for _, (s,), _ in lockstep((scheme,), x0, p, obj, seed, r, p.m):
        xs.append(s.x.copy())
        ys.append(None if s.y is None else s.y.copy())
    return xs, ys


def blocks(tape, n, r=0):
    """Every channel's tape block of step ``n``, as ``_step`` takes them."""
    return tuple(tape.theta_block(r, n, ch) for ch in range(1, tape.channels + 1))


def initial_state(scheme, x0, m=None):
    """The state of ``scheme`` at rest from ``x0`` that ``lockstep`` starts
    when it runs ``scheme`` alone."""
    (state,), _, _, _ = _initial_states((scheme,), x0, m)
    return state


class Consensus(NamedTuple):
    """A state's consensus point and the costs of the cloud it weights: the
    positions, or the local bests for the memory schemes."""

    point: np.ndarray
    costs: np.ndarray


def consensus_of(state, p, obj):
    """The consensus the next step of ``state`` uses, one point per slice,
    as ``lockstep`` computes it on the state's slice of its stack."""
    cloud = state.x if state.y is None else state.y
    costs = costs_of(cloud, obj)
    return Consensus(consensus_point(cloud, costs, p.alpha), costs)


def step_once(state, p, obj, theta):
    """``state`` after one step on ``theta`` and its own pre-step consensus,
    advanced in place: the kernels ``lockstep`` runs, without ``lockstep``'s
    checks.  ``_step`` moves the positions and velocities; a memory state's
    local bests then relax on the costs of the new positions."""
    cons = consensus_of(state, p, obj)
    assert _step(state, p, theta, cons.point) is None
    if state.y is not None:
        _relax_local_bests(state, p, costs_of(state.x, obj) - cons.costs)
    return state


@pytest.fixture
def drawn_blocks(monkeypatch):
    """Every tape block drawn during the test, as ``(seed, r, n, ch) ->
    [block, ...]`` in draw order, a window of steps as the blocks of its
    steps; observed on the class, the way the benchmark's tracer observes
    draws, so it sees the tapes ``lockstep`` builds."""
    drawn = defaultdict(list)
    theta_block = NoiseTape.theta_block

    def recording(tape, r, n, ch=1):
        block = theta_block(tape, r, n, ch)
        for t, rows in zip(n, block) if isinstance(n, range) else [(n, block)]:
            drawn[(tape.seed, r, t, ch)].append(rows.copy())
        return block

    monkeypatch.setattr(NoiseTape, "theta_block", recording)
    return drawn


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
