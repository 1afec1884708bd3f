from collections import defaultdict

import numpy as np
import pytest

from swarmlimit import NoiseTape, Objective, lockstep
from swarmlimit.dynamics import _consensus_of, _step


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


def step_once(state, p, obj, theta):
    """``state`` after one ``_step`` on ``theta`` and its own pre-step
    consensus, advanced in place: the kernel ``lockstep`` runs, without
    ``lockstep``'s checks."""
    _step(state, p, obj, theta, _consensus_of(state, p, obj))
    return state


@pytest.fixture
def drawn_blocks(monkeypatch):
    """Every tape block drawn during the test, as ``(seed, r, n, ch) ->
    [block, ...]`` in draw order; observed on the class, the way the
    benchmark's tracer observes draws, so it sees the tapes ``lockstep``
    builds."""
    drawn = defaultdict(list)
    theta_block = NoiseTape.theta_block

    def recording(tape, r, n, ch=1):
        block = theta_block(tape, r, n, ch)
        drawn[(tape.seed, r, n, ch)].append(block.copy())
        return block

    monkeypatch.setattr(NoiseTape, "theta_block", recording)
    return drawn


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
