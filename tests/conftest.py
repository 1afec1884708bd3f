import numpy as np
import pytest

from swarmlimit import Objective, initial_state, lockstep


def linear_cost(dim: int = 1) -> Objective:
    """E(x) = x_1; handy for hand-checkable oracles."""
    return Objective(
        name="linear",
        dim=dim,
        eval=lambda x: x[:, 0].copy(),
        minimizer=np.zeros(dim),
    )


def trajectory(scheme, p, obj, tape, r, x0):
    """Positions and local bests (``None`` without memory) of a solo run,
    one entry per time point from the initial cloud on."""
    xs, ys = [], []
    for _, (s,), _ in lockstep([initial_state(scheme, x0, p.m)], p, obj, tape, r):
        xs.append(s.x.copy())
        ys.append(None if s.y is None else s.y.copy())
    return xs, ys


def blocks(tape, n, r=0):
    """Every channel's tape block of step ``n``, as ``step`` takes them."""
    return tuple(tape.theta_block(r, n, ch) for ch in range(1, tape.channels + 1))


class RecordingTape:
    """Tape wrapper logging every consumed block, for coupling checks."""

    def __init__(self, tape):
        self.tape = tape
        self.log = {}

    def __getattr__(self, name):
        # the layout (particles, dim, ...) is the wrapped tape's
        return getattr(self.tape, name)

    def theta_block(self, r, n, ch=1):
        block = self.tape.theta_block(r, n, ch)
        self.log[(r, n, ch)] = block.copy()
        return block


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
