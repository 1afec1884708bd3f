"""The per-layer tracer in ``perfbench/tracing.py`` wraps package functions
by the names it looks them up under; these checks fail when a rename would
leave a layer untraced."""

import sys
from pathlib import Path

import numpy as np

import swarmlimit.dynamics as dynamics
import swarmlimit.experiments as experiments
from swarmlimit import NoiseTape, Params, ackley, initial_positions, initial_state

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from tracing import Tracer, installed  # noqa: E402


def test_tracer_counts_steps_and_tape_blocks_of_lockstep():
    p = Params(m=0.2, lam=1.0, sigma=0.5, alpha=30.0, dt=0.01, t_end=0.03,
               n_particles=10, dim=1)
    assert p.n_steps == 3
    tape = NoiseTape(0, 1, p.n_particles, p.n_steps, p.dim)
    x0 = initial_positions([0, 0], p.n_particles, p.dim)
    with installed(Tracer()) as tracer:
        (final,), _ = dynamics.lockstep([("pso", p, initial_state("pso", x0))],
                                        ackley(1), tape, 0)
    assert tracer.calls["dynamics.step"] == 3
    assert tracer.calls["noise.theta_block"] == 3
    assert np.all(np.isfinite(final.x))


def test_traced_driver_names_resolve():
    for name in ("run", "compare_distributions", "compare_ladder"):
        assert callable(getattr(experiments, name))
