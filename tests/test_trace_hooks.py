"""The per-layer tracer in ``perfbench/tracing.py`` wraps package functions
by the names it looks them up under; these checks fail when a rename would
leave a layer untraced."""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import swarmlimit.dynamics as dynamics
import swarmlimit.experiments as experiments
from swarmlimit import (
    LimitStudyConfig,
    MemoryParams,
    Params,
    ackley,
    initial_positions,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from tracing import Tracer, _get, _patches, installed  # noqa: E402


def test_tracer_counts_steps_and_tape_blocks_of_lockstep():
    p = Params(m=0.2, lam=1.0, sigma=0.5, alpha=30.0, dt=0.01, t_end=0.03,
               n_particles=10, dim=1)
    assert p.n_steps == 3
    x0 = initial_positions([0, 0], p.n_particles, p.dim)
    with installed(Tracer()) as tracer:
        for _, (final,), _ in dynamics.lockstep(("pso",), x0, p, ackley(1), 0, 0,
                                                p.m):
            pass
    assert tracer.calls["dynamics.step"] == 3
    # the 3 steps' blocks of 10 variates are one window of the tape, drawn
    # once
    counters = tracer.counters()
    assert counters["noise.theta_block.calls"] == 1
    assert counters["noise.variates"] == 3 * p.n_particles * p.dim
    assert counters["noise.redraw_ratio"] == 1
    assert np.all(np.isfinite(final.x))


def test_traced_driver_names_resolve():
    for name in ("run", "compare_distributions", "compare_ladder"):
        assert callable(getattr(experiments, name))
    # every function the tracer wraps resolves under the name it patches;
    # the step kernel is reached only through its table
    patches = list(_patches(Tracer()))
    assert len(patches) == 15
    for owner, attr, span, _ in patches:
        assert callable(_get(owner, attr)), (span, attr)
    assert dynamics._STEPPERS == {"step": dynamics._step}


# a study of L = 2 rungs and R = 2 replicates steps two states, the
# reference and the stack of rungs, each holding every replicate; compare
# steps CBO and one PSO stack; optimize one scheme
STUDY = LimitStudyConfig(
    m_ladder=(0.2, 0.1), replicates=2,
    base=Params(m=0.2, lam=1.0, sigma=0.5, alpha=30.0, dt=0.01, t_end=0.03,
                n_particles=10, dim=1))
DRIVER_CALLS = {
    "zero_inertia_study": (lambda: experiments.zero_inertia_study(
        STUDY, ackley(1), seed=0), 2),
    "compare_distributions": (lambda: experiments.compare_distributions(
        STUDY.base, ackley(1), seed=0), 2),
    "optimize": (lambda: experiments.optimize(
        "pso", STUDY.base, ackley(1), seed=0), 1),
}


@pytest.mark.parametrize("driver", sorted(DRIVER_CALLS))
def test_tracer_counts_every_step_of_each_driver(driver):
    call, states = DRIVER_CALLS[driver]
    with installed(Tracer()) as tracer:
        call()
    assert tracer.calls["experiments"] == 1
    assert tracer.calls["dynamics.step"] == states * STUDY.base.n_steps


def test_tracer_counts_one_paired_gap_per_time_point_of_a_plain_1d_study():
    # the gap of every pass comes from the paired_msq_gap the tracer wraps,
    # once per time point for the whole stack
    assert STUDY.base.dim == 1 and STUDY.scheme_pair == "plain"
    with installed(Tracer()) as tracer:
        experiments.zero_inertia_study(STUDY, ackley(1), seed=0)
    assert tracer.calls["metrics.paired_msq_gap"] == STUDY.base.n_steps + 1


@pytest.mark.parametrize("pair", ["plain", "memory"])
def test_a_traced_study_makes_one_objective_and_consensus_call_per_time_point(
        pair):
    # the reference and the K rungs share one stack: one objective call and
    # one consensus call per time point take all (K + 1) R N particles, and
    # the memory pair adds one objective call per step on the new positions;
    # the step kernel still runs once per state and step
    memory = pair == "memory"
    base = STUDY.base
    if memory:
        base = replace(base, lam=0.0, memory=MemoryParams(
            lam1=1.0, lam2=1.0, sigma1=0.5, sigma2=0.5, nu=0.5, beta=30.0))
    cfg = LimitStudyConfig(m_ladder=STUDY.m_ladder, replicates=STUDY.replicates,
                           base=base, scheme_pair=pair)
    with installed(Tracer()) as tracer:
        experiments.zero_inertia_study(cfg, ackley(1), seed=0)
    counters = tracer.counters()
    n_steps = base.n_steps
    calls = n_steps + 1 + (n_steps if memory else 0)
    assert counters["objectives.eval.calls"] == calls
    assert counters["consensus.consensus_point.calls"] == n_steps + 1
    assert counters["dynamics.step.calls"] == 2 * n_steps
    assert counters["objectives.eval.points"] == calls * (
        len(cfg.m_ladder) + 1) * cfg.replicates * base.n_particles
