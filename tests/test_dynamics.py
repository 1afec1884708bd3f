import copy
import re
from dataclasses import replace

import numpy as np
import pytest
from mpmath import mp

from swarmlimit import (
    MemoryParams,
    NoiseTape,
    NonFiniteStateError,
    Params,
    SwarmState,
    ackley,
    costs_of,
    initial_positions,
    lockstep,
    rastrigin,
    run,
    sphere,
)
import swarmlimit.dynamics as dynamics
from swarmlimit.dynamics import SCHEMES, _consensus_of, _initial_state, _step

from certified import step_oracle
from conftest import blocks, linear_cost, step_once

# hand evaluation of the semi-implicit update for particles {0, 1}, V = 0,
# m = 0.5, dt = 0.01, lam = 1, sigma = 0, alpha = 0 (consensus 0.5):
# v' = (lam dt / (m + (1-m) dt)) (0.5 - x) = +-0.005/0.505
PSO_V_NEW = (0.009900990099009901, -0.009900990099009901)
PSO_X_NEW = (9.900990099009901e-05, 0.9999009900990099)
# Euler-Maruyama with lam = 1, dt = 0.01, sigma = 0: 1% of the way to 0.5
CBO_X_NEW = (0.005, 0.995)
# memory first-order step, lam1 = 1, lam2 = 0, sigmas = 0, nu = 1/2, beta = 30,
# X = 0, Y = 1, E(x) = x: X' = 0.01, Y' = 1 + 0.005 (0.01 - 1) tanh(30 (0.01 - 1))
CBOMEM_X_NEW = 0.01
CBOMEM_Y_NEW = 1.00495


def plain_params(**kw):
    defaults = dict(m=0.5, lam=1.0, sigma=0.0, alpha=0.0, dt=0.01, t_end=1.0,
                    n_particles=2, dim=1)
    defaults.update(kw)
    return Params(**defaults)


def memory_params(**kw):
    mem = MemoryParams(lam1=kw.pop("lam1", 1.0), lam2=kw.pop("lam2", 0.0),
                       sigma1=kw.pop("sigma1", 0.0), sigma2=kw.pop("sigma2", 0.0),
                       nu=kw.pop("nu", 0.5), beta=kw.pop("beta", 30.0))
    return plain_params(memory=mem, **kw)


def tape_for(p, seed=0, replicates=1, channels=1):
    return NoiseTape(seed, replicates, p.n_particles, p.n_steps, p.dim,
                     channels=channels)


def test_params_validation():
    with pytest.raises(ValueError):
        plain_params(m=0.0)
    with pytest.raises(ValueError):
        plain_params(m=1.5)
    with pytest.raises(ValueError):
        plain_params(dt=-0.1)
    with pytest.raises(ValueError):
        plain_params(t_end=0.001)
    with pytest.raises(ValueError):
        plain_params(n_particles=0)
    with pytest.raises(ValueError):
        plain_params(alpha=-1.0)


def test_params_need_no_inertia_and_check_a_given_one_as_before():
    # only the second-order schemes read m, so a Params may leave it unset;
    # a given m meets the same check and message as ever
    p = Params(lam=1.0, sigma=0.0, alpha=0.0, dt=0.01, t_end=1.0,
               n_particles=2, dim=1)
    assert p.m is None and p == plain_params(m=None)
    for m, message in [(1.5, "inertia m must be in (0, 1], got 1.5"),
                       (0.0, "inertia m must be in (0, 1], got 0.0"),
                       (np.nan, "m must be finite, got nan")]:
        with pytest.raises(ValueError) as excinfo:
            plain_params(m=m)
        assert str(excinfo.value) == message


@pytest.mark.parametrize("n_steps", [1, 3, 100, 500, 12345])
@pytest.mark.parametrize("dt", [0.01, 0.1, 1 / 3, 0.0123456789])
def test_times_are_the_running_sum_of_dt_bit_for_bit(dt, n_steps):
    # a path's time points are the grid's, byte-equal to a clock that adds
    # dt once a step
    p = plain_params(dt=dt, t_end=n_steps * dt)
    assert p.n_steps == n_steps
    t, want = 0.0, [0.0]
    for _ in range(n_steps):
        t += dt
        want.append(t)
    assert p.times.tobytes() == np.array(want).tobytes()


def test_times_hold_every_point_of_a_grid_whose_quotient_rounds_down():
    # 0.3 / 0.1 = 2.99...96, which n_steps still counts as 3 steps
    p = plain_params(dt=0.1, t_end=0.3)
    assert len(p.times) == 4 and p.times[-1] == 0.1 + 0.1 + 0.1


@pytest.mark.parametrize("scheme", ["cbo", "cbo_mem"])
def test_a_first_order_run_gives_the_same_bits_without_an_inertia(scheme):
    p = memory_params(m=0.2, sigma=0.5, sigma1=0.4, sigma2=0.3, alpha=30.0,
                      n_particles=20, dim=2, t_end=0.05)
    x0 = initial_positions([4, 0], 20, 2)
    got = run(scheme, replace(p, m=None), ackley(2), 4, x0)
    want = run(scheme, p, ackley(2), 4, x0)
    assert got.final.m is None
    assert got.moments.keys() == want.moments.keys()
    pairs = [(got.times, want.times), (got.consensus, want.consensus),
             (got.final.x, want.final.x)]
    pairs += [(got.moments[k], want.moments[k]) for k in want.moments]
    if scheme == "cbo_mem":
        pairs.append((got.final.y, want.final.y))
    for a, b in pairs:
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


def test_step_preconditions(drawn_blocks):
    p = plain_params()
    obj = linear_cost()
    x0 = np.zeros((2, 1))
    # a second-order scheme takes its inertia
    for scheme in ("pso", "pso_mem"):
        with pytest.raises(ValueError, match="needs its inertia m"):
            next(lockstep((scheme,), x0, p, obj, 0, 0))
    # a first-order scheme carries no inertia, whatever it is given
    _, (cbo,), _ = next(lockstep(("cbo",), x0, p, obj, 0, 0, 0.5))
    assert cbo.m is None
    # a memory scheme needs the memory constants, checked before any item
    # or draw, next to a scheme that needs none
    for scheme in ("pso_mem", "cbo_mem"):
        with pytest.raises(ValueError) as excinfo:
            next(lockstep(("cbo", scheme), x0, p, obj, 0, 0, 0.5))
        assert str(excinfo.value) == "a memory scheme needs memory params"
    with pytest.raises(ValueError, match="memory params"):
        run("cbo_mem", p, obj, 0, x0)
    assert not drawn_blocks


@pytest.mark.parametrize("schemes", ["pso", (), ["cbo", "pso"]],
                         ids=["name", "empty", "list"])
def test_lockstep_rejects_schemes_that_are_not_a_nonempty_tuple(schemes,
                                                                drawn_blocks):
    # a bare name was read as its characters (unknown scheme 'p'), and an
    # empty tuple yielded empty items while drawing a block every step
    with pytest.raises(ValueError) as excinfo:
        list(lockstep(schemes, np.zeros((2, 1)), plain_params(), linear_cost(),
                      0, 0, 0.2))
    assert str(excinfo.value) == ("schemes must be a nonempty tuple of scheme "
                                  f"names, got {schemes!r}")
    assert not drawn_blocks


def test_pso_singleton_velocity_decays_geometrically():
    p = plain_params(n_particles=1, sigma=0.7, lam=2.0, alpha=30.0)
    tape = tape_for(p)
    state = SwarmState(x=np.array([[0.4]]), v=np.array([[1.0]]), m=p.m)
    factor = p.m / (p.m + (1 - p.m) * p.dt)
    obj = ackley(1)
    out = step_once(state, p, obj, blocks(tape, 0))
    # consensus of a singleton is the particle itself: drift and noise vanish
    assert out.v[0, 0] == factor * 1.0
    assert out.x[0, 0] == 0.4 + p.dt * out.v[0, 0]


def test_pso_frozen_dynamics_is_identity_on_positions():
    p = plain_params(sigma=0.0, lam=0.0)
    tape = tape_for(p)
    x = np.array([[0.1], [0.9]])
    state = SwarmState(x=x.copy(), v=np.zeros((2, 1)), m=p.m)
    obj = linear_cost()
    out = step_once(state, p, obj, blocks(tape, 0))
    assert np.array_equal(out.x, x)
    assert np.array_equal(out.v, np.zeros((2, 1)))
    assert p.times[1] == p.dt


def test_pso_step_matches_hand_oracle():
    mp.dps = 50
    den = mp.mpf("0.5") + mp.mpf("0.5") * mp.mpf("0.01")
    v0 = mp.mpf("0.01") / den * mp.mpf("0.5")
    assert abs(float(v0) - PSO_V_NEW[0]) < 1e-16
    assert abs(float(mp.mpf("0.01") * v0) - PSO_X_NEW[0]) < 1e-19

    p = plain_params()
    state = SwarmState(x=np.array([[0.0], [1.0]]), v=np.zeros((2, 1)),
                       m=p.m)
    obj = linear_cost()
    out = step_once(state, p, obj, blocks(tape_for(p), 0))
    assert out.v[:, 0] == pytest.approx(PSO_V_NEW, rel=1e-12)
    assert out.x[:, 0] == pytest.approx(PSO_X_NEW, rel=1e-12)


def test_cbo_step_matches_hand_oracle():
    p = plain_params()
    state = SwarmState(x=np.array([[0.0], [1.0]]))
    obj = linear_cost()
    out = step_once(state, p, obj, blocks(tape_for(p), 0))
    assert out.x[:, 0] == pytest.approx(CBO_X_NEW, rel=1e-12)


def test_cbo_fixed_point_when_collapsed():
    p = plain_params(sigma=0.6, lam=1.0, alpha=30.0, n_particles=5)
    tape = tape_for(p)
    x = np.full((5, 1), 1.25)
    state = SwarmState(x=x.copy())
    obj = ackley(1)
    for n in range(10):
        state = step_once(state, p, obj, blocks(tape, n))
    assert np.array_equal(state.x, x)


def test_cbo_null_dynamics_is_identity():
    p = plain_params(sigma=0.0, lam=0.0)
    x = np.array([[0.3], [0.7]])
    state, obj = SwarmState(x=x.copy()), linear_cost()
    out = step_once(state, p, obj, blocks(tape_for(p), 0))
    assert np.array_equal(out.x, x)


def test_memory_local_best_frozen_when_positions_do_not_move():
    p = memory_params(lam1=0.0, lam2=0.0, nu=0.5)
    x0 = np.array([[0.2], [0.8]])
    state = _initial_state("pso_mem", x0, p.m)
    obj = linear_cost()
    out = step_once(state, p, obj, blocks(tape_for(p, channels=2), 0))
    # X' = X, so the cost gap is zero and tanh(0) freezes Y
    assert np.array_equal(out.y, x0)
    assert np.array_equal(out.x, x0)


def test_memory_nu_zero_freezes_local_bests():
    p = memory_params(nu=0.0, lam1=0.5, lam2=0.5, sigma1=0.3, sigma2=0.3)
    tape = tape_for(p, channels=2)
    state = SwarmState(x=np.array([[0.1], [0.6]]), v=np.zeros((2, 1)),
                       y=np.array([[0.0], [1.0]]), m=p.m)
    y0 = state.y.copy()
    obj = linear_cost()
    for n in range(5):
        state = step_once(state, p, obj, blocks(tape, n))
    assert np.array_equal(state.y, y0)


def test_memory_singleton_reduces_to_combined_drift():
    # a single particle's global-best consensus is its own local best, so with
    # zero noise the velocity drift collapses to (lam1 + lam2)(Y - X)
    p = memory_params(lam1=0.7, lam2=0.5, nu=0.25, n_particles=1)
    tape = tape_for(p, channels=2)
    state = SwarmState(x=np.array([[0.2]]), v=np.array([[0.1]]),
                       y=np.array([[0.9]]), m=p.m)
    obj = linear_cost()
    out = step_once(state, p, obj, blocks(tape, 0))
    den = p.m + (1 - p.m) * p.dt
    v_expected = (p.m / den) * 0.1 + ((0.7 + 0.5) * p.dt / den) * (0.9 - 0.2)
    assert out.v[0, 0] == pytest.approx(v_expected, rel=1e-15)


def test_memory_step_with_y_equal_x_matches_plain_step():
    # when every local best coincides with the position and noise is off, the
    # memory scheme's consensus equals the position consensus and the update
    # is the plain one with lam = lam2
    pm = memory_params(lam1=0.4, lam2=0.8, nu=0.5, alpha=2.0, n_particles=4)
    pp = plain_params(lam=0.8, alpha=2.0, n_particles=4)
    x0 = np.array([[0.1], [0.4], [0.6], [0.9]])
    mem_state = _initial_state("pso_mem", x0, pm.m)
    plain_state = _initial_state("pso", x0, pp.m)
    obj = linear_cost()
    out_mem = step_once(mem_state, pm, obj, blocks(tape_for(pm, channels=2), 0))
    out_plain = step_once(plain_state, pp, obj, blocks(tape_for(pp), 0))
    assert out_mem.x[:, 0] == pytest.approx(out_plain.x[:, 0], abs=1e-15)
    assert out_mem.v[:, 0] == pytest.approx(out_plain.v[:, 0], abs=1e-15)


def test_cbo_memory_step_matches_hand_oracle():
    mp.dps = 50
    xn = mp.mpf("0.01")
    yn = 1 + mp.mpf("0.005") * (xn - 1) * mp.tanh(30 * (xn - 1))
    assert abs(float(xn) - CBOMEM_X_NEW) < 1e-18
    assert abs(float(yn) - CBOMEM_Y_NEW) < 1e-15

    p = memory_params(lam1=1.0, lam2=0.0, nu=0.5, beta=30.0, n_particles=1)
    state = SwarmState(x=np.array([[0.0]]), y=np.array([[1.0]]))
    obj = linear_cost()
    out = step_once(state, p, obj, blocks(tape_for(p, channels=2), 0))
    assert out.x[0, 0] == pytest.approx(CBOMEM_X_NEW, rel=1e-12)
    assert out.y[0, 0] == pytest.approx(CBOMEM_Y_NEW, rel=1e-12)


def test_cbo_memory_fixed_point():
    p = memory_params(lam1=1.0, lam2=1.0, sigma1=0.4, sigma2=0.4, nu=0.5)
    tape = tape_for(p, channels=2)
    x = np.full((2, 1), 0.5)
    state = SwarmState(x=x.copy(), y=x.copy())
    obj = ackley(1)
    for n in range(5):
        state = step_once(state, p, obj, blocks(tape, n))
    assert np.array_equal(state.x, x)
    assert np.array_equal(state.y, x)


def test_cbo_memory_degenerates_to_first_order_drift_on_frozen_y():
    # nu = 0, sigmas = 0, lam1 = 0: positions relax toward the consensus of
    # the frozen local-best cloud with rate lam2
    p = memory_params(lam1=0.0, lam2=1.0, nu=0.0, alpha=0.0, n_particles=2)
    x0 = np.array([[0.0], [1.0]])
    y0 = np.array([[0.25], [0.75]])
    state = SwarmState(x=x0.copy(), y=y0.copy())
    obj = linear_cost()
    out = step_once(state, p, obj, blocks(tape_for(p, channels=2), 0))
    ya = 0.5  # plain mean of the frozen local bests at alpha = 0
    expected = x0 + p.dt * 1.0 * (ya - x0)
    assert np.array_equal(out.x, expected)
    assert np.array_equal(out.y, y0)


def test_noise_coupling_consumes_identical_blocks(drawn_blocks):
    p = plain_params(sigma=1 / np.sqrt(3), lam=1.0, alpha=30.0,
                     n_particles=50, t_end=0.1)
    x0 = initial_positions([42, 0], 50, 1)
    run("pso", p, ackley(1), 42, x0)
    pso_log = dict(drawn_blocks)
    drawn_blocks.clear()
    run("cbo", p, ackley(1), 42, x0)
    assert pso_log.keys() == drawn_blocks.keys()
    for key, (block,) in pso_log.items():
        (cbo_block,) = drawn_blocks[key]
        assert np.array_equal(block, cbo_block)


def test_run_minimal_horizon_records_two_time_points():
    p = plain_params(t_end=0.01)
    rec = run("cbo", p, linear_cost(), 0, np.array([[0.0], [1.0]]))
    assert len(rec.times) - 1 == 1
    assert rec.times.shape == (2,)
    assert rec.moments["x"][:, 0].shape == (2,)


def test_run_rejects_bad_inputs():
    p = plain_params()
    with pytest.raises(ValueError, match="unknown scheme"):
        run("annealing", p, linear_cost(), 0, np.zeros((2, 1)))
    with pytest.raises(ValueError, match="shape"):
        run("cbo", p, linear_cost(), 0, np.zeros((3, 1)))


def test_run_consensus_cost_monotone_without_noise():
    # two particles, no diffusion, sharp alpha, the better one already at the
    # global minimum: the consensus cost cannot increase; cross-checked
    # against a scalar recurrence evolved independently with Python floats
    p = plain_params(sigma=0.0, lam=1.0, alpha=200.0, n_particles=2, t_end=0.5)
    obj = ackley(1)
    x0 = np.array([[0.0], [2.0]])
    rec = run("cbo", p, obj, 0, x0)

    xs = [0.0, 2.0]
    for _ in range(p.n_steps):
        costs = [obj(np.array([v])) for v in xs]
        w = [np.exp(-p.alpha * (c - min(costs))) for c in costs]
        xa = (w[0] * xs[0] + w[1] * xs[1]) / (w[0] + w[1])
        xs = [v + p.dt * (xa - v) for v in xs]
    assert rec.final.x[:, 0] == pytest.approx(xs, rel=1e-12)

    cons_costs = obj.eval(rec.consensus)
    assert np.all(np.diff(cons_costs) <= 1e-12)


def test_run_large_swarm_configuration_stays_finite():
    p = plain_params(m=0.1, lam=1.0, sigma=1 / np.sqrt(3), alpha=30.0,
                     n_particles=10_000, t_end=1.0)
    rec = run("pso", p, ackley(1), 7, initial_positions([7, 0], 10_000, 1))
    assert np.all(np.isfinite(rec.moments["x"][:, 1]))
    assert np.all(np.isfinite(rec.moments["v"][:, 1]))
    assert len(rec.times) - 1 == 100


def test_semi_implicit_survives_tiny_inertia():
    p = plain_params(m=1e-3, lam=1.0, sigma=1 / np.sqrt(3), alpha=30.0,
                     n_particles=500, t_end=1.0)
    rec = run("pso", p, ackley(1), 3, initial_positions([3, 0], 500, 1))
    assert np.all(np.isfinite(rec.moments["x"][:, 1]))


@pytest.mark.filterwarnings("ignore:overflow")
def test_non_finite_state_aborts_with_step_index():
    p = plain_params(sigma=1e200, lam=1.0, alpha=0.0, n_particles=4, t_end=0.05)
    x0 = np.array([[0.0], [0.5], [1.5], [3.0]])
    with pytest.raises(NonFiniteStateError) as excinfo:
        run("cbo", p, linear_cost(), 1, x0)
    err = excinfo.value
    assert err.step >= 0
    assert "non-finite" in str(err)
    # the error names the array and its first non-finite (particle, coordinate)
    assert err.array == "x"
    assert len(err.index) == 2
    assert f"x[{err.index[0]}, {err.index[1]}] is " in str(err)


def test_non_finite_stacked_state_names_rung_particle_and_coordinate(
        drawn_blocks):
    # a non-finite x0 is in every rung of the stack; the first is named
    p = plain_params(n_particles=3, dim=2)
    x0 = np.zeros((3, 2))
    x0[2, 1] = np.nan
    x0[1, 0] = np.inf
    with pytest.raises(NonFiniteStateError, match=r"^non-finite state after "
                       r"step -1: x\[0, 1, 0\] is inf$") as excinfo:
        next(lockstep(("pso", "cbo"), x0, p, linear_cost(2), 0, 0,
                      (0.4, 0.2, 0.1)))
    assert (excinfo.value.step, excinfo.value.array, excinfo.value.index) == \
        (-1, "x", (0, 1, 0))
    assert not drawn_blocks


def test_non_finite_replicate_stack_names_rung_replicate_particle_and_coordinate():
    # a rung-major (K, R, N, d) stack over R = 2 replicates of 3 particles
    p = plain_params(n_particles=3, dim=2)
    x0 = np.zeros((2, 3, 2))
    _, (ladder,), _ = next(lockstep(("pso",), x0, p, linear_cost(2), 0,
                                    range(2), (0.4, 0.2, 0.1)))
    assert ladder.x.shape == (3, 2, 3, 2)
    assert ladder.m.shape == (3, 1, 1, 1)
    x0[1, 0, 1] = -np.inf
    x0[1, 2, 0] = np.nan
    with pytest.raises(NonFiniteStateError, match=r"^non-finite state after "
                       r"step -1: x\[0, 1, 0, 1\] is -inf$") as excinfo:
        next(lockstep(("pso", "cbo"), x0, p, linear_cost(2), 0, range(2),
                      (0.4, 0.2, 0.1)))
    assert excinfo.value.index == (0, 1, 0, 1)


def test_lockstep_rejects_states_without_one_row_per_replicate(drawn_blocks):
    # a stack of three rows on two replicates, or a solo state on three,
    # would meet a tape block it cannot take in place
    p = plain_params(n_particles=3, dim=1)
    for shape, r, cloud in [((3, 3, 1), (0, 1), (2, 3, 1)),
                            ((3, 1), range(3), (3, 3, 1))]:
        with pytest.raises(ValueError) as excinfo:
            next(lockstep(("cbo",), np.zeros(shape), p, linear_cost(), 0, r))
        assert str(excinfo.value) == (f"x0 shape {shape} does not match "
                                      f"params and replicates {cloud}")
    assert not drawn_blocks


def test_replicate_stack_steps_each_row_as_its_solo_run(drawn_blocks):
    # rows 0 and 1 of a stack on replicates (3, 1) are the solo runs on
    # replicates 3 and 1, bit for bit, from one tape block per step
    p = plain_params(m=0.2, sigma=0.5, lam=1.0, alpha=30.0, n_particles=6,
                     dim=2, t_end=0.05)
    reps = (3, 1)
    x0 = np.stack([initial_positions([4, r], p.n_particles, p.dim) for r in reps])
    # lockstep advances a state's arrays in place: keep copies
    stacked = [(st.x.copy(), st.v.copy(), points) for _, (st,), (points,) in
               lockstep(("pso",), x0, p, ackley(2), 4, reps, (0.2, 0.1))]
    assert len(drawn_blocks) == p.n_steps
    assert {key[1] for key in drawn_blocks} == {reps}
    for j, r in enumerate(reps):
        for k, m in enumerate((0.2, 0.1)):
            solo = lockstep(("pso",), x0[j], p, ackley(2), 4, r, m)
            for (_, (s,), (point,)), (x, v, points) in zip(solo, stacked):
                assert np.array_equal(x[k, j], s.x)
                assert np.array_equal(v[k, j], s.v)
                assert np.array_equal(points[k, j], point)


def test_run_is_deterministic():
    p = plain_params(m=0.2, sigma=0.5, lam=1.0, alpha=30.0,
                     n_particles=64, t_end=0.2)
    x0 = initial_positions([5, 0], 64, 1)
    a = run("pso", p, ackley(1), 5, x0)
    b = run("pso", p, ackley(1), 5, x0)
    assert np.array_equal(a.consensus, b.consensus)
    assert np.array_equal(a.moments["x"][:, 1], b.moments["x"][:, 1])


# 10x the sup-over-steps of mean |X|^4 observed at m = 0.001 with seed 2024
# (Gaussian cloud of 1000 particles, the study parameters below); committed
# once as the m-independent cap for the whole inertia ladder
FOURTH_MOMENT_CAP = 34.96332734213163


def test_fourth_moment_uniformly_bounded_across_inertia_ladder():
    obj = ackley(1)
    for m in (0.8, 0.1, 0.001):
        p = plain_params(m=m, lam=1.0, sigma=1 / np.sqrt(3), alpha=30.0,
                         n_particles=1000, t_end=1.0)
        rec = run("pso", p, obj, 2024, initial_positions([2024, 0], 1000, 1))
        assert rec.moments["x"][:, 1].max() < FOURTH_MOMENT_CAP


@pytest.mark.parametrize("field", ["m", "lam", "sigma", "alpha", "dt", "t_end"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_params_reject_non_finite_values_by_name(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        plain_params(**{field: value})


@pytest.mark.parametrize("field", ["lam1", "lam2", "sigma1", "sigma2", "nu", "beta"])
def test_params_reject_non_finite_memory_values_by_name(field):
    with pytest.raises(ValueError, match=rf"^memory\.{field} must be finite"):
        memory_params(**{field: np.nan})


def test_params_reject_a_step_count_that_overflows():
    # both values are finite, but their ratio is not
    with pytest.raises(ValueError, match=r"^t_end / dt must be finite, "
                                         r"got 10000000000.0 / 1e-300$"):
        plain_params(dt=1e-300, t_end=1e10)


@pytest.mark.parametrize("make, channels", [(plain_params, 1),
                                             (memory_params, 2)],
                         ids=["plain", "memory"])
def test_params_reject_a_grid_whose_tape_index_overflows(make, channels):
    # t_end / dt = 1e290 steps is finite, but no uint64 index reaches them;
    # the widest tape the grid draws names the layout
    with pytest.raises(ValueError) as excinfo:
        make(dt=1e-300, t_end=1e-10)
    steps = int(1e-10 / 1e-300 + 1e-9)
    assert str(excinfo.value) == (
        f"noise tape layout replicates=1, particles=2, steps={steps}, dim=1, "
        f"channels={channels} has more than 2**64 indices")


@pytest.mark.parametrize("first, second", [("cbo", "pso"),
                                            ("cbo_mem", "pso_mem")],
                         ids=["plain", "memory"])
def test_pso_step_from_rest_approaches_cbo_step_at_rate_m(first, second):
    # the semi-implicit update is asymptotic-preserving: from V = 0 with the
    # same cloud, tape and consensus, X'_pso - X = (X'_cbo - X) dt / (m + (1-m) dt),
    # so the position gap is (X'_cbo - X) c / (1 + c) with c = m (1 - dt) / dt;
    # the memory pair starts with Y = X and shares the pre-step consensus too
    dt = 0.1
    obj = ackley(1)
    if first == "cbo_mem":
        def make(**kw):
            return memory_params(lam1=1.0, lam2=1.0, sigma1=1 / np.sqrt(3),
                                 sigma2=1 / np.sqrt(3), **kw)
    else:
        def make(**kw):
            return plain_params(lam=1.0, sigma=1 / np.sqrt(3), **kw)
    base = make(alpha=30.0, dt=dt, n_particles=50)
    tape = tape_for(base, seed=17, channels=2 if base.memory else 1)
    x0 = initial_positions([17, 0], 50, 1)
    cbo_out = _initial_state(first, x0)
    cons = _consensus_of(cbo_out, base, obj)
    _step(cbo_out, base, obj, blocks(tape, 0), cons)
    increment = np.max(np.abs(cbo_out.x - x0))
    assert increment > 0.0

    m_values = 1e-2 * 2.0 ** -np.arange(11)  # 1e-2 down to ~1e-5
    gaps = []
    for m in m_values:
        p = make(m=m, alpha=30.0, dt=dt, n_particles=50)
        pso_out = _initial_state(second, x0, m)
        _step(pso_out, p, obj, blocks(tape, 0), cons)
        gap = np.max(np.abs(pso_out.x - cbo_out.x))
        assert gap <= m * (1 - dt) / dt * increment * (1 + 1e-9)
        gaps.append(gap)
    ratios = np.array(gaps[:-1]) / np.array(gaps[1:])
    assert np.all((ratios > 1.9) & (ratios < 2.1))


def test_lockstep_yields_the_path_from_the_initial_states_on(monkeypatch,
                                                            drawn_blocks):
    p = plain_params(m=0.2, sigma=0.5, n_particles=5, t_end=0.05)
    x0 = initial_positions([3, 0], p.n_particles, p.dim)
    t = 0.0
    for n, states, points in lockstep(("cbo", "pso"), x0, p, ackley(1), 3, 0,
                                      (0.2, 0.1)):
        if n == 0:
            start = states
        # every item yields the same states; the time of item n is the
        # running sum of n dt
        assert states is start
        assert [pt.shape for pt in points] == [(1,), (2, 1)]
        assert p.times[n] == t
        t += p.dt
    assert n == p.n_steps
    assert p.times[n] == pytest.approx(p.t_end)
    # the path is lazy: two items are the states at rest and one step, and
    # the path draws at most one window ahead, here of two steps' blocks
    monkeypatch.setattr(dynamics, "_WINDOW_BYTES",
                        2 * 8 * p.n_particles * p.dim)
    drawn_blocks.clear()
    path = lockstep(("cbo", "pso"), x0, p, ackley(1), 3, 0, (0.2, 0.1))
    next(path)
    assert not drawn_blocks
    n, states, _ = next(path)
    assert sorted(drawn_blocks) == [(3, 0, 0, 1), (3, 0, 1, 1)]
    assert p.times[n] == p.dt


def _path_arrays(path):
    """Copies of every array of every state, item by item."""
    return [[a.copy() for s in states for k in ("x", "v", "y")
             if (a := getattr(s, k)) is not None] for _, states, _ in path]


@pytest.mark.parametrize("pair", [("cbo", "pso"), ("cbo_mem", "pso_mem")],
                         ids=["plain", "memory"])
def test_lockstep_path_does_not_depend_on_the_tape_window(monkeypatch, pair,
                                                          drawn_blocks):
    # windows of 1 step, of 3 (the last of the 10 steps alone), of all 11
    # time points (W = n_steps + 1, whose draw stops at the last step) and
    # the default, which holds all 11 here too, give the same path bit for
    # bit, and each step's blocks are drawn once
    mem = MemoryParams(lam1=1.0, lam2=0.5, sigma1=0.4, sigma2=0.3, nu=0.5,
                       beta=30.0)
    p = plain_params(m=0.2, sigma=0.5, alpha=30.0, n_particles=5, dim=2,
                     t_end=0.1, memory=mem)
    x0 = np.stack([initial_positions([3, j], 5, 2) for j in range(2)])
    step_bytes = 8 * 2 * p.n_particles * p.dim
    channels = 2 if pair[0].endswith("_mem") else 1
    draw = NoiseTape.theta_block
    windows = []

    def recorded(tape, r, n, ch=1):
        windows.append((n, ch))
        return draw(tape, r, n, ch)

    monkeypatch.setattr(NoiseTape, "theta_block", recorded)
    paths = []
    for W, budget in ((1, step_bytes), (3, 3 * step_bytes + 7),
                      (11, 11 * step_bytes), (11, dynamics._WINDOW_BYTES)):
        monkeypatch.setattr(dynamics, "_WINDOW_BYTES", budget)
        drawn_blocks.clear()
        windows.clear()
        paths.append(_path_arrays(lockstep(pair, x0, p, ackley(2), 3, range(2),
                                           (0.2, 0.1))))
        assert windows == [(range(n, min(n + W, 10)), ch)
                           for n in range(0, 10, W)
                           for ch in range(1, channels + 1)]
        assert len(drawn_blocks) == p.n_steps * channels
        assert all(len(drawn) == 1 for drawn in drawn_blocks.values())
    assert p.n_steps == 10 and len(paths[0]) == 11
    for path in paths[1:]:
        for arrays, first in zip(path, paths[0]):
            assert all(np.array_equal(a, b) for a, b in zip(arrays, first))


@pytest.mark.parametrize("stacked", [False, True], ids=["solo", "stacked"])
def test_lockstep_states_own_their_arrays(stacked):
    # every scheme starts at rest on its own float64 copy of x0: no array
    # shares memory with x0 or with another, and writing into x0 after the
    # first item changes no later item
    mem = MemoryParams(lam1=1.0, lam2=0.5, sigma1=0.4, sigma2=0.3, nu=0.5,
                       beta=30.0)
    p = plain_params(m=0.2, sigma=0.5, alpha=30.0, n_particles=5, dim=2,
                     t_end=0.03, memory=mem)
    r = range(2) if stacked else 0
    x0 = np.stack([initial_positions([3, j], 5, 2) for j in range(2)])
    if not stacked:
        x0 = x0[0].copy()
    m = (0.2, 0.1) if stacked else 0.2
    want = _path_arrays(lockstep(SCHEMES, x0.copy(), p, ackley(2), 3, r, m))

    path = lockstep(SCHEMES, x0, p, ackley(2), 3, r, m)
    _, states, _ = next(path)
    arrays = [(k, a) for s in states for k in ("x", "v", "y")
              if (a := getattr(s, k)) is not None]
    assert len(arrays) == 8
    for i, (k, a) in enumerate(arrays):
        assert a.dtype == np.float64 and a.flags.writeable
        assert not np.shares_memory(a, x0)
        assert not any(np.shares_memory(a, b) for _, b in arrays[:i])
        start = np.zeros(a.shape) if k == "v" else np.broadcast_to(x0, a.shape)
        assert np.array_equal(a.view(np.uint64), start.view(np.uint64))
    x0[...] = np.nan
    got = _path_arrays(path)
    assert len(got) == len(want) - 1 == p.n_steps
    for item, want_item in zip(got, want[1:]):
        for a, b in zip(item, want_item, strict=True):
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("m, shape", [([[0.1, 0.2]], "(1, 2)"), ([], "(0,)")],
                         ids=["2-d", "empty"])
def test_initial_state_rejects_an_inertia_of_another_shape(m, shape,
                                                          drawn_blocks):
    # a 2-d inertia would fail inside the first step, an empty one would run
    # an empty stack
    with pytest.raises(ValueError) as excinfo:
        next(lockstep(("pso",), np.zeros((2, 1)), plain_params(), linear_cost(),
                      0, 0, m))
    assert str(excinfo.value) == ("inertia m must be a float or a nonempty "
                                  f"1-d sequence, got shape {shape}")
    assert not drawn_blocks


@pytest.mark.parametrize("m", [0.0, -2.0, 1.5, np.nan])
@pytest.mark.parametrize("stacked", [False, True])
def test_initial_state_rejects_an_inertia_params_rejects(m, stacked,
                                                         drawn_blocks):
    # the same check and message as Params, for a solo inertia or a ladder rung
    with pytest.raises(ValueError) as params_exc:
        plain_params(m=m)
    with pytest.raises(ValueError) as state_exc:
        next(lockstep(("pso",), np.zeros((2, 1)), plain_params(), linear_cost(),
                      0, 0, [0.2, m] if stacked else m))
    assert str(state_exc.value) == str(params_exc.value)
    assert not drawn_blocks


@pytest.mark.parametrize("scheme", ["pso", "cbo", "pso_mem", "cbo_mem"])
@pytest.mark.parametrize("stacked", [False, True], ids=["solo", "stacked"])
def test_lockstep_steps_the_states_in_place_bit_for_bit(scheme, stacked):
    # six steps of lockstep against six step calls on a copy of the start
    # state and the same tape blocks; stacked is (K, R, N, d) for pso,
    # (R, N, d) for cbo
    mem = MemoryParams(lam1=1.0, lam2=0.5, sigma1=0.4, sigma2=0.3, nu=0.5,
                       beta=30.0)
    p = plain_params(m=0.2, sigma=0.5, alpha=30.0, n_particles=7, dim=2,
                     t_end=0.06, memory=mem if scheme.endswith("_mem") else None)
    assert p.n_steps == 6
    r = range(2) if stacked else 0
    x0 = initial_positions([9, 0], p.n_particles, p.dim)
    if stacked:
        x0 = np.stack([x0, initial_positions([9, 1], p.n_particles, p.dim)])
    m = (0.2, 0.05) if stacked else 0.2
    ref = _initial_state(scheme, x0, m)
    names = [name for name in ("x", "v", "y") if getattr(ref, name) is not None]
    tape = NoiseTape(9, 2, p.n_particles, p.n_steps, p.dim,
                     2 if p.memory else 1)
    t = 0.0
    for n, (s,), _ in lockstep((scheme,), x0, p, ackley(2), 9, r, m):
        if n == 0:
            start = {name: getattr(s, name) for name in names}
        else:
            ref = step_once(ref, p, ackley(2), blocks(tape, n - 1, r))
            t += p.dt
        assert p.times[n] == t
        for name in names:
            got, want = getattr(s, name), getattr(ref, name)
            # every yielded array is the one of item 0, stepped in place
            assert got is start[name]
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert n == p.n_steps


@pytest.mark.parametrize("r", [range(0), ()], ids=["range", "tuple"])
def test_lockstep_rejects_no_replicates_with_the_tapes_message(r, drawn_blocks):
    p = plain_params(n_particles=5)
    with pytest.raises(ValueError) as excinfo:
        next(lockstep(("cbo",), np.zeros((1, 5, 1)), p, ackley(1), 3, r))
    assert str(excinfo.value) == ("r must be a replicate or a nonempty range "
                                  "or tuple of them")
    assert not drawn_blocks


@pytest.mark.parametrize("r, bad", [(-1, -1), (range(-1, 1), -1), ((0, -2), -2),
                                    (1.5, 1.5), ((0, 1.0), 1.0)],
                         ids=["solo", "range", "tuple", "fraction", "float"])
def test_lockstep_rejects_a_replicate_that_is_no_count_before_it_yields(
        r, bad, drawn_blocks):
    # max(r) + 1 bounds the tape's replicates only from above, so the first
    # draw was the first to see a negative replicate, after step 0's item;
    # a fractional one ran on the replicate the tape index truncated it to
    p = plain_params(n_particles=5)
    x0 = np.zeros((len(r), 5, 1) if isinstance(r, (range, tuple)) else (5, 1))
    with pytest.raises(ValueError) as excinfo:
        next(lockstep(("cbo",), x0, p, ackley(1), 3, r))
    assert str(excinfo.value) == f"replicates must be integers >= 0, got r={bad}"
    assert not drawn_blocks


def _oracle_case(scheme, dim, stacked, order):
    """Params, a state off rest in the given memory order and its tape.

    A stacked pso state is a rung-major ``(2, 3, N, dim)`` ladder over three
    replicates, a stacked cbo state ``(3, N, dim)``."""
    mem = MemoryParams(lam1=1.0, lam2=0.5, sigma1=0.4, sigma2=0.3, nu=0.5,
                       beta=30.0)
    p = plain_params(m=0.2, sigma=0.5, alpha=30.0, n_particles=9, dim=dim,
                     t_end=0.02, memory=mem if scheme.endswith("_mem") else None)
    x0 = np.stack([initial_positions([5, r], 9, dim) for r in range(3)])
    state = _initial_state(scheme, x0 if stacked else x0[0],
                           (0.2, 0.05) if stacked else 0.2)
    rng = np.random.default_rng(dim)
    for name in ("x", "v", "y"):
        arr = getattr(state, name)
        if arr is not None:
            if name != "x":
                arr = arr + rng.normal(0.0, 0.3, arr.shape)
            setattr(state, name, np.asarray(arr, order=order))
    return p, state, NoiseTape(5, 3, 9, p.n_steps, dim, 2 if p.memory else 1)


def _assert_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("stacked", [False, True], ids=["solo", "stacked"])
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("scheme", ["pso", "cbo", "pso_mem", "cbo_mem"])
def test_step_equals_the_broadcast_oracle_bit_for_bit(scheme, dim, stacked, order):
    # _step iterates its broadcasts along the particle axis; the oracle is
    # the plain broadcast form, every operation allocating.  _step advances
    # the state it is given, its own arrays, returns nothing, and gives the
    # oracle's bits in any memory order of the state; the time one step on
    # is the grid's
    p, state, tape = _oracle_case(scheme, dim, stacked, order)
    obj = ackley(dim)
    r = range(3) if stacked else 1
    for n in range(2):
        theta = blocks(tape, n, r)
        cons = _consensus_of(state, p, obj)
        want = step_oracle(state, p, obj, theta, cons)
        given = copy.deepcopy(state)
        arrays = {name: getattr(given, name) for name in ("x", "v", "y")}
        assert _step(given, p, obj, theta, cons) is None
        assert p.times[n + 1] == p.times[n] + p.dt
        for name, oracle in zip(("x", "v", "y"), want):
            assert getattr(given, name) is arrays[name]
            if oracle is not None:
                _assert_bits(getattr(given, name), oracle)
        state = given


@pytest.mark.filterwarnings("ignore:overflow")
def test_a_pso_velocity_blow_up_names_the_first_non_finite_position():
    # the post-step check reads x, v and y in this order: x' = x + dt v' is
    # non-finite wherever v' is, so the first non-finite entry named is x's
    p = plain_params(sigma=1e200, lam=1.0, alpha=0.0, n_particles=4, t_end=0.05)
    x0 = np.array([[0.0], [0.5], [1.5], [3.0]])
    with pytest.raises(NonFiniteStateError, match=re.escape(
            "non-finite state after step 1: x[0, 0] is inf")):
        run("pso", p, linear_cost(), 1, x0)
    path = lockstep(("pso",), np.stack([x0, x0[::-1]]), p, linear_cost(), 1,
                    range(2), (0.5, 0.1))
    _, (ladder,), _ = next(path)
    with pytest.raises(NonFiniteStateError, match=re.escape(
            "non-finite state after step 1: x[0, 0, 0, 0] is inf")) as excinfo:
        for _ in path:
            pass
    assert (excinfo.value.step, excinfo.value.array) == (1, "x")
    assert not np.all(np.isfinite(ladder.v))


def _assert_mirrored_paths(make, dim, pair, shift):
    """The path from ``-(x0 + shift)`` under shift ``-shift`` is, value for
    value, the negation of the path from ``x0 + shift`` under ``shift``."""
    mem = MemoryParams(lam1=1.0, lam2=1.0, sigma1=1 / np.sqrt(3),
                       sigma2=1 / np.sqrt(3), nu=0.5, beta=30.0)
    p = plain_params(m=None, sigma=1 / np.sqrt(3), alpha=30.0, t_end=0.5,
                     n_particles=300, dim=dim,
                     memory=mem if pair[0] == "cbo_mem" else None)
    x0 = np.stack([initial_positions([17, r], 300, dim) for r in range(2)])

    def path(start, shift):
        obj = make(dim, shift)
        return [([a.copy() for s in states for k in ("x", "v", "y")
                  if (a := getattr(s, k)) is not None],
                 [point.copy() for point in points])
                for _, states, points in lockstep(pair, start, p, obj, 17,
                                                  range(2), (0.2, 0.1))]

    plus, minus = path(x0 + shift, shift), path(-(x0 + shift), -shift)
    assert len(plus) == len(minus) == p.n_steps + 1
    for (arrays, points), (neg_arrays, neg_points) in zip(plus, minus):
        for a, b in zip(arrays + points, neg_arrays + neg_points, strict=True):
            assert np.array_equal(a, -b)
    # the path moved: the check compared more than the start
    assert not np.array_equal(plus[-1][0][0], plus[0][0][0])


@pytest.mark.parametrize("pair", [("cbo", "pso"), ("cbo_mem", "pso_mem")],
                         ids=["plain", "memory"])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("make", [ackley, rastrigin, sphere])
def test_lockstep_from_the_mirrored_cloud_yields_the_mirrored_path(make, dim,
                                                                  pair):
    # an oracle from the model, not from the code's formulas: every shipped
    # objective is even at shift 0, the consensus weights see the cloud only
    # through its costs, and the noise enters only as (Xa - X) theta, so on
    # the same tape the path from -x0 is the negation of the path from x0.
    # Negation is exact in floating point, so every value agrees exactly;
    # but the rest velocities are +0.0 in both runs, where the negation has
    # -0.0, so the test compares values with ==, not bits
    _assert_mirrored_paths(make, dim, pair, np.zeros(dim))


@pytest.mark.parametrize("pair", [("cbo", "pso"), ("cbo_mem", "pso_mem")],
                         ids=["plain", "memory"])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("make", [ackley, rastrigin, sphere])
def test_lockstep_from_the_shifted_mirror_yields_the_mirrored_path(make, dim,
                                                                  pair):
    # the objective with shift s is the mirror of the one with shift -s, and
    # x - s negates exactly, so the mirror holds off the origin too
    _assert_mirrored_paths(make, dim, pair, np.array((0.7, -1.3)[:dim]))


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the local best update Y' = Y + nu dt (X' - Y) tanh(beta (E(X') - E(Y))) "
    "has a negative weight where E(X') < E(Y), so Y moves away from the "
    "better X'; the literature weight is nonnegative"))
@pytest.mark.parametrize("scheme", ["cbo_mem", "pso_mem"])
@pytest.mark.parametrize("dim", [1, 2])
def test_a_local_best_never_moves_away_from_a_strictly_better_position(scheme,
                                                                      dim):
    # a property of the model, whatever the weight's formula: where the new
    # position is strictly better than the local best, the update pulls the
    # local best toward it or leaves it, never pushes it off.  In exact
    # arithmetic |Y' - X'| <= |Y - X'|; the computed distances round, by a
    # few ulps of the coordinates, which the bound allows and no push of
    # nu dt tanh(.) |Y - X'| hides
    mem = MemoryParams(lam1=1.0, lam2=1.0, sigma1=1 / np.sqrt(3),
                       sigma2=1 / np.sqrt(3), nu=0.5, beta=30.0)
    p = plain_params(m=None, alpha=30.0, t_end=0.2, n_particles=200, dim=dim,
                     memory=mem)
    obj = ackley(dim)
    x0 = initial_positions([23, 0], 200, dim)
    m = 0.2 if scheme == "pso_mem" else None
    better = 0
    for n, (s,), _ in lockstep((scheme,), x0, p, obj, 23, 0, m):
        if n > 0:
            gained = costs_of(s.x, obj) < costs_of(y_old, obj)
            before = np.linalg.norm(y_old - s.x, axis=-1)
            after = np.linalg.norm(s.y - s.x, axis=-1)
            ulps = 8 * np.finfo(float).eps * (np.abs(y_old).sum(axis=-1)
                                              + np.abs(s.x).sum(axis=-1))
            assert np.all(after[gained] <= before[gained] + ulps[gained])
            better += int(gained.sum())
        y_old = s.y.copy()
    assert better > 0
