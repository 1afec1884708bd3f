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
    consensus_of,
    initial_positions,
    initial_state,
    lockstep,
    run,
    step,
)

from swarmlimit.dynamics import _Buffers

from certified import step_oracle
from conftest import blocks, linear_cost

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


def test_step_preconditions():
    p = plain_params()
    tape = tape_for(p)
    obj = linear_cost()
    x0 = np.zeros((2, 1))
    # a second-order state carries its inertia
    for scheme in ("pso", "pso_mem"):
        with pytest.raises(ValueError, match="needs its inertia m"):
            initial_state(scheme, x0)
    # a first-order scheme carries no inertia, whatever it is given
    assert initial_state("cbo", x0, 0.5).m is None
    # a memory state needs the memory constants
    with pytest.raises(ValueError, match="memory params"):
        run("cbo_mem", p, obj, 0, x0)


def test_pso_singleton_velocity_decays_geometrically():
    p = plain_params(n_particles=1, sigma=0.7, lam=2.0, alpha=30.0)
    tape = tape_for(p)
    state = SwarmState(t=0.0, x=np.array([[0.4]]), v=np.array([[1.0]]), m=p.m)
    factor = p.m / (p.m + (1 - p.m) * p.dt)
    obj = ackley(1)
    out = step(state, p, obj, blocks(tape, 0), consensus_of(state, p, obj))
    # consensus of a singleton is the particle itself: drift and noise vanish
    assert out.v[0, 0] == factor * 1.0
    assert out.x[0, 0] == 0.4 + p.dt * out.v[0, 0]


def test_pso_frozen_dynamics_is_identity_on_positions():
    p = plain_params(sigma=0.0, lam=0.0)
    tape = tape_for(p)
    x = np.array([[0.1], [0.9]])
    state = SwarmState(t=0.0, x=x.copy(), v=np.zeros((2, 1)), m=p.m)
    obj = linear_cost()
    out = step(state, p, obj, blocks(tape, 0), consensus_of(state, p, obj))
    assert np.array_equal(out.x, x)
    assert np.array_equal(out.v, np.zeros((2, 1)))
    assert out.t == p.dt


def test_pso_step_matches_hand_oracle():
    mp.dps = 50
    den = mp.mpf("0.5") + mp.mpf("0.5") * mp.mpf("0.01")
    v0 = mp.mpf("0.01") / den * mp.mpf("0.5")
    assert abs(float(v0) - PSO_V_NEW[0]) < 1e-16
    assert abs(float(mp.mpf("0.01") * v0) - PSO_X_NEW[0]) < 1e-19

    p = plain_params()
    state = SwarmState(t=0.0, x=np.array([[0.0], [1.0]]), v=np.zeros((2, 1)),
                       m=p.m)
    obj = linear_cost()
    out = step(state, p, obj, blocks(tape_for(p), 0), consensus_of(state, p, obj))
    assert out.v[:, 0] == pytest.approx(PSO_V_NEW, rel=1e-12)
    assert out.x[:, 0] == pytest.approx(PSO_X_NEW, rel=1e-12)


def test_cbo_step_matches_hand_oracle():
    p = plain_params()
    state = SwarmState(t=0.0, x=np.array([[0.0], [1.0]]))
    obj = linear_cost()
    out = step(state, p, obj, blocks(tape_for(p), 0), consensus_of(state, p, obj))
    assert out.x[:, 0] == pytest.approx(CBO_X_NEW, rel=1e-12)


def test_cbo_fixed_point_when_collapsed():
    p = plain_params(sigma=0.6, lam=1.0, alpha=30.0, n_particles=5)
    tape = tape_for(p)
    x = np.full((5, 1), 1.25)
    state = SwarmState(t=0.0, x=x.copy())
    obj = ackley(1)
    for n in range(10):
        state = step(state, p, obj, blocks(tape, n), consensus_of(state, p, obj))
    assert np.array_equal(state.x, x)


def test_cbo_null_dynamics_is_identity():
    p = plain_params(sigma=0.0, lam=0.0)
    x = np.array([[0.3], [0.7]])
    state, obj = SwarmState(t=0.0, x=x.copy()), linear_cost()
    out = step(state, p, obj, blocks(tape_for(p), 0), consensus_of(state, p, obj))
    assert np.array_equal(out.x, x)


def test_memory_local_best_frozen_when_positions_do_not_move():
    p = memory_params(lam1=0.0, lam2=0.0, nu=0.5)
    state = initial_state("pso_mem", np.array([[0.2], [0.8]]), p.m)
    obj = linear_cost()
    out = step(state, p, obj, blocks(tape_for(p, channels=2), 0),
               consensus_of(state, p, obj))
    # X' = X, so the cost gap is zero and tanh(0) freezes Y
    assert np.array_equal(out.y, state.y)
    assert np.array_equal(out.x, state.x)


def test_memory_nu_zero_freezes_local_bests():
    p = memory_params(nu=0.0, lam1=0.5, lam2=0.5, sigma1=0.3, sigma2=0.3)
    tape = tape_for(p, channels=2)
    state = SwarmState(t=0.0, x=np.array([[0.1], [0.6]]), v=np.zeros((2, 1)),
                       y=np.array([[0.0], [1.0]]), m=p.m)
    y0 = state.y.copy()
    obj = linear_cost()
    for n in range(5):
        state = step(state, p, obj, blocks(tape, n), consensus_of(state, p, obj))
    assert np.array_equal(state.y, y0)


def test_memory_singleton_reduces_to_combined_drift():
    # a single particle's global-best consensus is its own local best, so with
    # zero noise the velocity drift collapses to (lam1 + lam2)(Y - X)
    p = memory_params(lam1=0.7, lam2=0.5, nu=0.25, n_particles=1)
    tape = tape_for(p, channels=2)
    state = SwarmState(t=0.0, x=np.array([[0.2]]), v=np.array([[0.1]]),
                       y=np.array([[0.9]]), m=p.m)
    obj = linear_cost()
    out = step(state, p, obj, blocks(tape, 0), consensus_of(state, p, obj))
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
    mem_state = initial_state("pso_mem", x0, pm.m)
    plain_state = initial_state("pso", x0, pp.m)
    obj = linear_cost()
    out_mem = step(mem_state, pm, obj, blocks(tape_for(pm, channels=2), 0),
                   consensus_of(mem_state, pm, obj))
    out_plain = step(plain_state, pp, obj, blocks(tape_for(pp), 0),
                     consensus_of(plain_state, pp, obj))
    assert out_mem.x[:, 0] == pytest.approx(out_plain.x[:, 0], abs=1e-15)
    assert out_mem.v[:, 0] == pytest.approx(out_plain.v[:, 0], abs=1e-15)


def test_cbo_memory_step_matches_hand_oracle():
    mp.dps = 50
    xn = mp.mpf("0.01")
    yn = 1 + mp.mpf("0.005") * (xn - 1) * mp.tanh(30 * (xn - 1))
    assert abs(float(xn) - CBOMEM_X_NEW) < 1e-18
    assert abs(float(yn) - CBOMEM_Y_NEW) < 1e-15

    p = memory_params(lam1=1.0, lam2=0.0, nu=0.5, beta=30.0, n_particles=1)
    state = SwarmState(t=0.0, x=np.array([[0.0]]), y=np.array([[1.0]]))
    obj = linear_cost()
    out = step(state, p, obj, blocks(tape_for(p, channels=2), 0),
               consensus_of(state, p, obj))
    assert out.x[0, 0] == pytest.approx(CBOMEM_X_NEW, rel=1e-12)
    assert out.y[0, 0] == pytest.approx(CBOMEM_Y_NEW, rel=1e-12)


def test_cbo_memory_fixed_point():
    p = memory_params(lam1=1.0, lam2=1.0, sigma1=0.4, sigma2=0.4, nu=0.5)
    tape = tape_for(p, channels=2)
    x = np.full((2, 1), 0.5)
    state = SwarmState(t=0.0, x=x.copy(), y=x.copy())
    obj = ackley(1)
    for n in range(5):
        state = step(state, p, obj, blocks(tape, n), consensus_of(state, p, obj))
    assert np.array_equal(state.x, x)
    assert np.array_equal(state.y, x)


def test_cbo_memory_degenerates_to_first_order_drift_on_frozen_y():
    # nu = 0, sigmas = 0, lam1 = 0: positions relax toward the consensus of
    # the frozen local-best cloud with rate lam2
    p = memory_params(lam1=0.0, lam2=1.0, nu=0.0, alpha=0.0, n_particles=2)
    x0 = np.array([[0.0], [1.0]])
    y0 = np.array([[0.25], [0.75]])
    state = SwarmState(t=0.0, x=x0.copy(), y=y0.copy())
    obj = linear_cost()
    out = step(state, p, obj, blocks(tape_for(p, channels=2), 0),
               consensus_of(state, p, obj))
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


def test_non_finite_stacked_state_names_rung_particle_and_coordinate():
    p = plain_params(n_particles=3, dim=2)
    ladder = initial_state("pso", np.zeros((3, 2)), (0.4, 0.2, 0.1))
    assert ladder.x.shape == (3, 3, 2)
    ladder.v[1, 2, 1] = np.nan
    ladder.v[2, 0, 0] = np.inf
    with pytest.raises(NonFiniteStateError, match=r"^non-finite state after "
                       r"step -1: v\[1, 2, 1\] is nan$") as excinfo:
        next(lockstep([initial_state("cbo", np.zeros((3, 2))), ladder], p,
                      linear_cost(2), 0, 0))
    assert (excinfo.value.step, excinfo.value.array, excinfo.value.index) == \
        (-1, "v", (1, 2, 1))


def test_non_finite_replicate_stack_names_rung_replicate_particle_and_coordinate():
    # a rung-major (K, R, N, d) stack over R = 2 replicates of 3 particles
    p = plain_params(n_particles=3, dim=2)
    x0 = np.zeros((2, 3, 2))
    ladder = initial_state("pso", x0, (0.4, 0.2, 0.1))
    assert ladder.x.shape == (3, 2, 3, 2)
    assert ladder.m.shape == (3, 1, 1, 1)
    ladder.x[2, 1, 0, 1] = -np.inf
    ladder.x[2, 1, 2, 0] = np.nan
    with pytest.raises(NonFiniteStateError, match=r"^non-finite state after "
                       r"step -1: x\[2, 1, 0, 1\] is -inf$") as excinfo:
        next(lockstep([initial_state("cbo", x0), ladder], p, linear_cost(2), 0,
                      range(2)))
    assert excinfo.value.index == (2, 1, 0, 1)


def test_lockstep_rejects_states_without_one_row_per_replicate():
    p = plain_params(n_particles=3, dim=1)
    with pytest.raises(ValueError, match=r"does not match params and "
                       r"replicates \(2, 3, 1\)"):
        next(lockstep([initial_state("cbo", np.zeros((3, 3, 1)))], p,
                      linear_cost(), 0, (0, 1)))


def test_replicate_stack_steps_each_row_as_its_solo_run(drawn_blocks):
    # rows 0 and 1 of a stack on replicates (3, 1) are the solo runs on
    # replicates 3 and 1, bit for bit, from one tape block per step
    p = plain_params(m=0.2, sigma=0.5, lam=1.0, alpha=30.0, n_particles=6,
                     dim=2, t_end=0.05)
    reps = (3, 1)
    x0 = np.stack([initial_positions([4, r], p.n_particles, p.dim) for r in reps])
    # lockstep advances a state's arrays in place: keep copies
    stacked = [(st.x.copy(), st.v.copy(), points) for _, (st,), (points,) in
               lockstep([initial_state("pso", x0, (0.2, 0.1))], p, ackley(2),
                        4, reps)]
    assert len(drawn_blocks) == p.n_steps
    assert {key[1] for key in drawn_blocks} == {reps}
    for j, r in enumerate(reps):
        for k, m in enumerate((0.2, 0.1)):
            solo = lockstep([initial_state("pso", x0[j], m)], p, ackley(2), 4, r)
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


def test_pso_step_from_rest_approaches_cbo_step_at_rate_m():
    # the semi-implicit update is asymptotic-preserving: from V = 0 with the
    # same cloud, tape and consensus, X'_pso - X = (X'_cbo - X) dt / (m + (1-m) dt),
    # so the position gap is (X'_cbo - X) c / (1 + c) with c = m (1 - dt) / dt
    dt = 0.1
    obj = ackley(1)
    base = plain_params(lam=1.0, sigma=1 / np.sqrt(3), alpha=30.0, dt=dt,
                        n_particles=50)
    tape = tape_for(base, seed=17)
    x0 = initial_positions([17, 0], 50, 1)
    cons = consensus_of(initial_state("cbo", x0), base, obj)
    cbo_out = step(initial_state("cbo", x0), base, obj, blocks(tape, 0), cons)
    increment = np.max(np.abs(cbo_out.x - x0))
    assert increment > 0.0

    m_values = 1e-2 * 2.0 ** -np.arange(11)  # 1e-2 down to ~1e-5
    gaps = []
    for m in m_values:
        p = plain_params(m=m, lam=1.0, sigma=1 / np.sqrt(3), alpha=30.0,
                         dt=dt, n_particles=50)
        pso_out = step(initial_state("pso", x0, m), p, obj, blocks(tape, 0), cons)
        gap = np.max(np.abs(pso_out.x - cbo_out.x))
        assert gap <= m * (1 - dt) / dt * increment * (1 + 1e-9)
        gaps.append(gap)
    ratios = np.array(gaps[:-1]) / np.array(gaps[1:])
    assert np.all((ratios > 1.9) & (ratios < 2.1))


def test_lockstep_yields_the_path_from_the_initial_states_on(drawn_blocks):
    p = plain_params(m=0.2, sigma=0.5, n_particles=5, t_end=0.05)
    x0 = initial_positions([3, 0], p.n_particles, p.dim)
    start = [initial_state("cbo", x0), initial_state("pso", x0, (0.2, 0.1))]
    t = 0.0
    for n, states, points in lockstep(start, p, ackley(1), 3, 0):
        # every item yields the states passed in, their time advanced with
        # their arrays by one dt a step
        assert states is start
        assert [pt.shape for pt in points] == [(1,), (2, 1)]
        assert all(s.t == t for s in states)
        t += p.dt
    assert n == p.n_steps
    assert start[0].t == pytest.approx(p.t_end)
    # the path is lazy: two items are the states as given and one step, and
    # a second path goes on from the states' own time
    drawn_blocks.clear()
    t_end = start[0].t
    path = lockstep(start, p, ackley(1), 3, 0)
    next(path)
    next(path)
    assert sorted(drawn_blocks) == [(3, 0, 0, 1)]
    assert all(s.t == t_end + p.dt for s in start)


@pytest.mark.parametrize("m, shape", [([[0.1, 0.2]], "(1, 2)"), ([], "(0,)")],
                         ids=["2-d", "empty"])
def test_initial_state_rejects_an_inertia_of_another_shape(m, shape):
    # a 2-d inertia would fail inside the first step, an empty one would run
    # an empty stack
    with pytest.raises(ValueError) as excinfo:
        initial_state("pso", np.zeros((2, 1)), m)
    assert str(excinfo.value) == ("inertia m must be a float or a nonempty "
                                  f"1-d sequence, got shape {shape}")


@pytest.mark.parametrize("m", [0.0, -2.0, 1.5, np.nan])
@pytest.mark.parametrize("stacked", [False, True])
def test_initial_state_rejects_an_inertia_params_rejects(m, stacked):
    # the same check and message as Params, for a solo inertia or a ladder rung
    with pytest.raises(ValueError) as params_exc:
        plain_params(m=m)
    with pytest.raises(ValueError) as state_exc:
        initial_state("pso", np.zeros((2, 1)), [0.2, m] if stacked else m)
    assert str(state_exc.value) == str(params_exc.value)


@pytest.mark.parametrize("scheme", ["pso", "cbo", "pso_mem", "cbo_mem"])
@pytest.mark.parametrize("stacked", [False, True], ids=["solo", "stacked"])
def test_lockstep_steps_the_states_in_place_bit_for_bit(scheme, stacked):
    # six steps of lockstep against six allocating step calls on a copy of
    # the start state and the same tape blocks; stacked is (K, R, N, d) for
    # pso, (R, N, d) for cbo
    mem = MemoryParams(lam1=1.0, lam2=0.5, sigma1=0.4, sigma2=0.3, nu=0.5,
                       beta=30.0)
    p = plain_params(m=0.2, sigma=0.5, alpha=30.0, n_particles=7, dim=2,
                     t_end=0.06, memory=mem if scheme.endswith("_mem") else None)
    assert p.n_steps == 6
    r = range(2) if stacked else 0
    x0 = initial_positions([9, 0], p.n_particles, p.dim)
    if stacked:
        x0 = np.stack([x0, initial_positions([9, 1], p.n_particles, p.dim)])
    start = initial_state(scheme, x0, (0.2, 0.05) if stacked else 0.2)
    names = [name for name in ("x", "v", "y") if getattr(start, name) is not None]
    ref = replace(start, **{name: getattr(start, name).copy() for name in names})
    tape = NoiseTape(9, 2, p.n_particles, p.n_steps, p.dim,
                     2 if p.memory else 1)
    for n, (s,), _ in lockstep([start], p, ackley(2), 9, r):
        if n > 0:
            ref = step(ref, p, ackley(2), blocks(tape, n - 1, r),
                       consensus_of(ref, p, ackley(2)))
        assert s.t == ref.t
        for name in names:
            got, want = getattr(s, name), getattr(ref, name)
            # every yielded array is the one passed in, stepped in place
            assert got is getattr(start, name)
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert n == p.n_steps


def _unsteppable(case):
    """States lockstep cannot step in place, and the message naming why."""
    x0 = initial_positions([3, 0], 5, 1)
    if case == "float32":
        return ([SwarmState(t=0.0, x=x0.astype(np.float32))],
                "state 0 x in place: not a writeable float64 array")
    if case == "read-only":
        pso = initial_state("pso", x0, 0.2)
        pso.v.flags.writeable = False
        return ([initial_state("cbo", x0), pso],
                "state 1 v in place: not a writeable float64 array")
    if case == "twice":
        cbo = initial_state("cbo", x0)
        return [cbo, cbo], "state 1 x in place: may share memory with state 0 x"
    # case "x is y"
    return ([SwarmState(t=0.0, x=x0, y=x0)],
            "state 0 y in place: may share memory with state 0 x")


@pytest.mark.parametrize("case", ["float32", "read-only", "twice", "x is y"])
def test_lockstep_rejects_a_state_it_cannot_step_in_place(case, drawn_blocks):
    states, why = _unsteppable(case)
    with pytest.raises(ValueError) as excinfo:
        next(lockstep(states, memory_params(n_particles=5), ackley(1), 3, 0))
    assert str(excinfo.value) == f"cannot step {why}"
    assert not drawn_blocks


@pytest.mark.parametrize("r", [range(0), ()], ids=["range", "tuple"])
def test_lockstep_rejects_no_replicates_with_the_tapes_message(r, drawn_blocks):
    p = plain_params(n_particles=5)
    start = initial_state("cbo", np.zeros((1, 5, 1)))
    with pytest.raises(ValueError) as excinfo:
        next(lockstep([start], p, ackley(1), 3, r))
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
        next(lockstep([initial_state("cbo", x0)], p, ackley(1), 3, r))
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
    state = initial_state(scheme, x0 if stacked else x0[0],
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
    # step iterates its broadcasts along the particle axis; the oracle is
    # the plain broadcast form.  Both the allocating call and the in-place
    # call on lockstep-style scratch (C-ordered views of one flat buffer)
    # must give its bits, in any memory order of the state
    p, state, tape = _oracle_case(scheme, dim, stacked, order)
    obj = ackley(dim)
    r = range(3) if stacked else 1
    for n in range(2):
        theta = blocks(tape, n, r)
        cons = consensus_of(state, p, obj)
        want = step_oracle(state, p, obj, theta, cons)
        new = step(state, p, obj, theta, cons, _Buffers())
        scratch = np.empty((3, state.x.size))
        bufs = _Buffers(state.x, state.v, state.y,
                        *(flat.reshape(state.x.shape) for flat in scratch))
        stepped = step(state, p, obj, theta, cons, bufs)
        for name, oracle in zip(("x", "v", "y"), want):
            if oracle is None:
                assert getattr(new, name) is None
                continue
            _assert_bits(getattr(new, name), oracle)
            # the in-place step wrote the state's own arrays
            assert getattr(stepped, name) is getattr(state, name)
            _assert_bits(getattr(stepped, name), oracle)
        state = stepped


@pytest.mark.parametrize("scheme", ["pso", "cbo", "pso_mem", "cbo_mem"])
def test_allocating_step_of_a_solo_state_broadcasts_up_against_a_stacked_block(
        scheme):
    # a solo (N, d) state on an (R, N, d) block steps into R swarms
    p, state, tape = _oracle_case(scheme, 2, False, "C")
    obj = ackley(2)
    theta = blocks(tape, 0, range(3))
    cons = consensus_of(state, p, obj)
    out = step(state, p, obj, theta, cons)
    for name, oracle in zip(("x", "v", "y"), step_oracle(state, p, obj, theta, cons)):
        if oracle is not None:
            assert oracle.shape == (3, 9, 2)
            _assert_bits(getattr(out, name), oracle)


@pytest.mark.filterwarnings("ignore:overflow")
def test_a_pso_velocity_blow_up_names_the_first_non_finite_position():
    # the post-step check reads x and y only: x' = x + dt v' is non-finite
    # wherever v' is, and x comes first, so the error is the one a check of
    # v would have raised after it
    p = plain_params(sigma=1e200, lam=1.0, alpha=0.0, n_particles=4, t_end=0.05)
    x0 = np.array([[0.0], [0.5], [1.5], [3.0]])
    with pytest.raises(NonFiniteStateError, match=re.escape(
            "non-finite state after step 1: x[0, 0] is inf")):
        run("pso", p, linear_cost(), 1, x0)
    ladder = initial_state("pso", np.stack([x0, x0[::-1].copy()]), (0.5, 0.1))
    with pytest.raises(NonFiniteStateError, match=re.escape(
            "non-finite state after step 1: x[0, 0, 0, 0] is inf")) as excinfo:
        for _ in lockstep([ladder], p, linear_cost(), 1, range(2)):
            pass
    assert (excinfo.value.step, excinfo.value.array) == (1, "x")
    assert not np.all(np.isfinite(ladder.v))
