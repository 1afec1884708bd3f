import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from swarmlimit import (
    LimitStudyConfig,
    MemoryParams,
    NonFiniteStateError,
    Objective,
    Params,
    ackley,
    compare_distributions,
    compare_ladder,
    costs_of,
    default_bins,
    initial_positions,
    kl_histogram,
    laplace_sweep,
    laplace_value,
    lockstep,
    optimize,
    paired_msq_gap,
    rastrigin,
    run,
    sphere,
    wasserstein2_1d,
    zero_inertia_study,
)
import swarmlimit.dynamics as dynamics
import swarmlimit.experiments as experiments
from swarmlimit.experiments import _coupled_pass
from swarmlimit.metrics import _w2_and_kl_sorted

from certified import alpha0_gap_factors
from conftest import linear_cost, trajectory


def study_base(**kw):
    defaults = dict(m=0.2, lam=1.0, sigma=1 / np.sqrt(3), alpha=30.0, dt=0.01,
                    t_end=0.5, n_particles=200, dim=1)
    defaults.update(kw)
    return Params(**defaults)


def test_config_validation():
    base = study_base()
    with pytest.raises(ValueError, match="m_ladder must be nonempty"):
        LimitStudyConfig(m_ladder=(), replicates=1, base=base)
    with pytest.raises(ValueError, match="strictly decreasing"):
        LimitStudyConfig(m_ladder=(0.1, 0.2), replicates=1, base=base)
    with pytest.raises(ValueError, match=r"\(0, 1/2\]"):
        LimitStudyConfig(m_ladder=(0.8, 0.1), replicates=1, base=base)
    with pytest.raises(ValueError):
        LimitStudyConfig(m_ladder=(0.2,), replicates=0, base=base)
    with pytest.raises(ValueError, match="replicates must be an integer, got 2.5"):
        LimitStudyConfig(m_ladder=(0.2,), replicates=2.5, base=base)
    # a NumPy integer is a count
    assert LimitStudyConfig(m_ladder=(0.2,), replicates=np.int64(2),
                            base=base).replicates == 2
    with pytest.raises(ValueError, match="scheme_pair"):
        LimitStudyConfig(m_ladder=(0.2,), replicates=1, base=base,
                         scheme_pair="hybrid")
    with pytest.raises(ValueError, match="memory"):
        LimitStudyConfig(m_ladder=(0.2,), replicates=1, base=base,
                         scheme_pair="memory")


def test_frozen_dynamics_give_zero_gap():
    base = study_base(sigma=0.0, lam=0.0, t_end=0.1, n_particles=20)
    cfg = LimitStudyConfig(m_ladder=(0.5,), replicates=2, base=base)
    res = zero_inertia_study(cfg, ackley(1), seed=1)
    assert np.all(res.sup_gaps == 0.0)
    assert np.isnan(res.slope)


def test_gap_decreases_down_the_ladder():
    cfg = LimitStudyConfig(m_ladder=(0.2, 0.1, 0.05), replicates=3,
                           base=study_base())
    res = zero_inertia_study(cfg, ackley(1), seed=11)
    assert np.all(np.diff(res.gap_mean) < 0.0)
    assert res.slope > 0.0
    assert res.w2_mean.shape == (3, 51)
    assert np.all(res.kl_mean >= 0.0)


def test_study_is_deterministic_across_replicate_splits():
    cfg = LimitStudyConfig(m_ladder=(0.2, 0.05), replicates=4,
                           base=study_base(n_particles=100, t_end=0.2))
    obj = ackley(1)
    full = zero_inertia_study(cfg, obj, seed=5)
    head = zero_inertia_study(replace(cfg, replicates=2), obj, seed=5)
    assert np.array_equal(head.sup_gaps, full.sup_gaps[:, :2])
    repeat = zero_inertia_study(cfg, obj, seed=5)
    assert np.array_equal(full.sup_gaps, repeat.sup_gaps)
    assert np.array_equal(full.w2_mean, repeat.w2_mean)
    assert np.array_equal(full.kl_mean, repeat.kl_mean)


def test_memory_pair_degenerates_toward_plain_ordering():
    # lam1 = lam2 = lam/2, sigma1 = sigma2 = sigma/sqrt(2), nu = 0, Y0 = X0:
    # the memory pair shadows the plain pair and keeps the gap ordering
    lam, sigma = 1.0, 1 / np.sqrt(3)
    mem = MemoryParams(lam1=lam / 2, lam2=lam / 2, sigma1=sigma / np.sqrt(2),
                       sigma2=sigma / np.sqrt(2), nu=0.0, beta=30.0)
    base = study_base(memory=mem, n_particles=100, t_end=0.3)
    cfg = LimitStudyConfig(m_ladder=(0.2, 0.05), replicates=2, base=base,
                           scheme_pair="memory")
    res = zero_inertia_study(cfg, ackley(1), seed=3)
    assert res.w2_mean is None
    assert res.gap_mean[0] > res.gap_mean[1] > 0.0

    plain = zero_inertia_study(
        LimitStudyConfig(m_ladder=(0.2, 0.05), replicates=2,
                         base=study_base(n_particles=100, t_end=0.3)),
        ackley(1), seed=3)
    assert plain.gap_mean[0] > plain.gap_mean[1] > 0.0


def test_compare_distributions_frozen_dynamics_all_zero():
    p = study_base(sigma=0.0, lam=0.0, t_end=0.1, n_particles=50)
    table = compare_distributions(p, ackley(1), seed=2)
    assert np.all(table.w2 == 0.0)
    assert np.all(np.abs(table.kl) <= 1e-8)


def test_compare_distributions_snapshot_times():
    p = study_base(t_end=0.2, n_particles=50)
    table = compare_distributions(p, ackley(1), seed=2,
                                  snapshot_times=[0.0, 0.1, 0.2])
    assert table.times == pytest.approx([0.0, 0.1, 0.2], abs=1e-9)
    assert table.bins == 8
    with pytest.raises(ValueError, match="dim == 1"):
        compare_distributions(study_base(dim=2), ackley(2), seed=2)


def test_compare_distributions_gap_grows_with_inertia():
    obj = ackley(1)
    means = {}
    for m in (0.8, 0.001):
        p = study_base(m=m, n_particles=500, t_end=0.5)
        means[m] = compare_distributions(p, obj, seed=9).w2.mean()
    assert means[0.001] < means[0.8]


def test_compare_distributions_uniform_init_keeps_ordering():
    obj = ackley(1)
    means = {}
    for m in (0.8, 0.001):
        p = study_base(m=m, n_particles=500, t_end=0.5)
        table = compare_distributions(p, obj, seed=9,
                                      init=("uniform", -3.0, 3.0))
        means[m] = table.w2.mean()
    assert means[0.001] < means[0.8]


def test_optimize_constant_cost_keeps_consensus_at_mean():
    obj_const = Objective(name="const", dim=2, eval=lambda x: np.zeros(len(x)),
                          minimizer=np.zeros(2))
    p = study_base(dim=2, n_particles=100, t_end=0.1, sigma=0.0)
    x0 = initial_positions([4, 0], p.n_particles, p.dim)
    rec = run("cbo", p, obj_const, 4, x0)
    xs, _ = trajectory("cbo", p, obj_const, 4, 0, x0)
    for t in range(len(rec.times)):
        assert rec.consensus[t] == pytest.approx(xs[t].mean(axis=0), abs=1e-14)


def test_optimize_single_particle_never_moves():
    p = study_base(n_particles=1, sigma=0.9, lam=1.0, t_end=0.2)
    point, speed = optimize("cbo", p, ackley(1), seed=8)
    x0 = initial_positions([8, 0], 1, 1)
    assert point[0] == x0[0, 0]
    assert speed == 0.0


def test_optimize_reaches_minimum_on_sphere():
    p = study_base(m=0.1, n_particles=200, dim=2, t_end=4.0)
    point, speed = optimize("pso", p, sphere(2), seed=21)
    assert np.linalg.norm(point) < 0.3
    assert speed < 0.1


def test_laplace_sweep_identity_cloud_constant_column():
    pts = np.full((10, 1), 0.4)
    rows = laplace_sweep(pts, linear_cost(), (1.0, 10.0, 100.0))
    for _, value, gap in rows:
        assert value == 0.4
        assert gap == 0.0


def test_laplace_sweep_gap_nonincreasing():
    pts = initial_positions(3, 100, 1, ("uniform", -3.0, 3.0))
    rows = laplace_sweep(pts, ackley(1), (1.0, 10.0, 100.0, 1000.0))
    gaps = [gap for _, _, gap in rows]
    assert all(b <= a for a, b in zip(gaps, gaps[1:]))
    assert all(g >= 0.0 for g in gaps)


def test_laplace_sweep_evaluates_the_objective_once(monkeypatch):
    calls = []
    call = Objective.__call__

    def counted(self, x):
        calls.append(np.shape(x))
        return call(self, x)

    monkeypatch.setattr(Objective, "__call__", counted)
    pts = initial_positions(3, 100, 1, ("uniform", -3.0, 3.0))
    rows = laplace_sweep(pts, ackley(1), (1.0, 10.0, 100.0, 1000.0))
    assert calls == [(100, 1)]
    monkeypatch.setattr(Objective, "__call__", call)
    assert [value for _, value, _ in rows] == [
        laplace_value(costs_of(pts, ackley(1)), a) for a in (1.0, 10.0, 100.0, 1000.0)]


def test_laplace_sweep_validation():
    pts = np.zeros((2, 1))
    with pytest.raises(ValueError):
        laplace_sweep(pts, linear_cost(), (1.0, 0.5))
    with pytest.raises(ValueError):
        laplace_sweep(pts, linear_cost(), (-1.0, 2.0))


@pytest.mark.parametrize("alpha", [np.nan, np.inf])
def test_laplace_sweep_rejects_a_non_finite_alpha_as_an_input(alpha):
    # a bad input, not the numerical failure of a value that is not finite
    with pytest.raises(ValueError, match="alphas must be finite and positive") as excinfo:
        laplace_sweep(np.zeros((2, 1)), linear_cost(), (1.0, alpha))
    assert not isinstance(excinfo.value, experiments.NonFiniteValueError)


def test_laplace_sweep_rejects_a_value_that_is_not_finite():
    # a NaN cost poisons the value at every alpha: the first one is named
    pts = np.array([[0.0], [np.nan]])
    with pytest.raises(ValueError) as excinfo:
        laplace_sweep(pts, linear_cost(), (1.0, 10.0))
    assert str(excinfo.value) == "laplace value at alpha=1.0 is not finite, got nan"


def test_laplace_sweep_gives_points_of_infinite_cost_weight_zero():
    # far points that cost +inf drop out; the value is that of the rest
    far = Objective(name="far", dim=1, minimizer=np.zeros(1),
                    eval=lambda x: np.where(x[:, 0] > 1.0, np.inf, x[:, 0]))
    pts = np.array([[0.5], [0.5], [2.0]])
    rows = laplace_sweep(pts, far, (1.0, 10.0))
    for alpha, value, gap in rows:
        assert value == pytest.approx(0.5 + np.log(1.5) / alpha, rel=1e-12)
        assert np.isfinite(gap) and gap > 0.0


def counting_objective(obj):
    calls = []

    def evaluate(x):
        calls.append(len(x))
        return obj.eval(x)

    counted = Objective(name=obj.name, dim=obj.dim, eval=evaluate,
                        minimizer=obj.minimizer)
    return counted, calls


def study_from_run_pairs(cfg, obj, seed):
    """sup gaps and mean W2 / KL from pairs of solo-run trajectories."""
    base = cfg.base
    memory = cfg.scheme_pair == "memory"
    n_m, n_t = len(cfg.m_ladder), base.n_steps + 1
    sup = np.empty((n_m, cfg.replicates))
    w2 = np.zeros((n_m, n_t))
    kl = np.zeros((n_m, n_t))
    bins = default_bins(base.n_particles)
    for r in range(cfg.replicates):
        x0 = initial_positions([seed, r], base.n_particles, base.dim, cfg.init)
        ref_x, ref_y = trajectory("cbo_mem" if memory else "cbo", base, obj,
                                  seed, r, x0)
        for j, m in enumerate(cfg.m_ladder):
            xs, ys = trajectory("pso_mem" if memory else "pso",
                                replace(base, m=m), obj, seed, r, x0)
            gaps = []
            for t in range(n_t):
                g = paired_msq_gap(xs[t], ref_x[t])
                if memory:
                    g += paired_msq_gap(ys[t], ref_y[t])
                gaps.append(g)
                a, b = xs[t][:, 0], ref_x[t][:, 0]
                w2[j, t] += wasserstein2_1d(a, b)
                kl[j, t] += kl_histogram(a, b, bins)
            sup[j, r] = np.max(gaps)
    return sup, w2 / cfg.replicates, kl / cfg.replicates


@pytest.mark.parametrize("pair, dim", [("plain", 1), ("memory", 1),
                                       ("plain", 2), ("memory", 2)],
                         ids=["plain", "memory", "plain-dim2", "memory-dim2"])
def test_lockstep_study_matches_run_pairs_and_draws_each_block_once(
        pair, dim, drawn_blocks):
    memory = pair == "memory"
    mem = MemoryParams(lam1=1.0, lam2=1.0, sigma1=0.5, sigma2=0.5, nu=0.5,
                       beta=30.0) if memory else None
    base = study_base(n_particles=50, t_end=0.2, memory=mem,
                      lam=0.0 if memory else 1.0, dim=dim)
    cfg = LimitStudyConfig(m_ladder=(0.2, 0.1, 0.05), replicates=2, base=base,
                           scheme_pair=pair)
    obj, calls = counting_objective(ackley(dim))
    res = zero_inertia_study(cfg, obj, seed=13)
    draws = {key: len(drawn) for key, drawn in drawn_blocks.items()}

    sup, w2, kl = study_from_run_pairs(cfg, ackley(dim), seed=13)
    assert np.array_equal(res.sup_gaps, sup)
    if memory or dim > 1:
        assert res.w2_mean is None and res.kl_mean is None
    else:
        assert np.array_equal(res.w2_mean, w2)
        assert np.array_equal(res.kl_mean, kl)

    channels = 2 if memory else 1
    # one block per step and channel holds the rows of every replicate
    assert len(draws) == base.n_steps * channels
    assert set(draws.values()) == {1}
    assert {key[1] for key in draws} == {range(cfg.replicates)}
    # one objective call per time point for the consensus of both states,
    # the reference and the stack of rungs, stacked; the memory pair adds
    # one per step on the new positions of both, for the local-best update
    n_calls = base.n_steps + 1 + (base.n_steps if memory else 0)
    assert len(calls) == n_calls
    # each call takes every particle of both states on every replicate:
    # (K + 1) R N points, R N of the reference and K R N of the rungs
    assert set(calls) == {(len(cfg.m_ladder) + 1) * cfg.replicates
                          * base.n_particles}
    assert sum(calls) == cfg.replicates * n_calls * base.n_particles \
        * (1 + len(cfg.m_ladder))


def test_compare_ladder_matches_single_m_tables():
    p = study_base(t_end=0.2, n_particles=80)
    obj = ackley(1)
    tables = compare_ladder(p, obj, seed=6, m_values=(0.8, 0.1),
                            snapshot_times=[0.0, 0.1, 0.2])
    for table, m in zip(tables, (0.8, 0.1)):
        single = compare_distributions(replace(p, m=m), obj, seed=6,
                                       snapshot_times=[0.0, 0.1, 0.2])
        assert np.array_equal(table.times, single.times)
        assert np.array_equal(table.w2, single.w2)
        assert np.array_equal(table.kl, single.kl)


@pytest.mark.parametrize("init", [("gaussian", 0.0, 1.0), ("uniform", -2.0, 3.0)],
                         ids=["gaussian", "uniform"])
def test_one_replicate_study_and_compare_ladder_give_the_same_metrics(init):
    # both drivers couple the ladder against CBO on replicate 0 of the seed's
    # tape from the seed's replicate-0 cloud, so their per-step W2 / KL agree
    p = study_base(t_end=0.2, n_particles=80)
    ladder = (0.2, 0.1, 0.05)
    cfg = LimitStudyConfig(m_ladder=ladder, replicates=1, base=p, init=init)
    res = zero_inertia_study(cfg, ackley(1), seed=6)
    tables = compare_ladder(p, ackley(1), 6, ladder, init=init)
    for j, table in enumerate(tables):
        assert np.array_equal(res.w2_mean[j], table.w2)
        assert np.array_equal(res.kl_mean[j], table.kl)
    assert np.all(res.w2_mean[:, 1:] > 0.0)


@pytest.mark.parametrize("pair, dim", [("plain", 1), ("plain", 2),
                                       ("memory", 1)])
def test_a_study_and_a_compare_give_the_same_bits_without_an_inertia(pair,
                                                                     dim):
    # both take their inertias from their ladder, never from the base Params
    mem = MemoryParams(lam1=1.0, lam2=1.0, sigma1=0.5, sigma2=0.5, nu=0.5,
                       beta=30.0) if pair == "memory" else None
    p = study_base(t_end=0.1, n_particles=60, dim=dim, memory=mem)
    obj = ackley(dim)
    results = [zero_inertia_study(
        LimitStudyConfig(m_ladder=(0.2, 0.1), replicates=2, base=base,
                         scheme_pair=pair), obj, seed=8)
        for base in (replace(p, m=None), p)]
    for name in ("sup_gaps", "gap_mean", "slope", "intercept", "w2_mean",
                 "kl_mean"):
        got, want = (getattr(res, name) for res in results)
        if want is None:
            assert got is None
        else:
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    if (pair, dim) == ("plain", 1):
        tables = [compare_ladder(base, obj, 8, (0.8, 0.1), snapshot_times=[0.05])
                  for base in (replace(p, m=None), p)]
        for got, want in zip(*tables, strict=True):
            for name in ("times", "w2", "kl"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
            assert got.bins == want.bins


@pytest.mark.parametrize("scheme", ["pso", "pso_mem"])
def test_a_second_order_run_without_an_inertia_fails_before_any_draw(
        scheme, drawn_blocks):
    mem = MemoryParams(lam1=1.0, lam2=1.0, sigma1=0.5, sigma2=0.5, nu=0.5,
                       beta=30.0)
    p = study_base(m=None, t_end=0.05, n_particles=20, memory=mem)
    obj = ackley(1)
    calls = [lambda: run(scheme, p, obj, 3, initial_positions([3, 0], 20, 1)),
             lambda: optimize(scheme, p, obj, 3)]
    if scheme == "pso":
        calls.append(lambda: compare_distributions(p, obj, 3))
    for call in calls:
        with pytest.raises(ValueError) as excinfo:
            call()
        assert str(excinfo.value) == f"scheme {scheme!r} needs its inertia m"
    assert not drawn_blocks


def test_compare_ladder_rejects_an_empty_ladder():
    with pytest.raises(ValueError, match=r"nonempty 1-d sequence, got shape \(0,\)"):
        compare_ladder(study_base(n_particles=10, t_end=0.02), ackley(1), 0, [])


def test_compare_ladder_snapshot_tables_hold_the_every_step_columns():
    # t_end = 0.2 on dt = 0.01: times past either end clamp to steps 0 and 20,
    # and the repeated 0.1 is one snapshot
    p = study_base(t_end=0.2, dt=0.01, n_particles=80)
    ladder = (0.2, 0.1, 0.05)
    every = compare_ladder(p, ackley(1), 6, ladder)
    snaps = compare_ladder(p, ackley(1), 6, ladder,
                           snapshot_times=[0.2, 0.0, 0.1, 0.1, -5.0, 1e9])
    steps = [0, 10, 20]
    for snap, full in zip(snaps, every):
        assert len(full.times) == p.n_steps + 1
        assert np.array_equal(snap.times, full.times[steps])
        assert np.array_equal(snap.w2, full.w2[steps])
        assert np.array_equal(snap.kl, full.kl[steps])
        assert snap.bins == full.bins


def test_compare_ladder_rejects_a_non_finite_snapshot_time_before_any_draw(
        drawn_blocks):
    p = study_base(n_particles=10, t_end=0.02)
    with pytest.raises(ValueError, match="snapshot_times must be finite"):
        compare_ladder(p, ackley(1), 0, (0.2, 0.1), snapshot_times=[0.0, np.nan])
    # the snapshot times are checked before the ladder
    with pytest.raises(ValueError, match="snapshot_times must be finite"):
        compare_ladder(p, ackley(1), 0, [], snapshot_times=[0.0, np.nan])
    assert not drawn_blocks


def test_compare_ladder_rejects_a_float_ladder_before_any_draw(drawn_blocks):
    p = study_base(n_particles=10, t_end=0.02)
    for m_values, shape in ((0.2, r"\(\)"), ([[0.2, 0.1]], r"\(1, 2\)")):
        with pytest.raises(ValueError, match=r"^m_values must be a nonempty 1-d "
                           rf"sequence, got shape {shape}$"):
            compare_ladder(p, ackley(1), 0, m_values)
    assert not drawn_blocks


def test_study_config_checks_the_tape_of_all_its_replicates():
    # 2**40 particles times 2**20 steps is 2**60 indices per replicate, which
    # Params accepts; a study of 16 replicates fills the 64-bit index and 17
    # overflow it.  Nothing is allocated: the configs are only built.
    base = study_base(n_particles=2**40, dt=1.0, t_end=2.0**20)
    assert base.n_steps == 2**20
    LimitStudyConfig(m_ladder=(0.2,), replicates=16, base=base)
    with pytest.raises(ValueError, match=r"^noise tape layout replicates=17, "
                       r"particles=1099511627776, steps=1048576, dim=1, "
                       r"channels=1 has more than 2\*\*64 indices$"):
        LimitStudyConfig(m_ladder=(0.2,), replicates=17, base=base)
    # the memory pair draws two channels, so half as many replicates fit
    mem = MemoryParams(lam1=1.0, lam2=1.0, sigma1=0.5, sigma2=0.5, nu=0.5,
                       beta=30.0)
    base = replace(base, memory=mem)
    LimitStudyConfig(m_ladder=(0.2,), replicates=8, base=base, scheme_pair="memory")
    with pytest.raises(ValueError, match=r"replicates=9, .* channels=2 has more"):
        LimitStudyConfig(m_ladder=(0.2,), replicates=9, base=base,
                         scheme_pair="memory")


def test_compare_ladder_computes_no_paired_gap_and_the_study_one_per_step(
        monkeypatch):
    # every pass takes its gap from one paired_msq_gap call per time point on
    # the whole (K, R, N, d) stack, two for the memory pair, and compare
    # takes none; the plain d = 1 pass takes W2 / KL from one call of the
    # sorted-sample kernel per window of steps, which it sorts in place.  At
    # this size a window holds all 6 time points: (K, 6 R, N) against (6 R, N).
    p = study_base(t_end=0.05, n_particles=20)
    N = p.n_particles
    assert p.n_steps + 1 == 6
    gaps, windows = [], []

    def counted_gap(a, b):
        out = paired_msq_gap(a, b)
        gaps.append((a.shape, b.shape, out.shape))
        return out

    def counted_window(a, b, bins):
        windows.append((a.shape, b.shape))
        assert (np.diff(a) >= 0).all() and (np.diff(b) >= 0).all()
        return _w2_and_kl_sorted(a, b, bins)

    monkeypatch.setattr(experiments, "paired_msq_gap", counted_gap)
    monkeypatch.setattr(experiments, "_w2_and_kl_sorted", counted_window)
    tables = compare_ladder(p, ackley(1), 3, (0.2, 0.1))
    assert [len(t.times) for t in tables] == [p.n_steps + 1] * 2
    assert gaps == []
    assert windows == [((2, 6, N), (6, N))]

    windows.clear()
    cfg = LimitStudyConfig(m_ladder=(0.2, 0.1), replicates=2, base=p)
    zero_inertia_study(cfg, ackley(1), 3)
    assert gaps == [((2, 2, N, 1), (2, N, 1), (2, 2))] * 6
    assert windows == [((2, 12, N), (12, N))]

    # d >= 2 and the memory pair: the same per-step gap, and no window
    mem = MemoryParams(lam1=1.0, lam2=1.0, sigma1=0.5, sigma2=0.5, nu=0.5,
                       beta=30.0)
    for base, pair, calls in ((replace(p, dim=2), "plain", 1),
                              (replace(p, memory=mem, lam=0.0), "memory", 2)):
        gaps.clear()
        windows.clear()
        cfg = LimitStudyConfig(m_ladder=(0.2, 0.1), replicates=2, base=base,
                               scheme_pair=pair)
        zero_inertia_study(cfg, sphere(base.dim), 3)
        d = base.dim
        assert gaps == [((2, 2, N, d), (2, N, d), (2, 2))] * (6 * calls)
        assert windows == []


def _bits(a):
    """The bits of a float array, or ``None``, for exact comparison."""
    return None if a is None else np.asarray(a, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("replicates", [1, 3])
@pytest.mark.parametrize("gap", [True, False], ids=["study", "compare"])
def test_coupled_pass_window_length_changes_no_bit(monkeypatch, gap, replicates):
    # 11 time points, so windows of 2, 3 and 7 steps end in a partial window;
    # the one window budget counts a step's (R, N) rows, so a budget under
    # one row still gives windows of one step, and one over all steps' rows
    # one window of all 11
    p = study_base(n_particles=30, t_end=0.1)
    n_points = p.n_steps + 1
    assert n_points == 11
    ladder = (0.2, 0.1, 0.05)
    K, R, N = len(ladder), replicates, p.n_particles
    row_bytes = 8 * R * N
    calls = []

    def counted(a, b, bins):
        calls.append((a.shape, b.shape))
        return _w2_and_kl_sorted(a, b, bins)

    monkeypatch.setattr(experiments, "_w2_and_kl_sorted", counted)
    results = []
    for B, budget in ((1, 0), (1, 2 * row_bytes - 1), (2, 2 * row_bytes),
                      (3, 3 * row_bytes + 7), (7, 7 * row_bytes),
                      (n_points, 10**6)):
        monkeypatch.setattr(dynamics, "_WINDOW_BYTES", budget)
        calls.clear()
        res = _coupled_pass(p, ackley(1), 4, R, ("uniform", -2.0, 3.0), ladder,
                            gap=gap)
        sup_gap, w2, kl = res
        sizes = [B] * (n_points // B) + ([n_points % B] if n_points % B else [])
        assert len(calls) == -(-n_points // B)
        assert calls == [((K, b * R, N), (b * R, N)) for b in sizes]
        assert w2.shape == kl.shape == (K, n_points)
        assert (sup_gap is None) == (not gap)
        if gap:
            assert sup_gap.shape == (K, R)
        results.append(res)

    first = results[0]
    for res in results[1:]:
        for name, a, b in zip(("sup_gap", "w2", "kl"), res, first):
            assert np.array_equal(_bits(a), _bits(b)), name


@pytest.mark.parametrize("gap", [True, False], ids=["study", "compare"])
def test_a_pass_hands_the_w2_kl_kernel_only_finite_windows(monkeypatch, gap):
    # the kernel does not check its samples: lockstep tests every state
    # before it yields, so a pass that blows up stops at the step that made
    # a state non-finite, and the windows of one step before it are finite
    monkeypatch.setattr(dynamics, "_WINDOW_BYTES", 0)
    finite = []

    def checked(a, b, bins):
        finite.append(bool(np.isfinite(a).all() and np.isfinite(b).all()))
        return _w2_and_kl_sorted(a, b, bins)

    monkeypatch.setattr(experiments, "_w2_and_kl_sorted", checked)
    p = study_base(sigma=1e200, n_particles=20, t_end=0.1)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteStateError, match=r"^non-finite state "
                           r"after step \d+: x\[") as excinfo:
            _coupled_pass(p, ackley(1), 4, 2, ("uniform", -2.0, 3.0),
                          (0.2, 0.1), gap=gap)
    step = excinfo.value.step
    assert str(excinfo.value).startswith(f"non-finite state after step {step}:")
    # the initial clouds and those after steps 0, ..., step - 1
    assert step >= 1 and finite == [True] * (step + 1)


@pytest.mark.parametrize("pair", ["plain", "memory", "plain-dim2"])
def test_study_is_bit_identical_however_its_replicates_are_chunked(monkeypatch,
                                                                   pair):
    memory = pair == "memory"
    dim = 2 if pair == "plain-dim2" else 1
    mem = MemoryParams(lam1=1.0, lam2=1.0, sigma1=0.5, sigma2=0.5, nu=0.5,
                       beta=30.0) if memory else None
    base = study_base(n_particles=30, t_end=0.1, dim=dim, memory=mem,
                      lam=0.0 if memory else 1.0)
    R = 5
    cfg = LimitStudyConfig(m_ladder=(0.2, 0.1, 0.05), replicates=R, base=base,
                           scheme_pair="memory" if memory else "plain")
    # a chunk holds the most replicates whose positions fit the budget: the
    # reference's and 3 rungs' clouds of N d floats each
    per_replicate = 8 * base.n_particles * dim * 4
    passes = []

    def recorded(schemes, x0, p, obj, seed, r, m):
        passes.append(r)
        return lockstep(schemes, x0, p, obj, seed, r, m)

    monkeypatch.setattr(experiments, "lockstep", recorded)
    results = []
    for chunk, budget in ((1, 0), (1, 2 * per_replicate - 1),
                          (2, 2 * per_replicate), (R, R * per_replicate)):
        monkeypatch.setattr(experiments, "_CHUNK_BYTES", budget)
        passes.clear()
        results.append(zero_inertia_study(cfg, ackley(dim), 6))
        assert passes == [range(r, min(r + chunk, R)) for r in range(0, R, chunk)]

    first = results[0]
    assert first.sup_gaps.shape == (3, R)
    assert (first.w2_mean is None) == (memory or dim == 2)
    for res in results[1:]:
        for name in ("sup_gaps", "gap_mean", "slope", "intercept", "w2_mean",
                     "kl_mean"):
            assert np.array_equal(_bits(getattr(res, name)),
                                  _bits(getattr(first, name))), name


def test_study_memory_does_not_grow_with_its_replicates(monkeypatch):
    # a pass holds one chunk's states at a time and folds each window's
    # W2 / KL into the replicate means: with chunks of 25 replicates and a
    # window of one step, 4x the replicates raise the peak by < 1.5x
    base = study_base(n_particles=2, t_end=0.5)
    ladder = (0.2, 0.1, 0.05)
    # a replicate's 4 position clouds of N floats, as in the chunk test
    # above, and windows of one step
    monkeypatch.setattr(experiments, "_CHUNK_BYTES", 25 * 8 * 2 * 4)
    monkeypatch.setattr(dynamics, "_WINDOW_BYTES", 0)
    peaks = []
    for replicates in (100, 25, 100):
        cfg = LimitStudyConfig(m_ladder=ladder, replicates=replicates, base=base)
        tracemalloc.start()
        try:
            zero_inertia_study(cfg, ackley(1), 3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # the first study only warms up what any study allocates once, and the
    # interpreter's free lists of small objects, which tracemalloc counts
    # while they fill and which fill with the number of calls a study makes
    assert peaks[2] < 1.5 * peaks[1]


def test_a_pass_frees_each_chunks_states_before_the_next_chunk_allocates(
        monkeypatch):
    # the loop variables that unpack a chunk's path would keep its last
    # states alive while the next chunk draws its clouds and builds its own
    monkeypatch.setattr(experiments, "_CHUNK_BYTES", 0)
    states = []

    def recorded(*args):
        for item in lockstep(*args):
            states.extend(weakref.ref(s) for s in item[1])
            yield item

    def positions(*args):
        assert all(s() is None for s in states)
        return initial_positions(*args)

    monkeypatch.setattr(experiments, "lockstep", recorded)
    monkeypatch.setattr(experiments, "initial_positions", positions)
    cfg = LimitStudyConfig(m_ladder=(0.2, 0.1), replicates=3,
                           base=study_base(n_particles=10, t_end=0.03))
    zero_inertia_study(cfg, ackley(1), 3)
    assert len(states) == 3 * 2 * 4


# the K = 3 cases keep their ids without the rung count
@pytest.mark.parametrize("pair, dim, windows, K", [
    pytest.param(pair, dim, windows, K, id=name + ("" if K == 3 else f"-K{K}"))
    for K in (1, 3, 8)
    for name, pair, dim, windows in (
        ("plain", "plain", 1, False), ("memory", "memory", 1, False),
        ("plain-dim2", "plain", 2, False), ("memory-dim2", "memory", 2, False),
        ("plain-tape-window", "plain", 1, True))])
def test_chunked_study_peak_stays_within_the_chunk_budget(monkeypatch, pair,
                                                          dim, windows, K):
    # a chunk holds the most replicates whose K + 1 position clouds fit the
    # budget, here 5 of 25, and a step peaks within a count of every array
    # it holds, plus a one-off 32 KiB: the pass's per-time sums and gaps and
    # the Python and NumPy objects that do not grow with a chunk.  The count
    # is, per replicate, in clouds of N d floats: the states (the reference's
    # positions and the ladder's positions and velocities, each with local
    # bests for the memory pair), each channel's tape block, the ladder's
    # temporaries, four of the objective and for the memory pair three of
    # the update, and for the plain d = 1 pair a W2 / KL window of one step;
    # and 2 (1 + K) rows of N floats for the costs of each state's consensus
    # and of the next one.  Once per chunk it adds the windows of several
    # steps, in rows of the window budget: the tape window, a row per
    # channel plus one for the keys a draw hashes, and for the plain d = 1
    # pair the W2 / KL window's K + 1 rows, twice, for the difference array
    # of its reduction.  The cases without windows of several steps have
    # windows of one step; the one with them has the default window budget
    # and T = 0.2, 20 steps, so windows of 16 steps.
    # Rastrigin makes the most temporaries of the shipped objectives.
    memory = pair == "memory"
    metrics = dim == 1 and not memory
    N, chunk = 200, 5
    clouds = ((2 + 3 * K if memory else 1 + 2 * K) + (2 if memory else 1)
              + (7 * K if memory else 4 * K) + (K + 1 if metrics else 0))
    bound = chunk * 8 * N * (clouds * dim + 2 * (1 + K))
    if windows:
        rows = (3 if memory else 2) + (2 * (K + 1) if metrics else 0)
        bound += rows * dynamics._WINDOW_BYTES
    else:
        monkeypatch.setattr(dynamics, "_WINDOW_BYTES", 0)
    monkeypatch.setattr(experiments, "_CHUNK_BYTES",
                        chunk * 8 * N * dim * (K + 1))
    mem = MemoryParams(lam1=1.0, lam2=1.0, sigma1=0.5, sigma2=0.5, nu=0.5,
                       beta=30.0) if memory else None
    base = study_base(n_particles=N, t_end=0.2 if windows else 0.05, dim=dim,
                      memory=mem)
    cfg = LimitStudyConfig(m_ladder=tuple(0.2 / 2**k for k in range(K)),
                           replicates=25, base=base, scheme_pair=pair)
    chunks = []

    def recorded(schemes, x0, p, obj, seed, r, m):
        chunks.append(len(r))
        return lockstep(schemes, x0, p, obj, seed, r, m)

    monkeypatch.setattr(experiments, "lockstep", recorded)
    # the first study only warms up what any study allocates once
    zero_inertia_study(cfg, rastrigin(dim), 3)
    chunks.clear()
    tracemalloc.start()
    try:
        zero_inertia_study(cfg, rastrigin(dim), 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(chunks) >= 5 and sum(chunks) == cfg.replicates
    assert peak <= bound + 32 * 1024


@pytest.mark.parametrize("dim", [1, 2])
def test_study_gap_without_noise_at_alpha_0_is_the_exact_recursion(dim):
    # at alpha = 0 and sigma = 0 every particle's offsets from the cloud mean
    # follow a linear recursion (tests/certified.py), so replicate r's sup
    # gap is the largest factor of its rung times the population variance
    # of its initial cloud; the study computes it from the clouds in
    # floating point, which leaves rounding error only
    base = study_base(alpha=0.0, sigma=0.0, t_end=1.0, dim=dim)
    cfg = LimitStudyConfig(m_ladder=(0.2, 0.1, 0.05, 0.025, 0.0125),
                           replicates=3, base=base)
    res = zero_inertia_study(cfg, ackley(dim), seed=11)
    for r in range(cfg.replicates):
        x0 = initial_positions([11, r], base.n_particles, dim, cfg.init)
        variance = np.mean(np.sum((x0 - x0.mean(axis=0)) ** 2, axis=1))
        for k, m in enumerate(cfg.m_ladder):
            factors = alpha0_gap_factors(m, base.lam, base.dt, base.n_steps)
            assert res.sup_gaps[k, r] == pytest.approx(factors.max() * variance,
                                                       rel=1e-10, abs=0.0)
