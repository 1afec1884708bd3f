"""Acceptance suite: one test per criterion, printed as PASS/FAIL lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Tolerances are fixed here, not tuned at runtime.
"""

import time
from dataclasses import replace

import numpy as np
from mpmath import mp

from swarmlimit import (
    LimitStudyConfig,
    MemoryParams,
    NoiseTape,
    Params,
    SwarmState,
    ackley,
    compare_distributions,
    consensus_point,
    costs_of,
    initial_positions,
    laplace_sweep,
    optimize,
    paired_msq_gap,
    run,
    wasserstein2_1d,
    zero_inertia_study,
)

from certified import c_alpha, upper_bound
from conftest import blocks, linear_cost, step_once, trajectory
from test_dynamics import FOURTH_MOMENT_CAP

SIGMA = 1.0 / np.sqrt(3.0)
ALPHA = 30.0
DT = 0.01


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{criterion} failed: {detail}"


def test_criterion_1_zero_inertia_rate():
    started = time.time()
    base = Params(m=0.2, lam=1.0, sigma=SIGMA, alpha=ALPHA, dt=DT, t_end=1.0,
                  n_particles=1000, dim=1)
    cfg = LimitStudyConfig(m_ladder=(0.2, 0.1, 0.05, 0.025, 0.0125),
                           replicates=20, base=base)
    res = zero_inertia_study(cfg, ackley(1), seed=20_240_101)
    decreasing = bool(np.all(np.diff(res.gap_mean) < 0.0))
    report(
        "1 zero-inertia rate",
        decreasing and res.slope >= 0.7,
        f"G(m)={np.array2string(res.gap_mean, precision=3)} "
        f"slope={res.slope:.3f} (need >= 0.7), {time.time() - started:.1f}s",
    )


def test_criterion_2_distributional_convergence():
    started = time.time()
    obj = ackley(1)
    mean_w2 = {}
    mean_kl = {}
    for m in (0.8, 0.1, 0.001):
        p = Params(m=m, lam=1.0, sigma=SIGMA, alpha=ALPHA, dt=DT, t_end=1.0,
                   n_particles=10_000, dim=1)
        table = compare_distributions(p, obj, seed=7_070)
        mean_w2[m] = table.w2.mean()
        mean_kl[m] = table.kl.mean()
    ratio_ok = mean_w2[0.001] <= mean_w2[0.8] / 5.0
    w2_monotone = mean_w2[0.8] >= mean_w2[0.1] >= mean_w2[0.001]
    kl_monotone = mean_kl[0.8] >= mean_kl[0.1] >= mean_kl[0.001]
    report(
        "2 distributional convergence",
        ratio_ok and w2_monotone and kl_monotone,
        f"mean W2: {mean_w2[0.8]:.4g} / {mean_w2[0.1]:.4g} / {mean_w2[0.001]:.4g}, "
        f"mean KL: {mean_kl[0.8]:.4g} / {mean_kl[0.1]:.4g} / {mean_kl[0.001]:.4g}, "
        f"{time.time() - started:.1f}s",
    )


def test_criterion_3_optimization_success():
    started = time.time()
    obj = ackley(2)
    p = Params(m=0.1, lam=1.0, sigma=SIGMA, alpha=ALPHA, dt=DT, t_end=5.0,
               n_particles=1000, dim=2)
    successes = 0
    for seed in range(20):
        point, speed = optimize("pso", p, obj, seed=9_000 + seed)
        if np.linalg.norm(point - obj.minimizer) <= 0.5 and speed <= 0.1:
            successes += 1
    report(
        "3 optimization success",
        successes >= 16,
        f"{successes}/20 seeds within tolerance, {time.time() - started:.1f}s",
    )


def test_criterion_4_laplace_principle():
    started = time.time()
    points = initial_positions(4_040, 100, 1, ("uniform", -3.0, 3.0))
    rows = laplace_sweep(points, ackley(1), (1.0, 10.0, 100.0, 1000.0))
    gaps = [gap for _, _, gap in rows]
    monotone = all(b <= a for a, b in zip(gaps, gaps[1:]))
    report(
        "4 laplace principle",
        monotone and gaps[-1] <= 1e-2,
        f"gaps={['%.4g' % g for g in gaps]} (last <= 1e-2), "
        f"{time.time() - started:.2f}s",
    )


def test_criterion_5_invariant_suites():
    started = time.time()
    obj = ackley(2)
    rng = np.random.default_rng(55_055)
    failures = []

    # consensus: convex hull, shift stability, argmin attraction
    for _ in range(100):
        pts = rng.uniform(-3, 3, (rng.integers(2, 40), 2))
        out = consensus_point(pts, costs_of(pts, obj), 30.0)
        if not (np.all(out >= pts.min(axis=0)) and np.all(out <= pts.max(axis=0))):
            failures.append("convex hull")
            break
    pts = rng.uniform(-3, 3, (50, 2))
    costs = costs_of(pts, obj)
    dyadic = np.floor(costs * 8) / 8.0
    base = consensus_point(pts, dyadic, ALPHA)
    shifted = consensus_point(pts, dyadic + 2.0, ALPHA)
    if not np.array_equal(base, shifted):
        failures.append("shift stability")
    best = pts[np.argmin(costs)]
    dists = [np.linalg.norm(consensus_point(pts, costs, a) - best)
             for a in (1.0, 10.0, 100.0, 1000.0)]
    if not all(b <= a + 1e-12 for a, b in zip(dists, dists[1:])):
        failures.append("argmin attraction")

    # empirical Jensen bound on 1e3 random measures inside the test box
    gap = upper_bound(obj)  # the minimum is 0
    for _ in range(1000):
        pts = rng.uniform(-3, 3, (rng.integers(2, 25), 2))
        m4 = np.mean(np.sum(pts * pts, axis=1) ** 2)
        costs = costs_of(pts, obj)
        for alpha in (0.0, 1.0):
            xa = consensus_point(pts, costs, alpha)
            lhs = np.mean(np.sum((xa - pts) ** 2, axis=1) ** 2)
            if lhs > 16.0 * c_alpha(gap, alpha) * m4:
                failures.append("jensen bound")
                break

    # W2 metric axioms at 1e-12 and the coupling lower bound
    for _ in range(200):
        n = rng.integers(1, 40)
        a, b, c = rng.standard_normal((3, n))
        if abs(wasserstein2_1d(a, b) - wasserstein2_1d(b, a)) > 1e-12 \
                or wasserstein2_1d(a, a) > 1e-12 \
                or wasserstein2_1d(a, b) > wasserstein2_1d(a, c) \
                + wasserstein2_1d(c, b) + 1e-12:
            failures.append("w2 axioms")
            break

    p = Params(m=0.1, lam=1.0, sigma=SIGMA, alpha=ALPHA, dt=DT, t_end=0.5,
               n_particles=300, dim=1)
    x0 = initial_positions([5_550, 0], 300, 1)
    obj1 = ackley(1)
    pso_xs, _ = trajectory("pso", p, obj1, 5_550, 0, x0)
    cbo_xs, _ = trajectory("cbo", p, obj1, 5_550, 0, x0)
    for a, b in zip(pso_xs, cbo_xs):
        if wasserstein2_1d(a, b) ** 2 > paired_msq_gap(a, b) + 1e-15:
            failures.append("w2 <= paired gap")
            break

    # fourth-moment cap across the inertia ladder
    for m in (0.8, 0.1, 0.001):
        pm = Params(m=m, lam=1.0, sigma=SIGMA, alpha=ALPHA, dt=DT, t_end=1.0,
                    n_particles=1000, dim=1)
        rec = run("pso", pm, obj1, 2024, initial_positions([2024, 0], 1000, 1))
        if rec.moments["x"][:, 1].max() >= FOURTH_MOMENT_CAP:
            failures.append("fourth-moment cap")
            break

    # bit determinism across replicate splits and repeats
    cfg = LimitStudyConfig(
        m_ladder=(0.2, 0.05), replicates=4,
        base=Params(m=0.2, lam=1.0, sigma=SIGMA, alpha=ALPHA, dt=DT,
                    t_end=0.2, n_particles=100, dim=1))
    full = zero_inertia_study(cfg, obj1, seed=777)
    head = zero_inertia_study(replace(cfg, replicates=2), obj1, seed=777)
    repeat = zero_inertia_study(cfg, obj1, seed=777)
    if not (np.array_equal(head.sup_gaps, full.sup_gaps[:, :2])
            and np.array_equal(full.sup_gaps, repeat.sup_gaps)
            and np.array_equal(full.w2_mean, repeat.w2_mean)):
        failures.append("replicate-split determinism")

    report(
        "5 invariant suites",
        not failures,
        (f"violations: {failures}" if failures else "all invariants hold")
        + f", {time.time() - started:.1f}s",
    )


def test_criterion_6_scheme_oracles():
    mp.dps = 50
    obj = linear_cost()
    worst = 0.0

    # semi-implicit two-particle step, sigma = 0
    p = Params(m=0.5, lam=1.0, sigma=0.0, alpha=0.0, dt=0.01, t_end=1.0,
               n_particles=2, dim=1)
    tape = NoiseTape(0, 1, 2, p.n_steps, 1, channels=2)
    state = SwarmState(x=np.array([[0.0], [1.0]]), v=np.zeros((2, 1)),
                       m=p.m)
    out = step_once(state, p, obj, blocks(tape, 0))
    den = mp.mpf("0.5") + mp.mpf("0.5") * mp.mpf("0.01")
    for i, x in enumerate((mp.mpf(0), mp.mpf(1))):
        v_exp = mp.mpf("0.01") / den * (mp.mpf("0.5") - x)
        x_exp = x + mp.mpf("0.01") * v_exp
        worst = max(worst, abs(out.v[i, 0] - float(v_exp)) / abs(float(v_exp)))
        worst = max(worst, abs(out.x[i, 0] - float(x_exp)) / abs(float(x_exp)))

    # Euler-Maruyama two-particle step, sigma = 0
    state = SwarmState(x=np.array([[0.0], [1.0]]))
    out = step_once(state, p, obj, blocks(tape, 0))
    for i, x in enumerate((mp.mpf(0), mp.mpf(1))):
        x_exp = x + mp.mpf("0.01") * (mp.mpf("0.5") - x)
        worst = max(worst, abs(out.x[i, 0] - float(x_exp)) / abs(float(x_exp)))

    # first-order memory step with the tanh cost-gap weight
    pm = Params(m=0.5, lam=0.0, sigma=0.0, alpha=0.0, dt=0.01, t_end=1.0,
                n_particles=1, dim=1,
                memory=MemoryParams(lam1=1.0, lam2=0.0, sigma1=0.0,
                                    sigma2=0.0, nu=0.5, beta=30.0))
    tape = NoiseTape(0, 1, 1, pm.n_steps, 1, channels=2)
    state = SwarmState(x=np.array([[0.0]]), y=np.array([[1.0]]))
    out = step_once(state, pm, obj, blocks(tape, 0))
    assert out.x.shape == out.y.shape == (1, 1)
    x_exp = mp.mpf("0.01")
    y_exp = 1 + mp.mpf("0.005") * (x_exp - 1) * mp.tanh(30 * (x_exp - 1))
    worst = max(worst, abs(out.x[0, 0] - float(x_exp)) / abs(float(x_exp)))
    worst = max(worst, abs(out.y[0, 0] - float(y_exp)) / abs(float(y_exp)))

    report("6 scheme oracles", worst <= 1e-12,
           f"max relative error {worst:.2e} (need <= 1e-12)")


def test_criterion_7_memory_variant_limit():
    started = time.time()
    mem = MemoryParams(lam1=1.0, lam2=1.0, sigma1=SIGMA, sigma2=SIGMA,
                       nu=0.5, beta=30.0)
    base = Params(m=0.2, lam=0.0, sigma=0.0, alpha=ALPHA, dt=DT, t_end=1.0,
                  n_particles=1000, dim=1, memory=mem)
    cfg = LimitStudyConfig(m_ladder=(0.2, 0.1, 0.05, 0.025, 0.0125),
                           replicates=20, base=base, scheme_pair="memory")
    res = zero_inertia_study(cfg, ackley(1), seed=37_373)
    decreasing = bool(np.all(np.diff(res.gap_mean) < 0.0))
    report(
        "7 memory-variant limit",
        decreasing and res.slope >= 0.7,
        f"joint G(m)={np.array2string(res.gap_mean, precision=3)} "
        f"slope={res.slope:.3f} (need >= 0.7), {time.time() - started:.1f}s",
    )
