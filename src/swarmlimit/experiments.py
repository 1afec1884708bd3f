"""Reproducible experiment drivers.

* ``zero_inertia_study``    couples the second-order scheme against the
  first-order one on a ladder of inertia values, with shared initial clouds
  and shared noise tapes, and fits the log-log rate of the sup-in-time paired
  mean-square gap.
* ``compare_ladder``        emits per-time W2 / KL between each PSO(m) cloud of
  an inertia ladder and the coupled CBO cloud; ``compare_distributions`` is
  its single-``m`` form.
* ``optimize``              runs one scheme to its horizon and reports the
  final consensus point and mean particle speed.
* ``laplace_sweep``         tabulates the exponential-average value against
  the sample minimum over a ladder of regularization strengths.

The coupled drivers make one ``dynamics.lockstep`` call per replicate over
two states: the ``(N, d)`` first-order reference and one ``(K, N, d)``
second-order stack with one slice per inertia value.  The reference does not
depend on ``m``, so it is computed once per replicate, and each noise-tape
block is drawn once per step and serves every slice.  A reducer called after
every step updates the running sup of the paired gap and the per-step W2 /
KL, so no snapshots are stored.  Each slice's arithmetic is elementwise that
of a solo run and every reduction stays within one slice, which keeps the
results bit-identical to pairs of ``run`` calls.

Results hold what callers read and nothing they passed in: a ``StudyResult``
row is the ladder point of the same index, and ``compare_ladder`` returns its
tables in the order of ``m_values``.  How a gap or an estimator is named in
the CSV metadata is up to the writer (``cli``).

All drivers are deterministic functions of their seeds.  A replicate's
result depends only on ``(seed, r)``, so the replicates of a study can be
split across calls without changing a bit; per-time averages are a fold over
``r = 0, ..., R-1`` in that order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .consensus import laplace_value
# ``run`` is not called here; the benchmark's tracer (perfbench/tracing.py)
# wraps it under this module's name
from .dynamics import Params, initial_state, lockstep, run  # noqa: F401
from .metrics import default_bins, kl_histogram, paired_msq_gap, wasserstein2_1d
from .noise import NoiseTape, initial_positions


@dataclass(frozen=True)
class LimitStudyConfig:
    """Ladder study setup: everything but the inertia value itself."""

    m_ladder: tuple[float, ...]
    base: Params
    replicates: int = 20
    scheme_pair: str = "plain"  # "plain" or "memory"
    init: tuple = ("gaussian", 0.0, 1.0)

    def __post_init__(self):
        ladder = tuple(float(m) for m in self.m_ladder)
        object.__setattr__(self, "m_ladder", ladder)
        if not ladder:
            raise ValueError("m_ladder must be nonempty")
        if any(not 0.0 < m <= 0.5 for m in ladder):
            raise ValueError(f"m_ladder values must lie in (0, 1/2], got {ladder}")
        if any(b >= a for a, b in zip(ladder, ladder[1:])) and len(ladder) > 1:
            raise ValueError(f"m_ladder must be strictly decreasing, got {ladder}")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if self.scheme_pair not in ("plain", "memory"):
            raise ValueError(f"scheme_pair must be plain or memory, got {self.scheme_pair!r}")
        if self.scheme_pair == "memory" and self.base.memory is None:
            raise ValueError("memory scheme pair needs base.memory params")


@dataclass
class StudyResult:
    """Per-ladder-point gaps, their aggregate, and the fitted rate.

    Row ``j`` of every array belongs to ``m_ladder[j]`` of the study config.
    A gap is the sup over time of the paired mean-square distance between the
    second- and first-order clouds: of the positions for the plain pair, of
    the positions plus that of the local bests for the memory pair.
    ``gap_mean`` averages it over replicates, and ``slope`` / ``intercept``
    fit ``ln gap_mean = intercept + slope ln m`` (NaN for a single point or a
    zero gap).  W2 / KL are per-time replicate means between the position
    clouds, kept only for the plain pair in one dimension.
    """

    sup_gaps: np.ndarray          # (n_m, replicates)
    gap_mean: np.ndarray          # (n_m,)
    slope: float
    intercept: float
    w2_mean: np.ndarray | None    # (n_m, n_steps + 1), d = 1 plain pair only
    kl_mean: np.ndarray | None


def zero_inertia_study(cfg: LimitStudyConfig, obj, seed: int) -> StudyResult:
    """Coupled ladder study of the sup-in-time paired mean-square gap.

    Each replicate is one ``lockstep`` call: the first-order reference (it
    does not depend on the inertia) and the second-order stack of the ladder
    start from the same initial cloud and consume the same tape blocks.
    The rate is the least-squares slope of ``ln(mean gap)`` against ``ln m``
    over all ladder points.
    """
    base = cfg.base
    memory = cfg.scheme_pair == "memory"
    second_order = "pso_mem" if memory else "pso"
    first_order = "cbo_mem" if memory else "cbo"
    n_steps = base.n_steps
    n_m = len(cfg.m_ladder)
    reps = cfg.replicates
    track_dist = base.dim == 1 and not memory
    bins = default_bins(base.n_particles) if track_dist else None

    tape = NoiseTape(seed, reps, base.n_particles, n_steps, base.dim,
                     channels=2 if memory else 1)

    sup_gaps = np.full((n_m, reps), -np.inf)
    w2 = np.zeros((n_m, n_steps + 1)) if track_dist else None
    kl = np.zeros((n_m, n_steps + 1)) if track_dist else None

    for r in range(reps):
        x0 = initial_positions([seed, r], base.n_particles, base.dim, cfg.init)
        states = [initial_state(first_order, x0),
                  initial_state(second_order, x0, cfg.m_ladder)]

        def reduce(n, states, _points):
            ref, ladder = states
            for j in range(n_m):
                g = paired_msq_gap(ladder.x[j], ref.x)
                if memory:
                    g += paired_msq_gap(ladder.y[j], ref.y)
                sup_gaps[j, r] = max(sup_gaps[j, r], g)
                if track_dist:
                    a = ladder.x[j, :, 0]
                    b = ref.x[:, 0]
                    w2[j, n] += wasserstein2_1d(a, b)
                    kl[j, n] += kl_histogram(a, b, bins)

        lockstep(states, base, obj, tape, r, observe=reduce)
    if track_dist:
        w2 /= reps
        kl /= reps

    gap_mean = sup_gaps.mean(axis=1)
    if n_m >= 2 and np.all(gap_mean > 0.0):
        log_m = np.log(np.asarray(cfg.m_ladder))
        slope, intercept = np.polyfit(log_m, np.log(gap_mean), 1)
    else:
        # degenerate ladders (single point or frozen dynamics) have no rate
        slope, intercept = np.nan, np.nan

    return StudyResult(sup_gaps=sup_gaps, gap_mean=gap_mean, slope=float(slope),
                       intercept=float(intercept), w2_mean=w2, kl_mean=kl)


@dataclass
class CompareTable:
    """Per-time W2 and KL between the coupled second- and first-order clouds.

    ``w2[k]`` and ``kl[k]`` compare the position clouds at ``times[k]``;
    ``bins`` is the histogram bin count of the KL estimate.
    """

    times: np.ndarray
    w2: np.ndarray
    kl: np.ndarray
    bins: int


def compare_ladder(p: Params, obj, seed: int, m_values, snapshot_times=None,
                   init: tuple = ("gaussian", 0.0, 1.0)) -> list[CompareTable]:
    """Couple PSO(m) for every ``m`` in ``m_values`` against one CBO run.

    PSO steps as one stack with a slice per ``m``, on CBO's tape and initial
    cloud; ``p`` supplies every constant but ``m``.  Returns one table per
    ``m``, in the order of ``m_values``, each bit-equal to
    ``compare_distributions`` at that ``m``.
    Requires ``dim == 1`` (the exact order-statistics W2).  ``snapshot_times``
    defaults to every step; values must be finite and are matched to the
    nearest step.
    """
    if p.dim != 1:
        raise ValueError(f"compare requires dim == 1, got dim = {p.dim}")
    for m in m_values:
        replace(p, m=m)  # each inertia passes the Params checks
    n_steps = p.n_steps
    tape = NoiseTape(seed, 1, p.n_particles, n_steps, p.dim, channels=1)
    x0 = initial_positions([seed, 0], p.n_particles, p.dim, init)

    if snapshot_times is None:
        steps = np.arange(n_steps + 1)
    else:
        for t in snapshot_times:
            if not np.isfinite(t):
                raise ValueError(f"snapshot_times must be finite, got {t}")
        steps = np.unique([
            min(n_steps, max(0, round(t / p.dt))) for t in snapshot_times
        ]).astype(int)
    slot = {int(n): k for k, n in enumerate(steps)}
    bins = default_bins(p.n_particles)

    times = np.empty(len(steps))
    w2 = np.empty((len(m_values), len(steps)))
    kl = np.empty((len(m_values), len(steps)))

    def reduce(n, states, _points):
        k = slot.get(n)
        if k is None:
            return
        ref, ladder = states
        times[k] = ladder.t
        for j, a in enumerate(ladder.x[:, :, 0]):
            w2[j, k] = wasserstein2_1d(a, ref.x[:, 0])
            kl[j, k] = kl_histogram(a, ref.x[:, 0], bins)

    states = [initial_state("cbo", x0), initial_state("pso", x0, m_values)]
    lockstep(states, p, obj, tape, 0, observe=reduce)
    return [CompareTable(times=times, w2=w2_m, kl=kl_m, bins=bins)
            for w2_m, kl_m in zip(w2, kl)]


def compare_distributions(p: Params, obj, seed: int, snapshot_times=None,
                          init: tuple = ("gaussian", 0.0, 1.0)) -> CompareTable:
    """Couple one PSO(m) run against CBO and compare clouds at snapshot times.

    Requires ``dim == 1`` (the exact order-statistics W2).  ``snapshot_times``
    defaults to every step; values are matched to the nearest step.
    """
    return compare_ladder(p, obj, seed, (p.m,), snapshot_times, init)[0]


def optimize(scheme: str, p: Params, obj, seed: int) -> tuple[np.ndarray, float]:
    """Run one scheme from a standard normal cloud to its horizon; return
    (final consensus, mean speed).

    Mean speed is the final state's ``mean_speed``, identically 0 for the
    first-order schemes.
    """
    tape = NoiseTape(seed, 1, p.n_particles, p.n_steps, p.dim,
                     channels=2 if scheme.endswith("_mem") else 1)
    x0 = initial_positions([seed, 0], p.n_particles, p.dim)
    (final,), (point,) = lockstep([initial_state(scheme, x0, p.m)], p, obj,
                                  tape, 0)
    return point, final.mean_speed


def laplace_sweep(points, obj, alphas) -> list[tuple[float, float, float]]:
    """Rows (alpha, exponential-average value, gap to the sample minimum)."""
    alphas = [float(a) for a in alphas]
    if any(a <= 0 for a in alphas):
        raise ValueError("alphas must be positive")
    if any(b <= a for a, b in zip(alphas, alphas[1:])):
        raise ValueError("alphas must be increasing")
    pts = np.asarray(points, dtype=np.float64)
    costs = np.asarray(obj(pts), dtype=np.float64)
    low = float(costs.min())
    rows = []
    for a in alphas:
        value = laplace_value(pts, obj, a)
        rows.append((a, value, value - low))
    return rows
