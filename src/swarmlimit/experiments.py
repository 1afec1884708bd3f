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

Both coupled drivers make one pass, ``_coupled_pass``, over all their
replicates: one ``dynamics.lockstep`` run on R replicates of the seed's noise
tape (``lockstep`` builds one tape for them) over two states, the
``(R, N, d)`` first-order reference and one rung-major ``(K, R, N, d)``
second-order stack with one rung per inertia value, replicate ``r`` starting
from cloud ``[seed, r]``.  The reference does not depend on ``m``, so it is
computed once per replicate, and each step draws one ``(R, N, d)`` tape block
per channel that serves every rung.  The pass reads the path ``lockstep``
yields in a ``for`` loop whose body updates the ``(K, R)`` running sup of the
paired gap and, for the plain pair in one dimension, the per-step W2 / KL,
with one call per metric over the whole stack, so no snapshots are stored.
The study makes the pass over ``range(R)``; ``compare_ladder`` makes it over
``range(1)`` and selects its snapshot steps from the per-step columns.  Each
slice's arithmetic is elementwise that of a solo run and every reduction, the
metrics' included, stays within one slice, which keeps the results
bit-identical to pairs of ``run`` calls.

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

from dataclasses import dataclass

import numpy as np

from .consensus import costs_of, laplace_value
# ``run`` is not called here; the benchmark's tracer (perfbench/tracing.py)
# wraps it under this module's name
from .dynamics import Params, _check_count, initial_state, lockstep, run  # noqa: F401
from .metrics import default_bins, kl_histogram, paired_msq_gap, wasserstein2_1d
from .noise import NoiseTape, initial_positions


@dataclass(frozen=True)
class LimitStudyConfig:
    """Ladder study setup: everything but the inertia value itself.

    The study's one tape, with ``replicates`` replicates and the channels of
    its pair, is built here as ``Params`` builds the one-replicate tape, so a
    layout past the tape's 64-bit index fails with the tape's message before
    anything runs.
    """

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
        if any(b >= a for a, b in zip(ladder, ladder[1:])):
            raise ValueError(f"m_ladder must be strictly decreasing, got {ladder}")
        _check_count("replicates", self.replicates)
        if self.scheme_pair not in ("plain", "memory"):
            raise ValueError(f"scheme_pair must be plain or memory, got {self.scheme_pair!r}")
        if self.scheme_pair == "memory" and self.base.memory is None:
            raise ValueError("memory scheme pair needs base.memory params")
        base = self.base
        NoiseTape(0, self.replicates, base.n_particles, base.n_steps, base.dim,
                  2 if self.scheme_pair == "memory" else 1)


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


def _coupled_pass(p: Params, obj, seed: int, reps: range | tuple, init, m_values,
                  memory: bool = False):
    """The coupled replicates ``reps``: the first-order reference and the
    second-order stack of ``m_values`` (with local bests if ``memory``), row
    ``j`` from cloud ``[seed, reps[j]]`` on replicate ``reps[j]`` of the
    seed's tape.

    Returns ``(times, sup_gap, w2, kl)``: the time of every step, the
    ``(K, R)`` sup over time of each rung's and replicate's paired
    mean-square gap (positions, plus local bests for the memory pair), and
    the ``(K, R, n_steps + 1)`` W2 / KL of each against its reference
    position cloud at every step, ``None`` unless the pair is plain and
    ``p.dim == 1``.
    """
    x0 = np.stack([initial_positions([seed, r], p.n_particles, p.dim, init)
                   for r in reps])
    states = [initial_state("cbo_mem" if memory else "cbo", x0),
              initial_state("pso_mem" if memory else "pso", x0, m_values)]
    times = np.empty(p.n_steps + 1)
    sup_gap = -np.inf
    w2 = kl = None
    if p.dim == 1 and not memory:
        w2, kl = np.empty((2, len(m_values), len(reps), p.n_steps + 1))
        bins = default_bins(p.n_particles)

    for n, (ref, ladder), _ in lockstep(states, p, obj, seed, reps):
        times[n] = ladder.t
        g = paired_msq_gap(ladder.x, ref.x)
        if memory:
            g += paired_msq_gap(ladder.y, ref.y)
        # Python's max: keep the running sup unless g is strictly larger
        sup_gap = np.where(g > sup_gap, g, sup_gap)
        if w2 is not None:
            w2[..., n] = wasserstein2_1d(ladder.x, ref.x)
            kl[..., n] = kl_histogram(ladder.x, ref.x, bins)
        # while the next step is computed, only the generator holds this one
        del ref, ladder
    return times, sup_gap, w2, kl


def _replicate_mean(per_replicate: np.ndarray) -> np.ndarray:
    """Mean over axis 1 of a ``(K, R, T)`` array as a fold over ``r = 0, ...,
    R - 1`` in that order, whose bits do not depend on how NumPy sums.

    The fold starts from replicate 0, bit-equal to one from zeros because
    neither metric returns -0.0.
    """
    mean = per_replicate[:, 0].copy()
    for r in range(1, per_replicate.shape[1]):
        mean += per_replicate[:, r]
    mean /= per_replicate.shape[1]
    return mean


def zero_inertia_study(cfg: LimitStudyConfig, obj, seed: int) -> StudyResult:
    """Coupled ladder study of the sup-in-time paired mean-square gap.

    All replicates are one coupled pass: on each, the first-order reference
    (it does not depend on the inertia) and the second-order stack of the
    ladder start from the same initial cloud and consume the same tape
    blocks.  The rate is the least-squares slope of ``ln(mean gap)`` against
    ``ln m`` over all ladder points.
    """
    _, sup_gaps, w2, kl = _coupled_pass(cfg.base, obj, seed, range(cfg.replicates),
                                        cfg.init, cfg.m_ladder,
                                        cfg.scheme_pair == "memory")
    if w2 is not None:
        w2, kl = _replicate_mean(w2), _replicate_mean(kl)

    gap_mean = sup_gaps.mean(axis=1)
    if len(gap_mean) >= 2 and np.all(gap_mean > 0.0):
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
    defaults to every step; values must be finite, which is checked before
    any stepping, and are matched to the nearest step, a time past either end
    to the first or last step.  W2 / KL are computed at every step of the
    coupled pass on replicate 0, and each table holds the snapshot steps'
    columns.  ``m_values`` must be a nonempty 1-d sequence, which is checked,
    after the snapshot times, before any stepping.
    """
    if p.dim != 1:
        raise ValueError(f"compare requires dim == 1, got dim = {p.dim}")
    if snapshot_times is None:
        steps = np.arange(p.n_steps + 1)
    else:
        for t in snapshot_times:
            if not np.isfinite(t):
                raise ValueError(f"snapshot_times must be finite, got {t}")
        steps = np.unique([
            round(min(p.n_steps, max(0.0, t / p.dt))) for t in snapshot_times
        ]).astype(int)
    if np.ndim(m_values) != 1 or len(m_values) == 0:
        raise ValueError("m_values must be a nonempty 1-d sequence, got shape "
                         f"{np.shape(m_values)}")

    times, _, w2, kl = _coupled_pass(p, obj, seed, range(1), init, m_values)
    bins = default_bins(p.n_particles)
    return [CompareTable(times=times[steps], w2=w2_m[0, steps], kl=kl_m[0, steps],
                         bins=bins)
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
    x0 = initial_positions([seed, 0], p.n_particles, p.dim)
    for _, (final,), (point,) in lockstep([initial_state(scheme, x0, p.m)],
                                          p, obj, seed, 0):
        pass
    return point, final.mean_speed


def laplace_sweep(points, obj, alphas) -> list[tuple[float, float, float]]:
    """Rows (alpha, exponential-average value, gap to the sample minimum).

    A value that is not finite (NaN costs, or every cost infinite) is an
    error naming its ``alpha``; points that cost ``+inf`` only get weight 0.
    """
    alphas = [float(a) for a in alphas]
    if any(a <= 0 for a in alphas):
        raise ValueError("alphas must be positive")
    if any(b <= a for a, b in zip(alphas, alphas[1:])):
        raise ValueError("alphas must be increasing")
    pts = np.asarray(points, dtype=np.float64)
    costs = costs_of(pts, obj)
    low = float(costs.min())
    rows = []
    for a in alphas:
        value = laplace_value(costs, a)
        if not np.isfinite(value):
            raise ValueError(f"laplace value at alpha={a} is not finite, "
                             f"got {value}")
        rows.append((a, value, value - low))
    return rows
