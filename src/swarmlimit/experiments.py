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

Both coupled drivers make one coupled pass, ``_coupled_pass``, over all
their replicates ``0, ..., R - 1``.  The pass runs them in consecutive
chunks, each one ``dynamics.lockstep`` run on its R_c replicates of the
seed's noise tape over two schemes, the ``(R_c, N, d)`` first-order
reference and one rung-major ``(K, R_c, N, d)`` second-order stack with one
rung per inertia value.  A chunk has the most replicates whose K + 1
position clouds, the reference's and every rung's, fit ``_CHUNK_BYTES``
(5 MiB), and at least one; a step holds less than 12 times as much, plus
its windows of steps, whatever the pair, dimension and objective.  A
chunk's states and window are freed before the next chunk allocates its
own.  ``lockstep`` starts both schemes at rest from one stack of initial
clouds, replicate ``r`` from cloud ``[seed, r]``, and builds one tape for
them, so the pair is coupled in its initial data and its noise by
construction.  A state carries its arrays and inertia but no time: item
``n`` of the path is at ``p.times[n]``, and ``compare_ladder``'s tables
take their times from there.  The reference does not depend on ``m``, so
it is computed once per replicate, and each step's ``(R_c, N, d)`` tape
block per channel, drawn with those of the steps around it in a window of
steps, serves every rung.  ``lockstep`` holds the reference's and the
rungs' clouds in one stack, so one objective call and one consensus call
per time point serve the whole coupling, and the memory pair adds one
objective call per step on the new positions of both states.  The pass
reads the path ``lockstep`` yields in a ``for`` loop whose body makes two
reductions over the whole stack.

Every step, for every pair and dimension, one ``paired_msq_gap`` call (two
for the memory pair, which adds the local bests' gap) updates the chunk's
columns of the ``(K, R)`` running sup of the paired gap.  For the plain pair
in one dimension the pass also copies the positions of consecutive steps
into a window, sorts the window in place along the particle axis, and one
call of the sorted-sample kernel ``_w2_and_kl_sorted`` gives the W2 and KL
of every step in the window, binning each reference row once for all K
rungs: the window is its own sort buffer, so no cloud is copied twice.  Its
length is the one window rule's, ``dynamics._window_steps``, as for
``lockstep``'s tape draws: the most steps whose ``(R_c, N)`` rows fit
128 KiB, at least one and at most all ``n_steps + 1``, and a step holds
K + 1 such rows.  Each kernel call has a fixed cost, its NumPy calls on
small arrays, which a window pays once for all its steps: the benchmark's
``ladder-plain`` study (R = 2, N = 1000, 101 time points) holds 8 steps a
window and makes 13 calls, where windows of one step would make 101;
criterion 1's study (R = 20) and ``compare`` at N = 10^4 run with windows of
one step.  Each window's W2 / KL are added into per-time sums replicate by
replicate, in the order ``r = 0, ..., R - 1``, and divided by R once, so the
pass keeps no per-replicate W2 / KL and its memory grows with R only by the
gaps.  ``lockstep`` advances the two states in place, so a chunk holds one
set of arrays per state and no positions but the window's.
``compare_ladder`` makes the pass with R = 1, computes no gap, and selects
its snapshot steps from the per-step means, which for one replicate are the
values themselves: ``0 + v = v`` and ``v / 1 = v``, as neither metric
returns -0.0.  Each slice's arithmetic is elementwise that of a solo run and
every reduction, the metrics' included, stays within one slice, which keeps
the results bit-identical to pairs of ``run`` calls, whatever the window and
the chunks.

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

from . import dynamics
from .consensus import costs_of, laplace_value
# ``run``, ``wasserstein2_1d`` and ``kl_histogram`` are not called here; the
# benchmark's tracer (perfbench/tracing.py) wraps them under this module's name
from .dynamics import Params, lockstep, run  # noqa: F401
from .metrics import (  # noqa: F401
    _w2_and_kl_sorted,
    default_bins,
    kl_histogram,
    paired_msq_gap,
    wasserstein2_1d,
)
from .noise import NoiseTape, _check_count, initial_positions

# the most bytes of positions one chunk of a coupled pass's replicates holds:
# the reference's and every rung's (R_c, N, d) clouds.  A step peaks below 12
# times its chunk's positions, plus its windows of several steps, for every
# pair, dimension and shipped objective, so a study of the default ladder
# peaks under 64 MiB
_CHUNK_BYTES = 5 * 1024 * 1024


class NonFiniteValueError(ValueError):
    """A value computed from the inputs is not finite: a numerical failure,
    not a bad argument, though a ``ValueError`` like the rejected inputs."""


@dataclass(frozen=True)
class LimitStudyConfig:
    """Ladder study setup: everything but the inertia value itself.

    The inertias are ``m_ladder``'s, so ``base`` needs no ``m``, and the
    study reads none it has.  The study's one tape, with ``replicates``
    replicates and the channels of its pair, is built here as ``Params``
    builds the one-replicate tape, so a layout past the tape's 64-bit index
    fails with the tape's message before anything runs.
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


def _coupled_pass(p: Params, obj, seed: int, R: int, init, m_values,
                  memory: bool = False, gap: bool = True):
    """The coupled replicates ``0, ..., R - 1``: the first-order reference
    and the second-order stack of ``m_values`` (with local bests if
    ``memory``), replicate ``r`` from cloud ``[seed, r]`` on replicate ``r``
    of the seed's tape.

    Returns ``(sup_gap, w2, kl)``: ``sup_gap``, the ``(K, R)`` sup over
    time of each rung's and replicate's paired mean-square gap (positions,
    plus local bests for the memory pair), ``None`` unless ``gap``; and
    ``w2`` / ``kl``, the ``(K, n_steps + 1)`` replicate means of the W2 / KL
    of each rung against its reference position cloud at every step, column
    ``n`` at time ``p.times[n]``, ``None`` unless the pair is plain and
    ``p.dim == 1``.

    The replicates run in consecutive chunks, one ``lockstep`` run each, of
    the most replicates whose K + 1 ``(R_c, N, d)`` position clouds fit
    ``_CHUNK_BYTES``, and at least one.  The gap of every step is one
    ``paired_msq_gap`` call on the ``(K, R_c, N, d)`` stack against the
    ``(R_c, N, d)`` reference, plus one on the local bests for the memory
    pair, folded into the sup in step order.  For the plain pair in one
    dimension the positions of B consecutive steps are copied into a window,
    B from the one window rule on the chunk's ``(R_c, N)`` rows,
    ``dynamics._window_steps``, as W is for ``lockstep``'s tape draws.
    They are sorted there in place, and one ``_w2_and_kl_sorted`` call
    reduces the whole window: the ``(B, R_c, N)`` reference window as
    ``B * R_c`` samples and the ``(K, B, R_c, N)`` ladder window as K stacks
    of them.  The last window may be partial.  Each window's values are
    added into per-time sums replicate by replicate, so the means are a fold
    over ``r = 0, ..., R - 1`` in that order, divided by R once.
    """
    K, N, d = len(m_values), p.n_particles, p.dim
    metrics = d == 1 and not memory
    chunk = max(1, _CHUNK_BYTES // (8 * N * d * (K + 1)))
    sup_gap = np.full((K, R), -np.inf) if gap else None
    sums = np.zeros((2, K, p.n_steps + 1)) if metrics else None
    schemes = ("cbo_mem", "pso_mem") if memory else ("cbo", "pso")
    for r0 in range(0, R, chunk):
        reps = range(r0, min(r0 + chunk, R))
        R_c = len(reps)
        # free the last chunk's states and window before this one allocates
        ref = ladder = win = None
        if metrics:
            # the reference's window first, then the ladder's
            B = dynamics._window_steps(p, R_c)
            win = np.empty((K + 1, B, R_c, N))
        x0 = np.stack([initial_positions([seed, r], N, d, init) for r in reps])
        # lockstep's states copy x0, and lockstep drops it once they have
        path = lockstep(schemes, x0, p, obj, seed, reps, m_values)
        del x0
        sup = sup_gap[:, r0:r0 + R_c] if gap else None
        for n, (ref, ladder), _ in path:
            if gap:
                g = paired_msq_gap(ladder.x, ref.x)
                if memory:
                    g += paired_msq_gap(ladder.y, ref.y)
                # Python's max, in step order: keep the running sup unless g
                # is strictly larger
                np.copyto(sup, g, where=g > sup)
            if metrics:
                j = n % B
                win[0, j], win[1:, j] = ref.x[..., 0], ladder.x[..., 0]
                if j == B - 1 or n == p.n_steps:
                    # steps n - j, ..., n, as (j + 1) R_c clouds per rung,
                    # sorted in place and added into the sums replicate by
                    # replicate
                    b = j + 1
                    samples = win[:, :b]
                    samples.sort(axis=-1)
                    w2_kl = np.array(
                        _w2_and_kl_sorted(samples[1:].reshape(K, b * R_c, N),
                                          samples[0].reshape(b * R_c, N),
                                          default_bins(N))).reshape(2, K, b, R_c)
                    for r in range(R_c):
                        sums[..., n - j:n + 1] += w2_kl[..., r]
    # from zeros the fold equals one from replicate 0, as neither metric
    # returns -0.0, and dividing by R = 1 keeps every bit
    w2, kl = sums / R if metrics else (None, None)
    return sup_gap, w2, kl


def zero_inertia_study(cfg: LimitStudyConfig, obj, seed: int) -> StudyResult:
    """Coupled ladder study of the sup-in-time paired mean-square gap.

    On each replicate the first-order reference (it does not depend on the
    inertia) and the second-order stack of the ladder start from the same
    initial cloud and consume the same tape blocks: one coupled pass over
    all the replicates.  The rate is the least-squares slope of
    ``ln(mean gap)`` against ``ln m`` over all ladder points.
    """
    sup_gaps, w2, kl = _coupled_pass(cfg.base, obj, seed, cfg.replicates,
                                     cfg.init, cfg.m_ladder,
                                     cfg.scheme_pair == "memory")
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
    cloud; ``p`` supplies every constant but ``m``, so it needs no ``m``, and
    the pass reads none it has.  Returns one table per ``m``, in the order
    of ``m_values``, each bit-equal to ``compare_distributions`` at that
    ``m``.  Requires ``dim == 1`` (the exact order-statistics W2).
    ``snapshot_times`` defaults to every step; values must be finite, which
    is checked before any stepping, and are matched to the nearest step, a
    time past either end to the first or last step.  W2 / KL are computed at
    every step of the coupled pass on replicate 0, and each table holds the
    snapshot steps' columns.  ``m_values`` must be a nonempty 1-d sequence,
    which is checked after the snapshot times, and every value must be
    finite and in (0, 1], which ``lockstep`` checks; both before any
    stepping.
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

    _, w2, kl = _coupled_pass(p, obj, seed, 1, init, m_values, gap=False)
    bins = default_bins(p.n_particles)
    return [CompareTable(times=p.times[steps], w2=w2_m[steps], kl=kl_m[steps],
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
    for _, (final,), (point,) in lockstep((scheme,), x0, p, obj, seed, 0, p.m):
        pass
    return point, final.mean_speed


def laplace_sweep(points, obj, alphas) -> list[tuple[float, float, float]]:
    """Rows (alpha, exponential-average value, gap to the sample minimum).

    A value that is not finite (NaN costs, or every cost infinite) is a
    ``NonFiniteValueError`` naming its ``alpha``; points that cost ``+inf``
    only get weight 0.
    """
    alphas = [float(a) for a in alphas]
    if not all(0.0 < a < np.inf for a in alphas):
        raise ValueError(f"alphas must be finite and positive, got {alphas}")
    if any(b <= a for a, b in zip(alphas, alphas[1:])):
        raise ValueError("alphas must be increasing")
    pts = np.asarray(points, dtype=np.float64)
    costs = costs_of(pts, obj)
    low = float(costs.min())
    rows = []
    for a in alphas:
        value = laplace_value(costs, a)
        if not np.isfinite(value):
            raise NonFiniteValueError(f"laplace value at alpha={a} is not "
                                      f"finite, got {value}")
        rows.append((a, value, value - low))
    return rows
