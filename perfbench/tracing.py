"""Per-layer tracing from outside the package.

``installed(tracer)`` wraps each layer's public functions under the names the
calling module looks them up by, and restores the originals on exit. A wrapper
records calls and self time: its span's duration minus the time covered by
wrapped calls nested inside it. Work counters are recorded at the same
boundaries. Nothing is installed while the timed, untraced loop runs.
"""

from __future__ import annotations

import contextlib
import functools
import os
from collections import Counter, defaultdict
from time import perf_counter

import swarmlimit.cli as cli
import swarmlimit.dynamics as dynamics
import swarmlimit.experiments as experiments
from swarmlimit.noise import NoiseTape
from swarmlimit.objectives import Objective

EXPERIMENT_DRIVERS = ("zero_inertia_study", "compare_distributions", "optimize")
PAIR_METRICS = ("wasserstein2_1d", "kl_histogram", "paired_msq_gap")


class Tracer:
    """Spans and work counters of one traced call."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.variates = 0
        self.points = 0
        self.snapshot_bytes = 0
        self.csv_bytes = 0
        self.blocks = set()
        self._child_s = []  # per open span: time covered by nested spans

    def wrap(self, span: str, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._child_s.append(0.0)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self.self_s[span] += elapsed - self._child_s.pop()
                self.calls[span] += 1
            if after is not None:
                after(args, kwargs, out)
            if self._child_s:
                # the enclosing span's self time excludes this span and the
                # counter bookkeeping, which belongs to no layer
                self._child_s[-1] += perf_counter() - start
            return out
        return traced

    def _on_block(self, args, kwargs, out):
        tape, r, n = args[:3]
        ch = args[3] if len(args) > 3 else kwargs.get("ch", 1)
        self.variates += out.size
        self.blocks.add((tape, r, n, ch))

    def _on_objective(self, args, kwargs, out):
        x = args[1]
        self.points += x.shape[0] if getattr(x, "ndim", 1) == 2 else 1

    def _on_run(self, args, kwargs, rec):
        for snap in (rec.snapshot_x, rec.snapshot_y):
            if snap is not None:
                self.snapshot_bytes += snap.nbytes

    def _on_main(self, args, kwargs, code):
        argv = args[0]
        if code == 0 and "--out" in argv:
            self.csv_bytes += os.path.getsize(argv[argv.index("--out") + 1])

    def counters(self) -> dict:
        """Exact work counts; they repeat bit for bit between traced runs."""
        steps = self.calls["dynamics.step"]
        out = {f"{span}.calls": self.calls[span] for span in (
            "noise.theta_block", "objectives.eval", "consensus.consensus_point",
            "dynamics.step", *(f"metrics.{name}" for name in
                               (*PAIR_METRICS, "empirical_moments")))}
        out.update({
            "noise.variates": self.variates,
            "noise.redraw_ratio": self.calls["noise.theta_block"] / max(1, len(self.blocks)),
            "objectives.eval.points": self.points,
            "objectives.evals_per_step": self.calls["objectives.eval"] / max(1, steps),
            "consensus.calls_per_step": self.calls["consensus.consensus_point"] / max(1, steps),
            "dynamics.snapshot_bytes": self.snapshot_bytes,
            "cli.csv_bytes": self.csv_bytes,
        })
        return out

    def self_times(self) -> dict:
        spans = ("noise.theta_block", "objectives.eval", "consensus.consensus_point",
                 "dynamics.step", "dynamics.run", "experiments", "cli.main",
                 "config.load_config",
                 *(f"metrics.{name}" for name in (*PAIR_METRICS, "empirical_moments")))
        return {f"{span}.self_s": self.self_s[span] for span in spans}


def _patches(tracer: Tracer):
    """(owner, attribute, span, after-hook) for every traced function."""
    yield NoiseTape, "theta_block", "noise.theta_block", tracer._on_block
    yield Objective, "__call__", "objectives.eval", tracer._on_objective
    yield dynamics, "consensus_point", "consensus.consensus_point", None
    yield dynamics, "empirical_moments", "metrics.empirical_moments", None
    for scheme in dynamics._STEPPERS:
        yield dynamics._STEPPERS, scheme, "dynamics.step", None
    yield experiments, "run", "dynamics.run", tracer._on_run
    for name in PAIR_METRICS:
        yield experiments, name, f"metrics.{name}", None
    for name in EXPERIMENT_DRIVERS:
        yield experiments, name, "experiments", None
        if hasattr(cli, name):
            yield cli, name, "experiments", None
    yield cli, "main", "cli.main", tracer._on_main
    yield cli, "load_config", "config.load_config", None


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every traced function for the duration of the block."""
    saved = []
    try:
        for owner, attr, span, after in _patches(tracer):
            original = _get(owner, attr)
            saved.append((owner, attr, original))
            _set(owner, attr, tracer.wrap(span, original, after))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            _set(owner, attr, original)


def _get(owner, attr):
    return owner[attr] if isinstance(owner, dict) else getattr(owner, attr)


def _set(owner, attr, value):
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)
