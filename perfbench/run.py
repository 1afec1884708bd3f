#!/usr/bin/env python3
"""swarmlimit benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload ladder-plain --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` (nothing is installed). Workloads and the reason for each are in
``perfbench/README.md``; the metric names and units are those declared in
``BENCHMARK.json``.

``--trace 0`` reports the end-to-end metrics: set-up time over several fresh
interpreters, then the timed loop in one child process, untraced. That loop
times the fixed kernel of ``reference.py`` between calls and reports each
call's time relative to it (see ``_normalised``), which takes the shared
machine's changing speed out of the figures. ``--trace 1``
reports the per-layer metrics from a separate child that wraps each layer's
functions. Every output is checked; a result's line on standard output is
preceded by a provenance line, and a readable report goes to standard error.
The exit code is 0 only when a result was printed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
# fresh interpreters whose import and set-up time give setup_s (median); one
# probe takes about 0.5 s and single probes vary by up to a third
SETUP_PROBES = 7
# the reference kernel's median wall time on the baseline machine: the
# normalised times read in seconds of that machine at its usual speed
REF_NOMINAL_S = 0.096
# every child is killed and waited for if the run would pass this
DEADLINE_S = 175.0
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _child(mode: str, args, workdir: Path, deadline: float) -> dict:
    """Run one worker to completion and return its JSON line."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--workdir", str(workdir)]
    path = [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    # subprocess.run kills and reaps the child when the timeout expires
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_sha() -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a git tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "swarmlimit").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _provenance(worker: dict, load_start) -> dict:
    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
        "python": platform.python_version(),
        "numpy": worker["numpy"],
        "scipy": worker["scipy"],
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var, "unset") for var in BLAS_VARS},
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "effective_seed": worker["seed"],
        "result_sha256": worker["digest"],
        "digest_checked": worker["digest_checked"],
        "calls_timed": len(worker["wall_s"]),
        "raw_wall_s_median": statistics.median(worker["wall_s"]),
        "raw_cpu_s_median": statistics.median(worker["cpu_s"]),
        "ref_wall_s_median": statistics.median(worker["ref_wall_s"] or [0.0]),
    }


def _normalised(times: list, ref: list) -> float:
    """Median over calls of the call's time over the mean of the reference
    kernel's times just before and just after it, in seconds at REF_NOMINAL_S."""
    return REF_NOMINAL_S * statistics.median(
        2.0 * t / (before + after) for t, before, after in zip(times, ref, ref[1:]))


def _end_to_end(worker: dict, setup_s: list) -> dict:
    wall = _normalised(worker["wall_s"], worker["ref_wall_s"])
    return {
        "norm_wall_s": wall,
        "norm_cpu_s": _normalised(worker["cpu_s"], worker["ref_cpu_s"]),
        "norm_particle_steps_per_s": worker["particle_steps"] / wall,
        "peak_rss_mb": worker["peak_rss_mb"],
        "setup_s": statistics.median(setup_s),
        "pass_rate": (worker["attempted"] - worker["failed"]) / worker["attempted"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="offset from the acceptance-test seeds (0 = those seeds)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if not (SRC / "swarmlimit" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"error: run from a swarmlimit checkout; {SRC / 'swarmlimit'} "
              f"or {SPEC.name} is missing", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"--workload must be one of {', '.join(names)}")
    declared = spec["per_layer" if args.trace else "end_to_end"]

    load_start = os.getloadavg()
    deadline = time.monotonic() + DEADLINE_S
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        if args.trace:
            worker = _child("trace", args, workdir, deadline)
            values = worker["per_layer"]
            correct = worker["counts_repeat"]
        else:
            setup_s = [_child("setup", args, workdir, deadline)["setup_s"]
                       for _ in range(SETUP_PROBES)]
            worker = _child("time", args, workdir, deadline)
            values = _end_to_end(worker, setup_s)
            correct = True
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError,
            IndexError) as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            scratch.rmdir()

    if set(values) != {m["name"] for m in declared}:
        print("error: measured metrics differ from BENCHMARK.json: "
              f"{sorted(set(values) ^ {m['name'] for m in declared})}", file=sys.stderr)
        return 1
    correct = correct and worker["failed"] == 0 and worker["self_check_ok"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}

    report = sys.stderr
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{worker['attempted']} calls checked, {worker['failed']} failed, "
          f"perturbed-result self-check {'ok' if worker['self_check_ok'] else 'FAILED'}",
          file=report)
    if not args.trace:
        walls = ", ".join(f"{w:.3f}" for w in worker["wall_s"])
        refs = ", ".join(f"{w:.4f}" for w in worker["ref_wall_s"])
        print(f"  wall per call (s): {walls}", file=report)
        print(f"  reference kernel between calls (s): {refs}", file=report)
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:>16.6g} {metric['unit']}", file=report)

    print(json.dumps({"provenance": _provenance(worker, load_start)}))
    print(json.dumps({"correct": correct, "attempted": worker["attempted"],
                      "failed": worker["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
