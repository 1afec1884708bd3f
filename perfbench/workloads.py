"""The benchmark workloads: the paper's acceptance studies, cut to calls of
about one second.

Each workload is one closed-loop client with ``workers=1``. ``prepare`` does
the set-up a user pays once (objective, parameters, config file) and returns
the timed call; ``check`` applies the acceptance condition of the study to the
program's output. ``perturbations`` gives results that must be refused,
so that a check which accepts everything shows up as a broken benchmark.

The ``--seed`` argument offsets the acceptance-test seeds: seed 0 starts from
the acceptance test's seed, and on it the output must also match the digest
recorded in ``baseline.json`` bit for bit.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

import swarmlimit.cli as cli
import swarmlimit.experiments as ex
from swarmlimit import LimitStudyConfig, MemoryParams, Params, ackley

SIGMA = 1.0 / math.sqrt(3.0)
ALPHA = 30.0
DT = 0.01
LADDER = (0.2, 0.1, 0.05, 0.025, 0.0125)
COMPARE_M = (0.8, 0.1, 0.001)
# seeds of one optimize-2d call; criterion 3 asks 80% of them to succeed
OPTIMIZE_SEEDS = 2

# Sizes of one call: swarm size n (compare-cli runs 10 n), replicates and
# horizon (optimize-2d runs 5 t_end). The acceptance tests run 20 replicates
# and 20 optimize seeds; a call here runs 2 of each, so that a run times
# many short calls rather than a few long ones. WARM is the untimed warm-up
# call, which runs every code path once so that first-call costs stay out of
# the timing.
FULL = {"n": 1000, "reps": 2, "t_end": 1.0}
WARM = {"n": 50, "reps": 2, "t_end": 0.05}


@dataclass(frozen=True)
class Workload:
    name: str
    # seed of the acceptance test; --seed n runs base_seed + n * seed_stride
    base_seed: int
    seed_stride: int
    # particle-steps of one timed call, for throughput
    particle_steps: int
    # (seed, sizes, workdir) -> timed call; the call returns the raw output
    prepare: Callable[[int, dict, Path], Callable[[], object]]
    # raw output of the timed call -> result judged by check (untimed)
    collect: Callable[[object], object]
    check: Callable[[object], bool]
    digest: Callable[[object], str]
    # result -> (tiny, broken): tiny changes one value in its last bit or
    # digit and must fail wherever a digest is expected; broken violates the
    # acceptance condition and must always fail
    perturbations: Callable[[object], tuple]


def _sha256(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes) else np.ascontiguousarray(chunk).tobytes())
    return h.hexdigest()


def _flip_lowest_bit(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.float64)
    bits = out.reshape(-1).view(np.uint64)
    bits[0] ^= np.uint64(1)
    return out


# --- inertia-ladder studies (acceptance criteria 1 and 7) -------------------

def _prepare_ladder(memory: bool):
    def prepare(seed, sizes, workdir):
        mem = MemoryParams(lam1=1.0, lam2=1.0, sigma1=SIGMA, sigma2=SIGMA,
                           nu=0.5, beta=30.0) if memory else None
        base = Params(m=0.2, lam=0.0 if memory else 1.0,
                      sigma=0.0 if memory else SIGMA, alpha=ALPHA, dt=DT,
                      t_end=sizes["t_end"], n_particles=sizes["n"], dim=1,
                      memory=mem)
        cfg = LimitStudyConfig(m_ladder=LADDER, replicates=sizes["reps"],
                               base=base,
                               scheme_pair="memory" if memory else "plain")
        obj = ackley(1)
        return lambda: ex.zero_inertia_study(cfg, obj, seed)
    return prepare


def _check_ladder(res) -> bool:
    return bool(np.all(np.diff(res.gap_mean) < 0.0)) and res.slope >= 0.7


def _digest_ladder(res) -> str:
    arrays = [res.sup_gaps, res.gap_mean, np.float64(res.slope)]
    arrays += [a for a in (res.w2_mean, res.kl_mean) if a is not None]
    return _sha256(arrays)


def _perturb_ladder(res) -> tuple:
    return (replace(res, sup_gaps=_flip_lowest_bit(res.sup_gaps)),
            replace(res, gap_mean=res.gap_mean[::-1].copy()))


# --- 20-seed optimization (acceptance criterion 3) --------------------------

@dataclass(frozen=True)
class OptimizeResult:
    points: np.ndarray  # (seeds, dim) final consensus points
    speeds: np.ndarray  # (seeds,) final mean particle speeds
    minimizer: np.ndarray


def _prepare_optimize(seed, sizes, workdir):
    obj = ackley(2)
    t_end = 5.0 * sizes["t_end"]
    p = Params(m=0.1, lam=1.0, sigma=SIGMA, alpha=ALPHA, dt=DT, t_end=t_end,
               n_particles=sizes["n"], dim=2)
    seeds = [seed + k for k in range(OPTIMIZE_SEEDS)]

    def call():
        outs = [ex.optimize("pso", p, obj, seed=s) for s in seeds]
        return OptimizeResult(np.array([pt for pt, _ in outs]),
                              np.array([sp for _, sp in outs]), obj.minimizer)
    return call


def _check_optimize(res) -> bool:
    near = np.linalg.norm(res.points - res.minimizer, axis=1) <= 0.5
    return int(np.sum(near & (res.speeds <= 0.1))) >= math.ceil(0.8 * len(res.speeds))


def _digest_optimize(res) -> str:
    return _sha256([res.points, res.speeds])


def _perturb_optimize(res) -> tuple:
    return (replace(res, speeds=_flip_lowest_bit(res.speeds)),
            replace(res, points=res.points + 1.0))


# --- distribution compare through the CLI (acceptance criterion 2) ----------

def _prepare_compare(seed, sizes, workdir):
    cfg_path = workdir / "compare.cfg"
    out_path = workdir / "compare.csv"
    n = 10 * sizes["n"]
    cfg_path.write_text(
        "objective = ackley\ndim = 1\n"
        f"N = {n}\ndt = {DT!r}\nT = {sizes['t_end']!r}\n"
        f"lambda = 1\nsigma = {SIGMA!r}\nalpha = {ALPHA!r}\n"
        f"init = gaussian,0,1\nseed = {seed}\n",
        encoding="utf-8")
    argv = ["compare", "--config", str(cfg_path), "--out", str(out_path),
            "--m-ladder", ",".join(str(m) for m in COMPARE_M)]

    def call():
        return cli.main(argv), out_path
    return call


def _collect_compare(raw) -> bytes | None:
    code, out_path = raw
    return out_path.read_bytes() if code == 0 else None


def _compare_means(csv: bytes) -> dict:
    """Mean W2 and KL over time per inertia value, from the CSV the CLI wrote."""
    lines = [ln for ln in csv.decode("utf-8").splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    col = {name: header.index(name) for name in ("w2", "kl", "m")}
    sums: dict = {}
    for line in lines[1:]:
        fields = line.split(",")
        acc = sums.setdefault(float(fields[col["m"]]), [0.0, 0.0, 0])
        acc[0] += float(fields[col["w2"]])
        acc[1] += float(fields[col["kl"]])
        acc[2] += 1
    return {m: (w2 / k, kl / k) for m, (w2, kl, k) in sums.items()}


def _check_compare(csv) -> bool:
    if csv is None:
        return False
    means = _compare_means(csv)
    if sorted(means) != sorted(COMPARE_M):
        return False
    w2 = [means[m][0] for m in COMPARE_M]
    kl = [means[m][1] for m in COMPARE_M]
    return (w2[2] <= w2[0] / 5.0 and w2[0] >= w2[1] >= w2[2]
            and kl[0] >= kl[1] >= kl[2])


def _digest_compare(csv) -> str:
    return _sha256([csv or b""])


def _perturb_compare(csv) -> tuple:
    # the byte before the final newline is a digit of the bins column
    tiny = csv[:-2] + (b"1" if csv[-2:-1] != b"1" else b"2") + b"\n"
    swap = {COMPARE_M[0]: COMPARE_M[-1], COMPARE_M[-1]: COMPARE_M[0]}
    lines = []
    for line in csv.decode("utf-8").splitlines():
        fields = line.split(",")
        if not line.startswith("#") and fields[3] != "m":
            m = float(fields[3])
            fields[3] = format(swap.get(m, m), ".17g")
        lines.append(",".join(fields))
    return tiny, ("\n".join(lines) + "\n").encode("utf-8")


WORKLOADS = {
    wl.name: wl for wl in (
        Workload("ladder-plain", 20_240_101, 1, FULL["reps"] * 6 * 100 * 1000,
                 _prepare_ladder(memory=False), lambda r: r, _check_ladder,
                 _digest_ladder, _perturb_ladder),
        Workload("ladder-memory", 37_373, 1, FULL["reps"] * 6 * 100 * 1000,
                 _prepare_ladder(memory=True), lambda r: r, _check_ladder,
                 _digest_ladder, _perturb_ladder),
        Workload("optimize-2d", 9_000, OPTIMIZE_SEEDS, OPTIMIZE_SEEDS * 500 * 1000,
                 _prepare_optimize, lambda r: r, _check_optimize,
                 _digest_optimize, _perturb_optimize),
        Workload("compare-cli", 7_070, 1, len(COMPARE_M) * 2 * 100 * 10_000,
                 _prepare_compare, _collect_compare, _check_compare,
                 _digest_compare, _perturb_compare),
    )
}
