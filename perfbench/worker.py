"""Child process of the benchmark: a set-up probe, a timed loop or a traced loop.

    python3 perfbench/worker.py --mode {setup,time,trace} --workload NAME \\
        --seed N --seconds S --workdir DIR

``run.py`` starts it with ``PYTHONPATH`` pointing at the checkout's ``src``.
The last line of standard output is one JSON object.

* ``setup``  times the package import plus the workload's set-up, in a fresh
             interpreter, and exits.
* ``time``   runs the workload back to back, untraced, until the next call
             would end after ``--seconds``, with ``reference.py``'s kernel
             timed before the first call and after each; checks every output;
             reports the per-call wall and CPU times, the reference times
             and the process's peak RSS.
* ``trace``  alternates an untraced and a traced call, so that the tracing
             overhead is their difference; reports per-layer counts and self
             times.
"""

import time

_IMPORT_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent


def _judge(wl, result, expected_digest) -> bool:
    if not wl.check(result):
        return False
    return expected_digest is None or wl.digest(result) == expected_digest


def _self_check(wl, result, expected_digest) -> bool:
    """A bit-flipped result must fail where a digest is expected, and a result
    that breaks the acceptance condition must fail everywhere."""
    tiny, broken = wl.perturbations(result)
    if _judge(wl, broken, expected_digest):
        return False
    return expected_digest is None or not _judge(wl, tiny, expected_digest)


def _timed(call):
    w0, c0 = time.perf_counter(), time.process_time()
    raw = call()
    return raw, time.perf_counter() - w0, time.process_time() - c0


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "time", "trace"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args()

    import workloads  # imports numpy and swarmlimit: part of set-up time

    wl = workloads.WORKLOADS[args.workload]
    seed = wl.base_seed + args.seed * wl.seed_stride
    call = wl.prepare(seed, workloads.FULL, args.workdir)
    setup_s = time.perf_counter() - _IMPORT_START
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return

    baseline = json.loads((HERE / "baseline.json").read_text(encoding="utf-8"))
    expected = baseline["digests"][wl.name] if args.seed == 0 else None
    warm_dir = args.workdir / "warm"
    warm_dir.mkdir(exist_ok=True)
    wl.prepare(seed, workloads.WARM, warm_dir)()

    import numpy
    import scipy

    if args.mode == "trace":
        import tracing

    out = {"seed": seed, "particle_steps": wl.particle_steps,
           "digest_checked": expected is not None,
           "numpy": numpy.__version__, "scipy": scipy.__version__,
           "attempted": 0, "failed": 0, "wall_s": [], "cpu_s": [],
           "ref_wall_s": [], "ref_cpu_s": []}
    counters, self_times, traced_wall = [], [], []
    result = None
    timed = args.mode == "time"
    if timed:
        import reference

        reference_kernel = reference.make_kernel()
        reference_kernel()  # warm-up

    def time_reference():
        _, wall, cpu = _timed(reference_kernel)
        out["ref_wall_s"].append(wall)
        out["ref_cpu_s"].append(cpu)
        return statistics.median(out["ref_wall_s"])

    start = time.perf_counter()
    if timed:
        time_reference()
    while True:
        raw, wall, cpu = _timed(call)
        out["wall_s"].append(wall)
        out["cpu_s"].append(cpu)
        round_s = statistics.median(out["wall_s"])
        if timed:
            round_s += time_reference()
        results = [wl.collect(raw)]
        if args.mode == "trace":
            tracer = tracing.Tracer()
            with tracing.installed(tracer):
                raw, wall, _ = _timed(call)
            traced_wall.append(wall)
            counters.append(tracer.counters())
            self_times.append(tracer.self_times())
            results.append(wl.collect(raw))
            round_s += statistics.median(traced_wall)
        for result in results:
            out["attempted"] += 1
            out["failed"] += not _judge(wl, result, expected)
        if time.perf_counter() - start + round_s > args.seconds:
            break

    out["digest"] = wl.digest(result)
    out["self_check_ok"] = result is not None and _self_check(wl, result, expected)
    if args.mode == "time":
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        out["counts_repeat"] = all(c == counters[0] for c in counters)
        out["per_layer"] = {
            **counters[0],
            **{k: statistics.median(t[k] for t in self_times) for k in self_times[0]},
            "trace_overhead_s": statistics.median(traced_wall)
            - statistics.median(out["wall_s"]),
        }
    print(json.dumps(out))


if __name__ == "__main__":
    main()
