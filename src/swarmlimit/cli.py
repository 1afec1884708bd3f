"""Command-line entry points and CSV emission.

Subcommands: ``run``, ``limit-study``, ``compare``, ``laplace-check``.  All
output is UTF-8 CSV starting with a ``# schema=v1`` comment line followed by
deterministic metadata comments; floats are printed with 17 significant
digits so that equal-seed invocations produce byte-identical files.

Every subcommand takes ``--config``, ``--seed`` and ``--out``; ``limit-study``
adds ``--replicates`` and ``--m-ladder``, ``compare`` adds ``--m-ladder`` and
``--snapshot-times``.  Exit codes: 0 success, 2 bad configuration or command
line (a run too large for memory included), 3 numerical abort, 4 I/O
failure.  Errors print one machine-parsable line ``error: <category>:
<detail>``.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .config import ConfigError, load_config, require_keys
from .dynamics import MemoryParams, NonFiniteStateError, Params, run
from .experiments import (
    LimitStudyConfig,
    compare_ladder,
    laplace_sweep,
    zero_inertia_study,
)
from .noise import NoiseTape, initial_positions
from .objectives import make_objective

SCHEMA_VERSION = "v1"
DEFAULT_M_LADDER = (0.2, 0.1, 0.05, 0.025, 0.0125)
LAPLACE_ALPHAS = (1.0, 10.0, 100.0, 1000.0)
# what a limit-study gap measures for each scheme pair
GAP_METRIC = {"plain": "paired_msq_gap(x)",
              "memory": "paired_msq_gap(x)+paired_msq_gap(y)"}

_PLAIN_KEYS = ("lambda", "sigma")
_MEMORY_KEYS = ("lambda1", "lambda2", "sigma1", "sigma2", "nu", "beta")


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _write_csv(path: str, comments: list[str], header: str, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(f"# schema={SCHEMA_VERSION}\n")
        for line in comments:
            handle.write(f"# {line}\n")
        handle.write(header + "\n")
        for row in rows:
            handle.write(",".join(_fmt(v) for v in row) + "\n")


def _objective_from(cfg: dict):
    require_keys(cfg, ("objective", "dim"), "objective")
    return make_objective(cfg["objective"], cfg["dim"], cfg.get("shift"))


def _params_from(cfg: dict, scheme: str) -> Params:
    context = f"scheme {scheme}"
    require_keys(cfg, ("N", "dt", "T", "alpha", "dim"), context)
    memory = None
    if scheme.endswith("_mem"):
        require_keys(cfg, _MEMORY_KEYS, context)
        memory = MemoryParams(
            lam1=cfg["lambda1"], lam2=cfg["lambda2"],
            sigma1=cfg["sigma1"], sigma2=cfg["sigma2"],
            nu=cfg["nu"], beta=cfg["beta"],
        )
        lam, sigma = 0.0, 0.0
    else:
        require_keys(cfg, _PLAIN_KEYS, context)
        lam, sigma = cfg["lambda"], cfg["sigma"]
    if scheme.startswith("pso"):
        require_keys(cfg, ("m",), context)
        m = cfg["m"]
    else:
        m = cfg.get("m", 1.0)  # unused by the first-order schemes
    return Params(m=m, lam=lam, sigma=sigma, alpha=cfg["alpha"], dt=cfg["dt"],
                  t_end=cfg["T"], n_particles=cfg["N"], dim=cfg["dim"],
                  memory=memory)


def _seed_from(cfg: dict, args) -> int:
    if args.seed is not None:
        return args.seed
    require_keys(cfg, ("seed",), "seed")
    return cfg["seed"]


def _out_from(cfg: dict, args) -> str:
    if args.out is not None:
        return args.out
    if "out_path" in cfg:
        return cfg["out_path"]
    raise ConfigError("missing required key: out_path (or pass --out)")


def _cmd_run(cfg: dict, args) -> None:
    require_keys(cfg, ("scheme", "init"), "run")
    scheme = cfg["scheme"]
    obj = _objective_from(cfg)
    p = _params_from(cfg, scheme)
    seed = _seed_from(cfg, args)
    out = _out_from(cfg, args)

    tape = NoiseTape(seed, 1, p.n_particles, p.n_steps, p.dim,
                     channels=2 if scheme.endswith("_mem") else 1)
    x0 = initial_positions([seed, 0], p.n_particles, p.dim, cfg["init"])
    rec = run(scheme, p, obj, tape, 0, x0)

    cols = ["t", *(f"cons_{k + 1}" for k in range(p.dim)),
            *(f"{name}_m{q}" for name in rec.moments for q in (2, 4))]
    comments = [
        "experiment=run",
        f"scheme={scheme}",
        f"seed={seed}",
        f"final_mean_speed={_fmt(rec.final.mean_speed)}",
    ]
    rows = np.column_stack([rec.times, rec.consensus, *rec.moments.values()])
    _write_csv(out, comments, ",".join(cols), rows)


def _cmd_limit_study(cfg: dict, args) -> None:
    require_keys(cfg, ("scheme", "init"), "limit-study")
    scheme = cfg["scheme"]
    if scheme not in ("pso", "pso_mem"):
        raise ConfigError(
            f"limit-study: scheme must be pso or pso_mem, got {scheme!r}"
        )
    pair = "memory" if scheme == "pso_mem" else "plain"
    obj = _objective_from(cfg)
    ladder = tuple(args.m_ladder) if args.m_ladder else DEFAULT_M_LADDER
    base = _params_from({**cfg, "m": max(ladder)}, scheme)
    seed = _seed_from(cfg, args)
    out = _out_from(cfg, args)
    if args.replicates is not None:
        reps = args.replicates
    else:
        require_keys(cfg, ("replicates",), "limit-study")
        reps = cfg["replicates"]

    study = LimitStudyConfig(m_ladder=ladder, replicates=reps, base=base,
                             scheme_pair=pair, init=cfg["init"])
    result = zero_inertia_study(study, obj, seed)
    estimator = f"replicates(R={reps})" if reps > 1 else "single-run"

    comments = [
        "experiment=limit-study",
        f"scheme_pair={pair}",
        f"gap_metric={GAP_METRIC[pair]}",
        f"estimator={estimator}",
        f"slope={_fmt(result.slope)}",
        f"intercept={_fmt(result.intercept)}",
    ]

    def rows():
        for j, m in enumerate(study.m_ladder):
            for r in range(reps):
                yield [m, r, result.sup_gaps[j, r], result.slope, seed]

    _write_csv(out, comments, "m,replicate,sup_gap,slope_global,seed", rows())


def _cmd_compare(cfg: dict, args) -> None:
    require_keys(cfg, ("init",), "compare")
    obj = _objective_from(cfg)
    seed = _seed_from(cfg, args)
    out = _out_from(cfg, args)
    if args.m_ladder:
        m_values = args.m_ladder
    else:
        require_keys(cfg, ("m",), "compare")
        m_values = [cfg["m"]]

    p = _params_from({**cfg, "m": m_values[0]}, "pso")
    tables = compare_ladder(p, obj, seed, m_values,
                            snapshot_times=args.snapshot_times, init=cfg["init"])

    comments = ["experiment=compare"]

    def rows():
        for m, table in zip(m_values, tables):
            for t, w2, kl in zip(table.times, table.w2, table.kl):
                yield [t, w2, kl, m, seed, table.bins]

    _write_csv(out, comments, "t,w2,kl,m,seed,bins", rows())


def _cmd_laplace_check(cfg: dict, args) -> None:
    require_keys(cfg, ("N", "init"), "laplace-check")
    obj = _objective_from(cfg)
    seed = _seed_from(cfg, args)
    out = _out_from(cfg, args)
    points = initial_positions([seed, 0], cfg["N"], cfg["dim"], cfg["init"])
    rows = laplace_sweep(points, obj, LAPLACE_ALPHAS)
    _write_csv(out, ["experiment=laplace-check", f"seed={seed}"],
               "alpha,laplace_value,gap", rows)


_COMMANDS = {
    "run": _cmd_run,
    "limit-study": _cmd_limit_study,
    "compare": _cmd_compare,
    "laplace-check": _cmd_laplace_check,
}


def _parse_floats_arg(raw: str) -> list[float]:
    return [float(part) for part in raw.split(",")]


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a config error instead of exiting."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="swarmlimit",
        description="Coupled swarm dynamics experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="key=value config file")
        cmd.add_argument("--seed", type=int, default=None,
                         help="override the config seed")
        cmd.add_argument("--out", default=None, help="override out_path")
        if name == "limit-study":
            cmd.add_argument("--replicates", type=int, default=None)
        if name in ("limit-study", "compare"):
            cmd.add_argument("--m-ladder", type=_parse_floats_arg, default=None,
                             metavar="a,b,c")
        if name == "compare":
            cmd.add_argument("--snapshot-times", type=_parse_floats_arg,
                             default=None, metavar="t1,t2,...")
    return parser


def main(argv=None) -> int:
    cfg = {}
    try:
        args = build_parser().parse_args(argv)
        cfg = load_config(args.config)
        _COMMANDS[args.command](cfg, args)
    except (ConfigError, ValueError) as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        sizes = ", ".join(f"{key}={_fmt(cfg.get(key))}"
                          for key in ("N", "dim", "dt", "T"))
        print(f"error: config: out of memory for {sizes}", file=sys.stderr)
        return 2
    except NonFiniteStateError as exc:
        print(f"error: numerical: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 4
    return 0


def main_entry() -> None:
    sys.exit(main(sys.argv[1:]))
