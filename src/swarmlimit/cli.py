"""Command-line entry points and CSV emission.

Subcommands: ``run``, ``limit-study``, ``compare``, ``laplace-check``.  All
output is UTF-8 CSV starting with a ``# schema=v1`` comment line followed by
deterministic metadata comments; floats are printed with 17 significant
digits so that equal-seed invocations produce byte-identical files.

Every subcommand takes ``--config``, ``--seed`` and ``--out``; ``limit-study``
adds ``--replicates`` and ``--m-ladder``, ``compare`` adds ``--m-ladder`` and
``--snapshot-times``.  ``main`` resolves the inputs once: a flag given on the
command line overrides its config key (``--seed`` -> ``seed``, ``--out`` ->
``out_path``, ``--replicates`` -> ``replicates``), and it builds the
objective.  A subcommand maps the resolved config to its CSV comments,
header and rows and touches no file; ``main`` writes them.

Exit codes: 0 success, 2 bad configuration or command line (a grid or study
past the noise tape's 64-bit index, which ``Params`` and ``LimitStudyConfig``
reject, and a run too large for memory included), 3 numerical abort (a
non-finite state or Laplace value), 4 I/O failure.  Errors print one
machine-parsable line ``error: <category>: <detail>``; NumPy overflow
warnings are silenced, so a blow-up is reported by that line alone.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .config import ConfigError, format_value, load_config, require_keys
from .dynamics import MemoryParams, NonFiniteStateError, Params, run
from .experiments import (
    LimitStudyConfig,
    NonFiniteValueError,
    compare_ladder,
    laplace_sweep,
    zero_inertia_study,
)
from .noise import initial_positions
from .objectives import make_objective

SCHEMA_VERSION = "v1"
DEFAULT_M_LADDER = (0.2, 0.1, 0.05, 0.025, 0.0125)
LAPLACE_ALPHAS = (1.0, 10.0, 100.0, 1000.0)
# what a limit-study gap measures for each scheme pair
GAP_METRIC = {"plain": "paired_msq_gap(x)",
              "memory": "paired_msq_gap(x)+paired_msq_gap(y)"}

_PLAIN_KEYS = ("lambda", "sigma")
_MEMORY_KEYS = ("lambda1", "lambda2", "sigma1", "sigma2", "nu", "beta")
# command-line flag -> the config key it overrides
_FLAG_KEYS = {"seed": "seed", "out": "out_path", "replicates": "replicates"}


def _shortest(value) -> str:
    """A config value as the user wrote it: a float in the shortest form that
    reads back as the same value (``0.1``, ``1e-10``, ``1`` for ``1.0``)."""
    return repr(value).removesuffix(".0") if isinstance(value, float) else str(value)


def _write_csv(path: str, comments: list[str], header: str, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(f"# schema={SCHEMA_VERSION}\n")
        for line in comments:
            handle.write(f"# {line}\n")
        handle.write(header + "\n")
        for row in rows:
            handle.write(",".join(format_value(v) for v in row) + "\n")


def _params_from(cfg: dict, scheme: str, m: float | None = None) -> Params:
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
    return Params(m=m, lam=lam, sigma=sigma, alpha=cfg["alpha"], dt=cfg["dt"],
                  t_end=cfg["T"], n_particles=cfg["N"], dim=cfg["dim"],
                  memory=memory)


def _cmd_run(cfg: dict, args, obj, seed: int):
    require_keys(cfg, ("scheme",), "run")
    scheme = cfg["scheme"]
    # a first-order run reads no inertia, but a given one must still be valid
    p = _params_from(cfg, scheme, cfg.get("m"))
    if scheme.startswith("pso"):
        require_keys(cfg, ("m",), f"scheme {scheme}")

    x0 = initial_positions([seed, 0], p.n_particles, p.dim, cfg["init"])
    rec = run(scheme, p, obj, seed, x0)

    cols = ["t", *(f"cons_{k + 1}" for k in range(p.dim)),
            *(f"{name}_m{q}" for name in rec.moments for q in (2, 4))]
    comments = [
        "experiment=run",
        f"scheme={scheme}",
        f"seed={seed}",
        f"final_mean_speed={format_value(rec.final.mean_speed)}",
    ]
    rows = np.column_stack([rec.times, rec.consensus, *rec.moments.values()])
    return comments, ",".join(cols), rows


def _cmd_limit_study(cfg: dict, args, obj, seed: int):
    require_keys(cfg, ("scheme", "replicates"), "limit-study")
    scheme = cfg["scheme"]
    if scheme not in ("pso", "pso_mem"):
        raise ConfigError(
            f"limit-study: scheme must be pso or pso_mem, got {scheme!r}"
        )
    pair = "memory" if scheme == "pso_mem" else "plain"
    ladder = tuple(args.m_ladder) if args.m_ladder else DEFAULT_M_LADDER
    base = _params_from(cfg, scheme)
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
        f"slope={format_value(result.slope)}",
        f"intercept={format_value(result.intercept)}",
    ]
    # a generator, so that the K R rows are written, never held, at once
    rows = ((m, r, gap, result.slope, seed)
            for m, gaps in zip(study.m_ladder, result.sup_gaps)
            for r, gap in enumerate(gaps))
    return comments, "m,replicate,sup_gap,slope_global,seed", rows


def _cmd_compare(cfg: dict, args, obj, seed: int):
    if args.m_ladder:
        m_values = args.m_ladder
    else:
        require_keys(cfg, ("m",), "compare")
        m_values = [cfg["m"]]

    # lockstep checks every rung before the first step
    p = _params_from(cfg, "pso")
    tables = compare_ladder(p, obj, seed, m_values,
                            snapshot_times=args.snapshot_times, init=cfg["init"])
    rows = [[t, w2, kl, m, seed, table.bins]
            for m, table in zip(m_values, tables)
            for t, w2, kl in zip(table.times, table.w2, table.kl)]
    return ["experiment=compare"], "t,w2,kl,m,seed,bins", rows


def _cmd_laplace_check(cfg: dict, args, obj, seed: int):
    require_keys(cfg, ("N",), "laplace-check")
    points = initial_positions([seed, 0], cfg["N"], cfg["dim"], cfg["init"])
    rows = laplace_sweep(points, obj, LAPLACE_ALPHAS)
    return (["experiment=laplace-check", f"seed={seed}"],
            "alpha,laplace_value,gap", rows)


_COMMANDS = {
    "run": _cmd_run,
    "limit-study": _cmd_limit_study,
    "compare": _cmd_compare,
    "laplace-check": _cmd_laplace_check,
}


def _parse_floats_arg(raw: str) -> list[float]:
    values = []
    for part in raw.split(","):
        try:
            values.append(float(part))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated numbers, got {part!r}") from None
    return values


# flags whose comma-separated value may start with "-" ("-1,0.02"), which
# argparse takes for an option unless it is a single negative number
_LIST_FLAGS = ("--m-ladder", "--snapshot-times")


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a config error instead of exiting, and
    reads the word after a list flag as its value when it starts with a
    single "-", as ``--flag=value`` is read."""

    def _names_list_flag(self, word: str) -> bool:
        """Whether ``word`` names one of this parser's ``_LIST_FLAGS``, in
        full or by a prefix that argparse resolves to it alone."""
        longs = [o for o in self._option_string_actions if o.startswith("--")]
        named = [word] if word in longs else [o for o in longs if o.startswith(word)]
        return len(named) == 1 and named[0] in _LIST_FLAGS

    def parse_known_args(self, args=None, namespace=None):
        joined = []
        for arg in sys.argv[1:] if args is None else args:
            if (joined and arg.startswith("-") and not arg.startswith("--")
                    and self._names_list_flag(joined[-1])):
                joined[-1] += "=" + arg
            else:
                joined.append(arg)
        return super().parse_known_args(joined, namespace)

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
        for flag, key in _FLAG_KEYS.items():
            if getattr(args, flag, None) is not None:
                cfg[key] = getattr(args, flag)
        if "out_path" not in cfg:
            raise ConfigError("missing required key: out_path (or pass --out)")
        require_keys(cfg, ("init", "seed", "objective", "dim"), args.command)
        obj = make_objective(cfg["objective"], cfg["dim"], cfg.get("shift"))
        # a blow-up is reported once, by the state's finite check
        with np.errstate(over="ignore", invalid="ignore"):
            comments, header, rows = _COMMANDS[args.command](
                cfg, args, obj, cfg["seed"])
        _write_csv(cfg["out_path"], comments, header, rows)
    except (NonFiniteStateError, NonFiniteValueError) as exc:
        print(f"error: numerical: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # a study steps one chunk of its replicates at once, at least one
        # replicate's K + 1 position clouds, and keeps the (K, R) gaps of
        # all, so either can run out
        keys = ("N", "dim", "dt", "T") + (
            ("replicates",) if args.command == "limit-study" else ())
        sizes = ", ".join(f"{key}={_shortest(cfg.get(key))}" for key in keys)
        print(f"error: config: out of memory for {sizes}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 4
    return 0


def main_entry() -> None:
    sys.exit(main(sys.argv[1:]))
