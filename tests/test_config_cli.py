import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import swarmlimit.cli as cli
from swarmlimit.cli import main
from swarmlimit.config import (
    ConfigError,
    parse_config,
    serialize_config,
)

DATA = Path(__file__).parent / "data"
# a NumPy build and SIMD dispatch under which every golden file holds
GOLDEN_BUILD = ("numpy 2.4.6 with SIMD targets "
                "X86_V2 X86_V3 X86_V4 AVX512_ICL AVX512_SPR")


def simd_targets() -> list[str]:
    """The SIMD targets this NumPy runs with: its baseline, then the
    dispatched targets this machine and ``NPY_DISABLE_CPU_FEATURES`` leave
    enabled."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # NumPy < 2
        from numpy.core import _multiarray_umath as umath
    return [*umath.__cpu_baseline__,
            *(t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t))]


def assert_matches_golden(out: Path, golden: str) -> None:
    """The bytes at ``out`` equal the golden file's, naming the NumPy build
    and SIMD targets on failure: the goldens hold the bits of one NumPy
    build and dispatch, and ``np.exp`` and ``np.log`` round differently
    under another."""
    assert out.read_bytes() == (DATA / golden).read_bytes(), (
        f"{golden} differs under numpy {np.__version__} with SIMD targets "
        f"{' '.join(simd_targets())}; the goldens hold under {GOLDEN_BUILD}")

BASE_CFG = """\
scheme = pso
objective = ackley
dim = 1
N = 60
dt = 0.01
T = 0.1
m = 0.2
lambda = 1
sigma = 0.57735026918962584
alpha = 30
init = gaussian,0,1
seed = 42
replicates = 2
"""


def write_cfg(tmp_path, text=BASE_CFG, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_parse_serialize_roundtrip():
    values = parse_config(BASE_CFG)
    assert values["N"] == 60
    assert values["init"] == ("gaussian", 0.0, 1.0)
    assert parse_config(serialize_config(values)) == values


def test_parse_accepts_comments_and_blanks():
    text = "# a comment\n\nseed = 7\n  dim = 2  \n"
    assert parse_config(text) == {"seed": 7, "dim": 2}


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown key 'swarm_size'"):
        parse_config("swarm_size = 10\n")


def test_parse_rejects_duplicates_and_garbage():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("seed = 1\nseed = 2\n")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config("just some words\n")
    with pytest.raises(ConfigError, match="expected a number"):
        parse_config("sigma = allegro\n")
    with pytest.raises(ConfigError, match="init"):
        parse_config("init = cauchy,0,1\n")


def test_shift_key_parses_to_tuple():
    assert parse_config("shift = 0,0\n") == {"shift": (0.0, 0.0)}


def test_cli_missing_required_key_names_it(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "scheme = pso\nobjective = ackley\ndim = 1\n")
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "o.csv")])
    assert code == 2
    assert "missing required key" in capsys.readouterr().err


def test_cli_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "bogus = 1\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2
    assert "error: config:" in capsys.readouterr().err


def test_cli_missing_config_file_exits_2(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path / "o.csv")]) == 2


BLOW_UP_CFG = BASE_CFG.replace("sigma = 0.57735026918962584", "sigma = 1e200")


def test_cli_numerical_abort_exits_3(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BLOW_UP_CFG)
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "o.csv")])
    assert code == 3
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: numerical:")


def test_numerical_abort_of_the_module_prints_one_stderr_line(tmp_path):
    # no NumPy overflow warning comes before the one error line
    cfg = write_cfg(tmp_path, BLOW_UP_CFG)
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "swarmlimit", "run", "--config", cfg,
         "--out", str(tmp_path / "o.csv")],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 3
    (line,) = proc.stderr.splitlines()
    assert line.startswith("error: numerical:")


def test_cli_io_failure_exits_4(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    code = main(["run", "--config", cfg,
                 "--out", str(tmp_path / "no_such_dir" / "o.csv")])
    assert code == 4
    assert "error: io:" in capsys.readouterr().err


def test_cli_run_writes_trajectory(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "run.csv"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# schema=v1"
    header = next(l for l in lines if not l.startswith("#"))
    assert header == "t,cons_1,x_m2,x_m4,v_m2,v_m4"
    assert len([l for l in lines if not l.startswith("#")]) == 12  # header + 11 steps


def test_cli_limit_study_schema_and_determinism(tmp_path):
    cfg = write_cfg(tmp_path)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["limit-study", "--config", cfg, "--m-ladder", "0.2,0.1"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == "# schema=v1"
    header = next(l for l in lines if not l.startswith("#"))
    assert header == "m,replicate,sup_gap,slope_global,seed"
    rows = [l for l in lines if not l.startswith("#")][1:]
    assert len(rows) == 4  # 2 ladder points x 2 replicates
    assert all(r.endswith(",42") for r in rows)


def test_cli_split_study_reproduces_combined_cells(tmp_path):
    # partitioning the ladder across separate invocations must yield the same
    # per-(m, replicate) gaps as the combined run: cells only depend on the
    # seed-addressed tape, never on which process computed them
    cfg = write_cfg(tmp_path)

    def data_rows(path):
        lines = [l for l in path.read_text().splitlines()
                 if not l.startswith("#")][1:]
        return [",".join(l.split(",")[:3]) for l in lines]  # m,replicate,sup_gap

    combined = tmp_path / "all.csv"
    main(["limit-study", "--config", cfg, "--m-ladder", "0.2,0.1",
          "--out", str(combined)])
    part1, part2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
    main(["limit-study", "--config", cfg, "--m-ladder", "0.2",
          "--out", str(part1)])
    main(["limit-study", "--config", cfg, "--m-ladder", "0.1",
          "--out", str(part2)])
    assert data_rows(part1) + data_rows(part2) == data_rows(combined)


def test_cli_seed_flag_overrides_config(tmp_path):
    cfg = write_cfg(tmp_path)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["limit-study", "--config", cfg, "--m-ladder", "0.2,0.1",
          "--out", str(out1)])
    main(["limit-study", "--config", cfg, "--m-ladder", "0.2,0.1",
          "--seed", "43", "--out", str(out2)])
    assert out1.read_bytes() != out2.read_bytes()
    assert ",43" in out2.read_text()


def test_cli_replicates_flag_overrides_config(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "a.csv"
    main(["limit-study", "--config", cfg, "--m-ladder", "0.2", "--replicates",
          "5", "--out", str(out)])
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
    assert len(rows) == 5


def test_cli_compare_matches_golden_file(tmp_path):
    # golden produced by the first validated run of this configuration
    cfg = write_cfg(tmp_path)
    out = tmp_path / "cmp.csv"
    assert main(["compare", "--config", cfg, "--m-ladder", "0.8,0.1",
                 "--snapshot-times", "0,0.05,0.1", "--out", str(out)]) == 0
    assert_matches_golden(out, "compare_golden.csv")


MEMORY_CFG = BASE_CFG.replace("scheme = pso", "scheme = pso_mem") + (
    "lambda1 = 1\nlambda2 = 1\nsigma1 = 0.5\nsigma2 = 0.5\nnu = 0.5\nbeta = 30\n"
)


@pytest.mark.parametrize("argv, golden", [
    (["run"], "run_golden.csv"),
    (["limit-study", "--m-ladder", "0.2,0.1"], "limit_study_golden.csv"),
])
def test_cli_memory_outputs_match_golden_files(tmp_path, argv, golden):
    # pso_mem carries every moment column and both gap terms
    cfg = write_cfg(tmp_path, MEMORY_CFG)
    out = tmp_path / "o.csv"
    assert main([argv[0], "--config", cfg, *argv[1:], "--out", str(out)]) == 0
    assert_matches_golden(out, golden)


def test_cli_single_replicate_study_names_gap_and_estimator(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "a.csv"
    assert main(["limit-study", "--config", cfg, "--m-ladder", "0.2",
                 "--replicates", "1", "--out", str(out)]) == 0
    comments = [l for l in out.read_text().splitlines() if l.startswith("#")]
    assert "# gap_metric=paired_msq_gap(x)" in comments
    assert "# estimator=single-run" in comments


def test_cli_compare_header_schema(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "cmp.csv"
    assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    header = next(l for l in lines if not l.startswith("#"))
    assert header == "t,w2,kl,m,seed,bins"


def test_cli_laplace_check_with_nan_costs_exits_3_and_writes_nothing(
        tmp_path, capsys):
    # 2 pi x overflows at x ~ 1e308, so ackley's cosine term is NaN at
    # every point; like run on the same config, a numerical abort
    cfg = write_cfg(tmp_path, BASE_CFG.replace("init = gaussian,0,1",
                                               "init = gaussian,1e308,1"))
    out = tmp_path / "lap.csv"
    assert main(["laplace-check", "--config", cfg, "--out", str(out)]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "error: numerical: laplace value at alpha=1.0 is not finite, got nan"]
    assert not out.exists()
    assert main(["run", "--config", cfg, "--out", str(out)]) == 3


def test_cli_laplace_check_delta_cloud(tmp_path):
    # a single-point cloud is a Dirac: the value column is E(x) at every alpha
    cfg = write_cfg(tmp_path, BASE_CFG.replace("N = 60", "N = 1"))
    out = tmp_path / "lap.csv"
    assert main(["laplace-check", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    assert lines[header_idx] == "alpha,laplace_value,gap"
    rows = [l.split(",") for l in lines[header_idx + 1:]]
    values = {float(r[1]) for r in rows}
    assert len(values) == 1  # constant column
    assert all(float(r[2]) == 0.0 for r in rows)


@pytest.mark.parametrize("dim, golden", [
    (1, "laplace_check_golden.csv"),
    (2, "laplace_check_2d_golden.csv"),
])
def test_cli_laplace_check_matches_golden_file(tmp_path, dim, golden):
    # golden produced by the first validated run of this configuration
    cfg = write_cfg(tmp_path, BASE_CFG.replace("dim = 1", f"dim = {dim}"))
    out = tmp_path / "lap.csv"
    assert main(["laplace-check", "--config", cfg, "--out", str(out)]) == 0
    assert_matches_golden(out, golden)


def test_cli_out_path_from_config(tmp_path):
    out = tmp_path / "fromcfg.csv"
    cfg = write_cfg(tmp_path, BASE_CFG + f"out_path = {out}\n")
    assert main(["laplace-check", "--config", cfg]) == 0
    assert out.exists()


def test_cli_floats_printed_with_17_digits(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "cmp.csv"
    main(["compare", "--config", cfg, "--m-ladder", "0.1", "--out", str(out)])
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
    m_field = rows[0].split(",")[3]
    assert m_field == format(0.1, ".17g")
    assert float(m_field) == 0.1


def test_cli_memory_scheme_requires_memory_keys(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE_CFG.replace("scheme = pso", "scheme = pso_mem"))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2
    assert "lambda1" in capsys.readouterr().err


def test_cli_memory_run_executes(tmp_path):
    mem_cfg = BASE_CFG.replace("scheme = pso", "scheme = pso_mem") + (
        "lambda1 = 1\nlambda2 = 1\nsigma1 = 0.5\nsigma2 = 0.5\n"
        "nu = 0.5\nbeta = 30\n"
    )
    cfg = write_cfg(tmp_path, mem_cfg)
    out = tmp_path / "mem.csv"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    header = next(l for l in out.read_text().splitlines()
                  if not l.startswith("#"))
    assert header == "t,cons_1,x_m2,x_m4,v_m2,v_m4,y_m2,y_m4"


@pytest.mark.parametrize("key, raw, field", [("T", "inf", "t_end"),
                                             ("dt", "nan", "dt")])
def test_cli_non_finite_value_exits_2_naming_the_field(tmp_path, capsys,
                                                       key, raw, field):
    cfg = write_cfg(tmp_path, "\n".join(
        f"{key} = {raw}" if line.startswith(f"{key} =") else line
        for line in BASE_CFG.splitlines()) + "\n")
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "o.csv")])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: config: {field} must be finite, got {raw}"]


def test_cli_step_count_overflow_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE_CFG.replace("dt = 0.01", "dt = 1e-300")
                    .replace("T = 0.1", "T = 1e10"))
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "o.csv")])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: config: t_end / dt must be finite, got 10000000000.0 / 1e-300"]


@pytest.mark.parametrize("command", ["run", "limit-study", "compare"])
def test_cli_tape_index_overflow_exits_2_naming_the_layout(tmp_path, capsys,
                                                           command):
    # t_end / dt = 1e290 is a finite step count, but the tape's uint64
    # linear index cannot address that many steps
    cfg = write_cfg(tmp_path, BASE_CFG.replace("dt = 0.01", "dt = 1e-300")
                    .replace("T = 0.1", "T = 1e-10"))
    code = main([command, "--config", cfg, "--out", str(tmp_path / "o.csv")])
    assert code == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert re.fullmatch(r"error: config: noise tape layout replicates=\d+, "
                        r"particles=60, steps=\d{291}, dim=1, channels=1 has "
                        r"more than 2\*\*64 indices", line)


def test_cli_study_whose_replicates_overflow_the_tape_exits_2(tmp_path, capsys,
                                                             monkeypatch):
    # 2**40 particles and 2**20 steps fit one replicate's tape, 17 replicates
    # do not: the study config rejects them before the study could start
    def never(*args, **kwargs):
        raise AssertionError("the study started")

    monkeypatch.setattr(cli, "zero_inertia_study", never)
    cfg = write_cfg(tmp_path, BASE_CFG.replace("N = 60", "N = 1099511627776")
                    .replace("dt = 0.01", "dt = 1").replace("T = 0.1", "T = 1048576"))
    out = tmp_path / "o.csv"
    code = main(["limit-study", "--config", cfg, "--out", str(out),
                 "--replicates", "17"])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: config: noise tape layout replicates=17, particles=1099511627776, "
        "steps=1048576, dim=1, channels=1 has more than 2**64 indices"]
    assert not out.exists()


def test_cli_out_of_memory_exits_2_naming_the_sizes(tmp_path, capsys,
                                                    monkeypatch):
    # dt = 1e-10, T = 1 asks for ~75 GiB of per-step records; the allocation
    # failure is simulated, never attempted
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 74.5 GiB")

    monkeypatch.setattr(cli, "run", out_of_memory)
    cfg = write_cfg(tmp_path, BASE_CFG.replace("dt = 0.01", "dt = 1e-10")
                    .replace("T = 0.1", "T = 1"))
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "o.csv")])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: config: out of memory for N=60, dim=1, dt=1e-10, T=1"]


def test_cli_study_out_of_memory_names_the_replicates(tmp_path, capsys,
                                                     monkeypatch):
    # a study steps a chunk of its replicates at once, at least one; the
    # allocation failure is simulated, never attempted
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 1.49 GiB")

    monkeypatch.setattr(cli, "zero_inertia_study", out_of_memory)
    cfg = write_cfg(tmp_path)
    code = main(["limit-study", "--config", cfg, "--out", str(tmp_path / "o.csv"),
                 "--replicates", "200000"])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: config: out of memory for N=60, dim=1, dt=0.01, "
        "T=0.1, replicates=200000"]
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("edit, message", [
    (("dim = 1", "dim = 1\nshift = nan"), "shift must be finite, got (nan,)"),
    (("init = gaussian,0,1", "init = gaussian,0,nan"),
     "gaussian var must be finite, got nan"),
    (("init = gaussian,0,1", "init = uniform,0,inf"),
     "uniform b must be finite, got inf"),
    (("init = gaussian,0,1", "init = uniform,-1e308,1e308"),
     "uniform b - a must be finite, got a=-1e+308, b=1e+308"),
])
def test_cli_non_finite_shift_or_init_exits_2(tmp_path, capsys, edit, message):
    cfg = write_cfg(tmp_path, BASE_CFG.replace(*edit))
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "o.csv")])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [f"error: config: {message}"]


@pytest.mark.parametrize("command, config, message", [
    pytest.param("limit-study", BASE_CFG.replace("scheme = pso", "scheme = cbo"),
                 "limit-study: scheme must be pso or pso_mem, got 'cbo'",
                 id="limit-study-cbo"),
    *(pytest.param("run", MEMORY_CFG.replace(f"{key} = ", f"{key} = -"),
                   f"memory.{field} must be >= 0, got -{value}", id=f"{key}-negative")
      for key, field, value in [("lambda1", "lam1", 1.0), ("lambda2", "lam2", 1.0),
                                ("sigma1", "sigma1", 0.5), ("sigma2", "sigma2", 0.5),
                                ("nu", "nu", 0.5)]),
])
def test_cli_rejected_scheme_or_coefficient_exits_2(tmp_path, capsys, command,
                                                    config, message):
    code = main([command, "--config", write_cfg(tmp_path, config),
                 "--out", str(tmp_path / "o.csv")])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [f"error: config: {message}"]
    assert not (tmp_path / "o.csv").exists()


def test_cli_compare_rejects_dim_2_naming_compare(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE_CFG.replace("dim = 1", "dim = 2"))
    code = main(["compare", "--config", cfg, "--out", str(tmp_path / "o.csv")])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: config: compare requires dim == 1, got dim = 2"]


@pytest.mark.parametrize("times, bad", [("0,inf", "inf"), ("0,-inf", "-inf"),
                                        ("0,nan", "nan")])
def test_cli_compare_non_finite_snapshot_time_exits_2(tmp_path, capsys,
                                                      times, bad):
    cfg = write_cfg(tmp_path)
    code = main(["compare", "--config", cfg, "--snapshot-times", times,
                 "--out", str(tmp_path / "o.csv")])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: config: snapshot_times must be finite, got {bad}"]


@pytest.mark.parametrize("command, flag, value", [
    ("run", "--m-ladder", "0.3"),
    ("run", "--snapshot-times", "5"),
    ("run", "--replicates", "9"),
    ("limit-study", "--snapshot-times", "5"),
    ("compare", "--replicates", "7"),
    ("laplace-check", "--m-ladder", "0.3"),
])
def test_cli_flag_the_subcommand_does_not_read_exits_2(tmp_path, capsys,
                                                       command, flag, value):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "o.csv"
    code = main([command, "--config", cfg, flag, value, "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: config: unrecognized arguments: {flag} {value}"]
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: command"),
    (["run"], "the following arguments are required: --config"),
    (["run", "--config", "x.cfg", "--seed", "one"],
     "argument --seed: invalid int value: 'one'"),
    # a seed outside [0, 2**64) would alias another seed mod 2**64
    *((["run", "--config", "CFG", "--seed", seed, "--out", "OUT"],
       f"seed must be an integer in [0, 2**64), got {seed}")
      for seed in ("-1", "18446744073709551616", "18446744073709551617")),
    *(([command, "--config", "CFG", "--seed", "-1", "--out", "OUT"],
       "seed must be an integer in [0, 2**64), got -1")
      for command in ("limit-study", "compare", "laplace-check")),
    # the study's own check names a bad ladder, not an inertia it never reads
    *((["limit-study", "--config", "CFG", "--m-ladder", ladder, "--out", "OUT"],
       f"m_ladder values must lie in (0, 1/2], got {values}")
      for ladder, values in (("2,0.1", "(2.0, 0.1)"),
                             ("nan,0.1", "(nan, 0.1)"))),
    # a ladder that starts with "-" after a space reaches its own range check
    *(([command, "--config", "CFG", "--m-ladder", ladder, "--out", "OUT"],
       message)
      for command, ladder, message in (
          ("limit-study", "-0.1,0.2",
           "m_ladder values must lie in (0, 1/2], got (-0.1, 0.2)"),
          ("compare", "-0.1", "inertia m must be in (0, 1], got -0.1"),
          ("compare", "-0.1,0.2", "inertia m must be in (0, 1], got -0.1"))),
    # so does one after a flag abbreviated as argparse allows; "--s" could be
    # --seed or --snapshot-times, which argparse reports
    *(([command, "--config", "CFG", flag, value, "--out", "OUT"], message)
      for command, flag, value, message in (
          ("limit-study", "--m-lad", "-0.1,0.05",
           "m_ladder values must lie in (0, 1/2], got (-0.1, 0.05)"),
          ("compare", "--m-lad", "-0.1,0.05",
           "inertia m must be in (0, 1], got -0.1"),
          ("compare", "--m", "-0.1", "inertia m must be in (0, 1], got -0.1"),
          ("compare", "--s", "-1,0.02",
           "ambiguous option: --s could match --seed, --snapshot-times"))),
])
def test_cli_bad_command_line_exits_2_with_one_line(tmp_path, capsys, argv,
                                                    message):
    # "CFG" stands for a valid config file and "OUT" for a fresh output path
    out = tmp_path / "o.csv"
    paths = {"CFG": write_cfg(tmp_path), "OUT": str(out)}
    assert main([paths.get(a, a) for a in argv]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: config: {message}"]
    assert not out.exists()


@pytest.mark.parametrize("flag, value, bad", [("--m-ladder", "0.1,x", "'x'"),
                                              ("--snapshot-times", ",", "''")])
def test_cli_bad_list_flag_names_the_flag_and_the_element(tmp_path, capsys,
                                                          flag, value, bad):
    out = tmp_path / "o.csv"
    code = main(["compare", "--config", write_cfg(tmp_path), f"{flag}={value}",
                 "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [f"error: config: argument {flag}: expected "
                                f"comma-separated numbers, got {bad}"]
    assert "_parse_floats_arg" not in err
    assert not out.exists()


def test_cli_list_flag_takes_a_leading_negative_value_after_a_space(tmp_path):
    # argparse alone reads "-1,0.02" after a space as an unknown option
    cfg = write_cfg(tmp_path)
    outs = []
    # in full and by the prefixes argparse resolves to the flag alone
    for i, form in enumerate((["--snapshot-times=-1,0.02"],
                              ["--snapshot-times", "-1,0.02"],
                              ["--snapshot", "-1,0.02"], ["--sn", "-1,0.02"])):
        out = tmp_path / f"{i}.csv"
        assert main(["compare", "--config", cfg, *form, "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[1:] == outs[:1] * 3


@pytest.mark.parametrize("far, near", [("0,1e308", "0,1e10"), ("-1e308", "0")])
def test_cli_snapshot_times_past_the_float_range_clamp(tmp_path, far, near):
    # t / dt overflows to +-inf; it clamps like any time past either end
    cfg = write_cfg(tmp_path)
    outs = []
    for times in (far, near):
        out = tmp_path / f"{times}.csv"
        assert main(["compare", "--config", cfg, f"--snapshot-times={times}",
                     "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_cli_compare_rejects_an_inertia_past_the_first(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "o.csv"
    code = main(["compare", "--config", cfg, "--m-ladder", "0.1,1.5",
                 "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: config: inertia m must be in (0, 1], got 1.5"]
    assert not out.exists()


def test_cli_out_flag_overrides_config_out_path(tmp_path):
    from_cfg, from_flag = tmp_path / "cfg.csv", tmp_path / "flag.csv"
    cfg = write_cfg(tmp_path, BASE_CFG + f"out_path = {from_cfg}\n")
    assert main(["laplace-check", "--config", cfg, "--out", str(from_flag)]) == 0
    assert from_flag.exists()
    assert not from_cfg.exists()


@pytest.mark.parametrize("command", ["run", "limit-study", "compare",
                                     "laplace-check"])
def test_cli_without_out_path_or_out_flag_exits_2(tmp_path, capsys, command):
    cfg = write_cfg(tmp_path)
    assert main([command, "--config", cfg]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: config: missing required key: out_path (or pass --out)"]


def test_cli_seed_and_replicates_give_the_same_bytes_from_flag_or_config(tmp_path):
    ladder = ["--m-ladder", "0.2,0.1"]
    from_cfg, from_flag = tmp_path / "cfg.csv", tmp_path / "flag.csv"
    cfg = write_cfg(tmp_path, BASE_CFG.replace("seed = 42", "seed = 7")
                    .replace("replicates = 2", "replicates = 3"))
    assert main(["limit-study", "--config", cfg, *ladder,
                 "--out", str(from_cfg)]) == 0
    other = write_cfg(tmp_path, name="other.cfg")  # seed 42, 2 replicates
    assert main(["limit-study", "--config", other, *ladder, "--seed", "7",
                 "--replicates", "3", "--out", str(from_flag)]) == 0
    assert from_flag.read_bytes() == from_cfg.read_bytes()
    rows = [l for l in from_cfg.read_text().splitlines()
            if not l.startswith("#")][1:]
    assert len(rows) == 2 * 3 and all(r.endswith(",7") for r in rows)


def test_cli_seed_flag_stands_in_for_a_missing_config_seed(tmp_path):
    no_seed = write_cfg(tmp_path, BASE_CFG.replace("seed = 42\n", ""))
    with_seed = write_cfg(tmp_path, name="seeded.cfg")
    outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
    assert main(["run", "--config", no_seed, "--seed", "42",
                 "--out", str(outs[0])]) == 0
    assert main(["run", "--config", with_seed, "--out", str(outs[1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
