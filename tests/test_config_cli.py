from pathlib import Path

import pytest

from swarmlimit.cli import main
from swarmlimit.config import (
    ConfigError,
    parse_config,
    serialize_config,
)

DATA = Path(__file__).parent / "data"

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


@pytest.mark.filterwarnings("ignore:overflow")
def test_cli_numerical_abort_exits_3(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE_CFG.replace(
        "sigma = 0.57735026918962584", "sigma = 1e200"))
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "o.csv")])
    assert code == 3
    assert "error: numerical:" in capsys.readouterr().err


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
    golden = (DATA / "compare_golden.csv").read_bytes()
    assert out.read_bytes() == golden


def test_cli_compare_header_schema(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "cmp.csv"
    assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    header = next(l for l in lines if not l.startswith("#"))
    assert header == "t,w2,kl,m,seed,bins"


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


@pytest.mark.parametrize("edit, message", [
    (("dim = 1", "dim = 1\nshift = nan"), "shift must be finite, got (nan,)"),
    (("init = gaussian,0,1", "init = gaussian,0,nan"),
     "gaussian var must be finite, got nan"),
    (("init = gaussian,0,1", "init = uniform,0,inf"),
     "uniform b must be finite, got inf"),
])
def test_cli_non_finite_shift_or_init_exits_2(tmp_path, capsys, edit, message):
    cfg = write_cfg(tmp_path, BASE_CFG.replace(*edit))
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "o.csv")])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [f"error: config: {message}"]


def test_cli_compare_rejects_dim_2_naming_compare(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE_CFG.replace("dim = 1", "dim = 2"))
    code = main(["compare", "--config", cfg, "--out", str(tmp_path / "o.csv")])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: config: compare requires dim == 1, got dim = 2"]
