import json

import numpy as np
import pytest

from randskew.cli import main, parse_config_file
from randskew.errors import NotPositiveDefinite
from randskew.linalg import cholesky, gram
from randskew.optim import GlmProblem, ProblemKind, objective_eval
from randskew.sampling import PlanKind


def run_cli(args):
    return main(args)


def write_cfg(tmp_path, name, text):
    f = tmp_path / name
    f.write_text(text)
    return str(f)


LEV_CFG = """
data = synthetic
synthetic = counterexample
n = 8
d = 4
lambda = 0.0
plans = uniform
"""

SOLVE_CFG = """
data = synthetic
synthetic = gaussian
n = 128
d = 8
lambda = 0.01
problem = logistic
method = ssn
plan = exact_leverage
debias = scalar
step = armijo
m = 64
iters = 5
timing = zero
"""


def test_parse_config_file(tmp_path):
    path = write_cfg(tmp_path, "a.cfg", "x = 1\n# comment\ny = two words\n")
    assert parse_config_file(path) == {"x": "1", "y": "two words"}


def test_lev_counterexample_scores(tmp_path):
    cfg = write_cfg(tmp_path, "lev.cfg", LEV_CFG)
    out = tmp_path / "lev.csv"
    assert run_cli(["lev", "--config", cfg, "--seed", "1",
                    "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "index,score_exact"
    scores = [float(line.split(",")[1]) for line in lines[1:9]]
    assert scores[0] == pytest.approx(0.25, abs=1e-12)
    assert scores[1] == pytest.approx(0.75, abs=1e-12)


def test_lev_identity_scores(tmp_path):
    cfg = write_cfg(tmp_path, "lev.cfg", LEV_CFG)
    out = tmp_path / "lev.csv"
    assert run_cli(["lev", "--config", cfg, "--seed", "1", "--out",
                    str(out), "synthetic=gaussian", "n=4", "d=4"]) == 0
    # a square Gaussian matrix has full rank, so every score is 1
    lines = out.read_text().splitlines()
    scores = [float(line.split(",")[1]) for line in lines[1:5]]
    assert np.allclose(scores, 1.0)


def test_lev_exact_vs_sjlt_correlation(tmp_path):
    cfg = write_cfg(tmp_path, "lev.cfg", LEV_CFG)
    out = tmp_path / "lev.csv"
    assert run_cli(["lev", "--config", cfg, "--seed", "2", "--out", str(out),
                    "synthetic=coherent", "n=256", "d=8", "heavy_rows=16",
                    "lambda=0.01", "approx=sjlt", "m1=64"]) == 0
    lines = out.read_text().splitlines()
    rows = [line.split(",") for line in lines[1:257]]
    exact = np.array([float(r[1]) for r in rows])
    approx = np.array([float(r[2]) for r in rows])
    assert np.corrcoef(exact, approx)[0, 1] > 0.9


def test_bias_single_cell_matches_library(tmp_path):
    cfg = write_cfg(tmp_path, "bias.cfg", """
data = synthetic
synthetic = counterexample
n = 8
d = 4
lambda = 0.0
plans = exact_leverage
debias = none
m_grid = 32
trials = 64
""")
    out = tmp_path / "bias.csv"
    assert run_cli(["bias", "--config", cfg, "--seed", "7",
                    "--out", str(out)]) == 0
    line = out.read_text().splitlines()[1].split(",")

    from randskew import rng as rsrng
    from randskew.biaslab import estimate_bias
    from randskew.data import counterexample_matrix
    from randskew.debias import DebiasSpec
    from randskew.sampling import PlanKind, build_plan
    A = counterexample_matrix(4)
    C = np.zeros((4, 4))
    plan = build_plan(PlanKind.EXACT_LEVERAGE, A, C,
                      seed=rsrng.split(7, 101))
    direct = estimate_bias(plan, DebiasSpec.none(), 32, 64,
                           rsrng.split(7, 0, 0, 0))
    assert float(line[5]) == direct.bias  # repr round-trips exactly


def test_bias_sketch_too_small_is_numerical_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "bias.cfg", """
data = synthetic
synthetic = counterexample
n = 8
d = 4
lambda = 0.0
plans = exact_leverage
debias = scalar
m_grid = 4
trials = 16
""")
    code = run_cli(["bias", "--config", cfg, "--seed", "1",
                    "--out", str(tmp_path / "x.csv")])
    assert code == 3
    assert "SketchTooSmall" in capsys.readouterr().err


def test_solve_newton_quadratic_one_step(tmp_path):
    cfg = write_cfg(tmp_path, "solve.cfg", SOLVE_CFG)
    out = tmp_path / "solve.csv"
    assert run_cli(["solve", "--config", cfg, "--seed", "3", "--out",
                    str(out), "method=newton", "line_search=false",
                    "problem=least_squares", "iters=2"]) == 0
    rows = out.read_text().splitlines()
    rel_at_1 = float(rows[2].split(",")[1])
    assert rel_at_1 <= 1e-20


def test_solve_sidecar_contents(tmp_path):
    cfg = write_cfg(tmp_path, "solve.cfg", SOLVE_CFG)
    out = tmp_path / "solve.csv"
    assert run_cli(["solve", "--config", cfg, "--seed", "3",
                    "--out", str(out)]) == 0
    sidecar = json.loads((tmp_path / "solve.csv.json").read_text())
    assert sidecar["config"]["seed"] == "3"
    assert len(sidecar["beta_star"]) == 8
    assert sidecar["reference_grad_norm"] < 1e-12


def test_solve_determinism(tmp_path):
    cfg = write_cfg(tmp_path, "solve.cfg", SOLVE_CFG)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(["solve", "--config", cfg, "--seed", "3", "--out", str(a)])
    run_cli(["solve", "--config", cfg, "--seed", "3", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.csv.json").read_text().replace("a.csv", "") == \
        (tmp_path / "b.csv.json").read_text().replace("b.csv", "")


def test_sweep_singleton_matches_solve_final_row(tmp_path):
    cfg = write_cfg(tmp_path, "solve.cfg", SOLVE_CFG)
    sweep_out = tmp_path / "sweep.csv"
    assert run_cli(["sweep", "--config", cfg, "--seed", "5", "--out",
                    str(sweep_out), "m_grid=64", "replicates=1"]) == 0
    final_rel = float(sweep_out.read_text().splitlines()[1].split(",")[2])

    from randskew import rng as rsrng
    solve_out = tmp_path / "solve.csv"
    assert run_cli(["solve", "--config", cfg,
                    "--seed", str(rsrng.split(5, 64, 0)),
                    "--out", str(solve_out), "data_seed=5"]) == 0
    solve_final = float(solve_out.read_text().splitlines()[-1].split(",")[1])
    assert final_rel == solve_final


def test_sweep_error_decreases_in_m(tmp_path):
    cfg = write_cfg(tmp_path, "solve.cfg", SOLVE_CFG)
    out = tmp_path / "sweep.csv"
    assert run_cli(["sweep", "--config", cfg, "--seed", "11", "--out",
                    str(out), "problem=least_squares", "step=analytic",
                    "m_grid=32,64,128,256", "replicates=5", "iters=5"]) == 0
    finals = [float(line.split(",")[2])
              for line in out.read_text().splitlines()[1:]]
    assert all(b < a for a, b in zip(finals, finals[1:]))


def test_missing_seed_is_config_error(tmp_path, monkeypatch):
    monkeypatch.delenv("RANDSKEW_SEED", raising=False)
    cfg = write_cfg(tmp_path, "lev.cfg", LEV_CFG)
    assert run_cli(["lev", "--config", cfg,
                    "--out", str(tmp_path / "x.csv")]) == 4


def test_seed_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("RANDSKEW_SEED", "9")
    cfg = write_cfg(tmp_path, "lev.cfg", LEV_CFG)
    assert run_cli(["lev", "--config", cfg,
                    "--out", str(tmp_path / "x.csv")]) == 0
    sidecar = json.loads((tmp_path / "x.csv.json").read_text())
    assert sidecar["config"]["seed"] == "9"


def test_non_integer_seed_variable_is_config_error(tmp_path, monkeypatch,
                                                   capsys):
    monkeypatch.setenv("RANDSKEW_SEED", "abc")
    cfg = write_cfg(tmp_path, "lev.cfg", LEV_CFG)
    out = tmp_path / "x.csv"
    assert run_cli(["lev", "--config", cfg, "--out", str(out)]) == 4
    assert "ConfigError: RANDSKEW_SEED cannot be 'abc'" in (
        capsys.readouterr().err)
    assert not out.exists()


def test_missing_config_file_is_io_error(tmp_path, capsys):
    assert run_cli(["lev", "--config", str(tmp_path / "nope.cfg"),
                    "--seed", "1"]) == 2
    assert capsys.readouterr().err.startswith("FileNotFoundError: ")


def test_json_format_output(tmp_path):
    cfg = write_cfg(tmp_path, "lev.cfg", LEV_CFG)
    out = tmp_path / "lev.json"
    assert run_cli(["lev", "--config", cfg, "--seed", "1", "--out",
                    str(out), "--format", "json"]) == 0
    rows = json.loads(out.read_text())
    assert rows[0]["score_exact"] == pytest.approx(0.25, abs=1e-12)


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_json_format_writes_missing_error_as_null(tmp_path):
    # without a reference the error column is NaN: null in JSON, nan in CSV
    cfg = write_cfg(tmp_path, "solve.cfg", SOLVE_CFG)
    out = tmp_path / "solve.json"
    assert run_cli(["solve", "--config", cfg, "--seed", "3", "--out",
                    str(out), "--format", "json", "reference=false"]) == 0
    rows = json.loads(out.read_text(), parse_constant=_reject_constant)
    sidecar = json.loads(out.with_suffix(".json.json").read_text(),
                         parse_constant=_reject_constant)
    assert [row["rel_error_H"] for row in rows] == [None] * 6
    assert all(np.isfinite(row["grad_norm"]) for row in rows)
    assert sidecar["beta_star"] is None
    csv_out = tmp_path / "solve.csv"
    assert run_cli(["solve", "--config", cfg, "--seed", "3", "--out",
                    str(csv_out), "reference=false"]) == 0
    assert csv_out.read_text().splitlines()[1].split(",")[1] == "nan"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_lev_plan_summary_is_in_the_sidecar(tmp_path, fmt):
    cfg = write_cfg(tmp_path, "lev.cfg", LEV_CFG)
    out = tmp_path / f"lev.{fmt}"
    assert run_cli(["lev", "--config", cfg, "--seed", "1", "--out", str(out),
                    "--format", fmt, "plans=uniform,exact_leverage"]) == 0
    plans = json.loads(out.with_suffix(f".{fmt}.json").read_text())["plans"]
    assert [row["plan"] for row in plans] == ["uniform", "exact_leverage"]
    # the counterexample's scores are 1/4, 3/4 and six 1/2 (d_eff = 4)
    assert np.allclose(
        [[row["d_eff"], row["rho_min"], row["rho_max"]] for row in plans],
        [[4.0, 0.5, 1.5], [4.0, 1.0, 1.0]])


BIAS_CFG = """
data = synthetic
synthetic = coherent
n = 64
d = 4
heavy_rows = 4
lambda = 0.01
plans = exact_leverage
debias = none
m_grid = 32,48
trials = 16
"""


@pytest.mark.parametrize("command, overrides", [
    ("bias", ["plans=approx_leverage", "m1=abc"]),
    ("solve", ["plan=approx_leverage", "m2=1.5"]),
    ("solve", ["data=libsvm", "path=absent.svm", "libsvm_dim=x"]),
    ("lev", ["approx=sjlt", "m1=abc"]),
], ids=["m1", "m2", "libsvm_dim", "lev-m1"])
def test_non_integer_key_is_config_error(tmp_path, command, overrides):
    cfg = write_cfg(tmp_path, "c.cfg", {"bias": BIAS_CFG, "lev": LEV_CFG}.get(
        command, SOLVE_CFG))
    assert run_cli([command, "--config", cfg, "--seed", "1", "--out",
                    str(tmp_path / "x.csv"), *overrides]) == 4


@pytest.mark.parametrize("command, overrides, message", [
    ("bias", ["plans=srht", "debias=fine_exact"], "only supports scalar"),
    ("solve", ["plan=srht", "debias=fine_exact"], "only supports scalar"),
    ("solve", ["plan=uniform", "debias=fine_approx"],
     "needs approximate leverage scores"),
    ("bias", ["plans=sjlt", "debias=fine_approx"], "only supports scalar"),
    ("solve", ["plan=sjlt", "debias=fine_exact"], "only supports scalar"),
], ids=["bias-srht-fine", "solve-srht-fine", "solve-uniform-fine-approx",
        "bias-sjlt-fine", "solve-sjlt-fine"])
def test_unsupported_debias_is_numerical_error(tmp_path, capsys, command,
                                               overrides, message):
    cfg = write_cfg(tmp_path, "c.cfg",
                    BIAS_CFG if command == "bias" else SOLVE_CFG)
    assert run_cli([command, "--config", cfg, "--seed", "1", "--out",
                    str(tmp_path / "x.csv"), *overrides]) == 3
    assert message in capsys.readouterr().err


def test_bias_fine_approx_on_exact_leverage_equals_fine_exact(tmp_path):
    # an exact-leverage plan's own scores are the exact scores
    cfg = write_cfg(tmp_path, "bias.cfg", BIAS_CFG)
    cells = {}
    for mode in ("fine_exact", "fine_approx"):
        out = tmp_path / f"{mode}.csv"
        assert run_cli(["bias", "--config", cfg, "--seed", "4", "--out",
                        str(out), f"debias={mode}"]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        cells[mode] = [[r[0]] + r[2:] for r in rows]
    assert len(cells["fine_exact"]) == 2
    assert cells["fine_approx"] == cells["fine_exact"]


def test_sgd_batch_below_one_is_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.cfg", SOLVE_CFG)
    assert run_cli(["solve", "--config", cfg, "--seed", "1", "--out",
                    str(tmp_path / "x.csv"), "method=sgd", "batch=0"]) == 4
    assert "batch" in capsys.readouterr().err


@pytest.mark.parametrize("replicates", ["0", "-1"])
def test_sweep_replicates_below_one_is_config_error(tmp_path, capsys,
                                                    monkeypatch, replicates):
    from randskew import cli
    monkeypatch.setattr(cli, "reference_solution", None)  # never reached
    cfg = write_cfg(tmp_path, "c.cfg", SOLVE_CFG)
    out = tmp_path / "x.csv"
    assert run_cli(["sweep", "--config", cfg, "--seed", "1", "--out",
                    str(out), "m_grid=32", f"replicates={replicates}"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("ConfigError: sweep replicates must be at least 1")
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_diverging_solver_is_numerical_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.cfg", SOLVE_CFG)
    out = tmp_path / "x.csv"
    assert run_cli(["solve", "--config", cfg, "--seed", "1", "--out",
                    str(out), "n=100", "d=4", "problem=least_squares",
                    "method=gd", "lr=1e3", "iters=300"]) == 3
    # numpy's overflow warnings stay silent: one line, the error
    err = capsys.readouterr().err
    assert err.startswith("NoConvergence: iterate ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not out.exists()


@pytest.mark.parametrize("command, overrides", [
    ("bias", ["m_grid=32,x"]),
    ("bias", ["m_grid=64,32"]),
    ("bias", ["m_grid="]),
    ("bias", ["plans="]),
    ("sweep", ["m_grid=32,x"]),
    ("sweep", ["m_grid=64,32"]),
    ("sweep", ["m_grid="]),
    ("solve", ["timing=x"]),
    ("sweep", ["timing=x", "m_grid=64"]),
    ("lev", ["plans=srht"]),
    ("lev", ["plans=sjlt"]),
], ids=["bias-m_grid-int", "bias-m_grid-order", "bias-m_grid-empty",
        "bias-plans-empty", "sweep-m_grid-int", "sweep-m_grid-order",
        "sweep-m_grid-empty", "solve-timing", "sweep-timing",
        "lev-plans-srht", "lev-plans-sjlt"])
def test_bad_value_is_config_error_and_writes_nothing(tmp_path, command,
                                                      overrides):
    cfg = write_cfg(tmp_path, "c.cfg",
                    BIAS_CFG if command == "bias" else SOLVE_CFG)
    out = tmp_path / "x.csv"
    assert run_cli([command, "--config", cfg, "--seed", "1", "--out",
                    str(out), *overrides]) == 4
    assert list(tmp_path.iterdir()) == [tmp_path / "c.cfg"]


def test_config_error_names_key_and_value():
    from randskew.cli import Config
    from randskew.errors import ConfigError
    cfg = Config({"n": "ten"})
    with pytest.raises(ConfigError, match="'n'.*'ten'"):
        cfg.get("n", 256, int)
    with pytest.raises(ConfigError, match="missing config key 'd'"):
        cfg.get("d", parse=int)
    assert cfg.get("d", 16, int) == 16


def test_lev_double_approx_uses_default_second_width(tmp_path):
    cfg = write_cfg(tmp_path, "lev.cfg", LEV_CFG)
    columns = {}
    for mode in ("sjlt", "double"):
        out = tmp_path / f"{mode}.csv"
        assert run_cli(["lev", "--config", cfg, "--seed", "6", "--out",
                        str(out), f"approx={mode}"]) == 0
        columns[mode] = [float(line.split(",")[2])
                         for line in out.read_text().splitlines()[1:9]]

    from randskew import rng as rsrng
    from randskew.data import counterexample_matrix
    from randskew.sampling import PlanKind, build_plan
    plan = build_plan(PlanKind.DOUBLE_SKETCH_APPROX_LEVERAGE,
                      counterexample_matrix(4), np.zeros((4, 4)),
                      seed=rsrng.split(6, 101))
    assert columns["double"] != columns["sjlt"]
    assert columns["double"] == plan.scores.tolist()


def test_lev_approx_m1_zero_means_the_default_width(tmp_path):
    # m1 = 0 means unset (8 d) for the approx column, as for every plan
    cfg = write_cfg(tmp_path, "lev.cfg", LEV_CFG)
    outputs = []
    for overrides in ([], ["m1=0"]):
        out = tmp_path / f"lev{len(overrides)}.csv"
        assert run_cli(["lev", "--config", cfg, "--seed", "6", "--out",
                        str(out), "approx=sjlt", *overrides]) == 0
        outputs.append(out.read_text())
    assert outputs[0].splitlines()[0] == "index,score_exact,score_approx"
    assert outputs[1] == outputs[0]


def test_sweep_without_method_labels_rows_newton(tmp_path):
    cfg = write_cfg(tmp_path, "c.cfg",
                    "\n".join(line for line in SOLVE_CFG.splitlines()
                              if not line.startswith("method")))
    out = tmp_path / "sweep.csv"
    assert run_cli(["sweep", "--config", cfg, "--seed", "1", "--out",
                    str(out), "m_grid=16,32", "replicates=1"]) == 0
    assert [line.split(",")[0] for line in out.read_text().splitlines()] == [
        "method", "newton", "newton"]


@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_negative_iters_is_numerical_error_and_writes_nothing(
        tmp_path, capsys, monkeypatch, command):
    from randskew import cli
    monkeypatch.setattr(cli, "reference_solution", None)  # never reached
    cfg = write_cfg(tmp_path, "c.cfg", SOLVE_CFG)
    out = tmp_path / "x.csv"
    assert run_cli([command, "--config", cfg, "--seed", "1", "--out",
                    str(out), "iters=-1", "m_grid=32"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("ValueError: iters must be at least 0")
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == [tmp_path / "c.cfg"]


@pytest.mark.parametrize("key", ["plan=nope", "step=sideways"])
def test_sweep_refuses_a_bad_method_key_before_its_reference(
        tmp_path, capsys, monkeypatch, key):
    from randskew import cli
    monkeypatch.setattr(cli, "reference_solution", None)  # never reached
    cfg = write_cfg(tmp_path, "c.cfg", SOLVE_CFG)
    out = tmp_path / "x.csv"
    assert run_cli(["sweep", "--config", cfg, "--seed", "1", "--out",
                    str(out), key, "m_grid=32"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("ConfigError: ") and key.split("=")[0] in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == [tmp_path / "c.cfg"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_data_without_rows_is_refused_before_any_iterate(tmp_path, capsys,
                                                         command):
    cfg = write_cfg(tmp_path, "c.cfg", SOLVE_CFG)
    out = tmp_path / "x.csv"
    assert run_cli([command, "--config", cfg, "--seed", "1", "--out",
                    str(out), "synthetic=coherent", "n=0", "heavy_rows=0",
                    "m_grid=32"]) == 3
    assert capsys.readouterr().err == (
        "ValueError: A must have at least one row\n")
    assert list(tmp_path.iterdir()) == [tmp_path / "c.cfg"]


@pytest.mark.parametrize("command", ["lev", "bias"])
def test_negative_lambda_is_numerical_error(tmp_path, capsys, command):
    cfg = write_cfg(tmp_path, "c.cfg",
                    BIAS_CFG if command == "bias" else LEV_CFG)
    assert run_cli([command, "--config", cfg, "--seed", "1", "--out",
                    str(tmp_path / "x.csv"), "lambda=-5"]) == 3
    assert capsys.readouterr().err.startswith(
        "ValueError: lambda must be nonnegative")


@pytest.mark.parametrize("command", ["lev", "bias", "solve"])
@pytest.mark.parametrize("lam", ["nan", "inf"])
def test_non_finite_lambda_is_numerical_error(tmp_path, capsys, command,
                                              lam):
    cfg = write_cfg(tmp_path, "c.cfg", {"bias": BIAS_CFG, "lev": LEV_CFG}.get(
        command, SOLVE_CFG))
    assert run_cli([command, "--config", cfg, "--seed", "1", "--out",
                    str(tmp_path / "x.csv"), f"lambda={lam}"]) == 3
    assert capsys.readouterr().err == (
        f"ValueError: lambda must be nonnegative and finite, got {lam}\n")
    assert list(tmp_path.iterdir()) == [tmp_path / "c.cfg"]


@pytest.mark.parametrize("command", ["lev", "bias", "solve"])
@pytest.mark.parametrize("source", ["d=0", "labels_only"])
def test_data_without_columns_is_numerical_error(tmp_path, capsys, command,
                                                 source):
    overrides = ["synthetic=gaussian", "d=0"]
    if source == "labels_only":
        path = tmp_path / "labels.svm"
        path.write_text("1\n-1\n1\n")
        overrides = ["data=libsvm", f"path={path}"]
    cfg = write_cfg(tmp_path, "c.cfg", {"bias": BIAS_CFG, "lev": LEV_CFG}.get(
        command, SOLVE_CFG))
    assert run_cli([command, "--config", cfg, "--seed", "1", "--out",
                    str(tmp_path / "x.csv"), *overrides]) == 3
    assert capsys.readouterr().err.startswith(
        "ValueError: gram requires at least one column")


def test_sjlt_empty_sketch_is_numerical_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.cfg", SOLVE_CFG)
    out = tmp_path / "x.csv"
    assert run_cli(["solve", "--config", cfg, "--seed", "1", "--out",
                    str(out), "plan=sjlt", "debias=none", "m=0"]) == 3
    assert capsys.readouterr().err == (
        "SketchTooSmall: sketch size m=0 must be at least 1\n")
    assert list(tmp_path.iterdir()) == [tmp_path / "c.cfg"]


def test_sjlt_analytic_step_is_numerical_error(tmp_path, capsys):
    # the paper gives the SJLT no approximation factor rho_max
    cfg = write_cfg(tmp_path, "c.cfg", SOLVE_CFG)
    assert run_cli(["solve", "--config", cfg, "--seed", "1", "--out",
                    str(tmp_path / "x.csv"), "plan=sjlt",
                    "step=analytic"]) == 3
    assert capsys.readouterr().err.startswith(
        "ValueError: the sjlt plan has no rho_max")
    assert list(tmp_path.iterdir()) == [tmp_path / "c.cfg"]


@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_sjlt_analytic_step_is_refused_before_the_reference(
        tmp_path, capsys, monkeypatch, command):
    # the refusal depends on the config alone, so it comes before the
    # reference solve, on a forked worker or not
    from randskew import cli
    monkeypatch.setattr(cli, "reference_solution", None)  # never reached
    cfg = write_cfg(tmp_path, "c.cfg", SOLVE_CFG)
    assert run_cli([command, "--config", cfg, "--seed", "1", "--out",
                    str(tmp_path / "x.csv"), "plan=sjlt", "step=analytic",
                    "m_grid=32"]) == 3
    assert capsys.readouterr().err.startswith(
        "ValueError: the sjlt plan has no rho_max")
    assert list(tmp_path.iterdir()) == [tmp_path / "c.cfg"]


def test_sparse_proj_method_is_config_error(tmp_path, capsys):
    # the sparse projection is the ssn method with plan = sjlt
    cfg = write_cfg(tmp_path, "c.cfg", SOLVE_CFG)
    assert run_cli(["solve", "--config", cfg, "--seed", "1", "--out",
                    str(tmp_path / "x.csv"), "method=sparse_proj"]) == 4
    assert capsys.readouterr().err == (
        "ConfigError: unknown method 'sparse_proj'\n")
    assert list(tmp_path.iterdir()) == [tmp_path / "c.cfg"]


def test_impossible_size_is_numerical_error(tmp_path, capsys):
    # numpy refuses this allocation at once (hundreds of TiB); nothing is
    # allocated
    cfg = write_cfg(tmp_path, "c.cfg", LEV_CFG)
    out = tmp_path / "x.csv"
    assert run_cli(["lev", "--config", cfg, "--seed", "1", "--out",
                    str(out), "synthetic=gaussian",
                    "n=10000000000000"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("MemoryError: ")
    assert "(10000000000000, 4)" in err
    assert err.count("\n") == 1
    assert not out.exists()


def _csv_data(tmp_path, A):
    """A CSV of the features A and alternating +-1 labels, and its config."""
    y = np.where(np.arange(len(A)) % 2, 1.0, -1.0)
    path = tmp_path / "data.csv"
    np.savetxt(path, np.c_[A, y], delimiter=",")
    return write_cfg(tmp_path, "c.cfg", f"data = csv\npath = {path}\n"), y


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", [k.value for k in PlanKind])
def test_overflowing_gram_is_refused_alike_by_every_plan_kind(tmp_path,
                                                              capsys, kind):
    # one finite entry of 1e200 makes A^T A overflow: every plan kind
    # refuses its H (or the Gram that estimates it) with one line and no
    # numpy warning
    A = np.random.default_rng(0).standard_normal((64, 4))
    A[3, 1] = 1e200
    cfg, _ = _csv_data(tmp_path, A)
    assert run_cli(["bias", "--config", cfg, "--seed", "1", "--out",
                    str(tmp_path / "x.csv"), "debias=scalar", "m_grid=16",
                    f"plans={kind}"]) == 3
    assert capsys.readouterr().err == (
        "NotPositiveDefinite: A^T A + C has NaN or infinite entries: A or C "
        "is not finite, or A^T A overflows\n")


@pytest.mark.parametrize("command, overrides", [
    ("lev", []),
    ("bias", ["plans=uniform,srht", "m_grid=16,32", "trials=20"]),
    ("solve", ["method=ssn", "plan=uniform", "debias=none", "m=16"]),
], ids=["lev", "bias", "solve"])
def test_singular_gram_is_refused_at_its_cholesky(tmp_path, capsys, command,
                                                  overrides):
    # lambda = 0 and a repeated column: H = A^T A is singular.  lev and
    # bias refuse at the plans' factor of H; solve at its reference's
    # factor of the Hessian at beta = 0, which fails first in serial order
    A = np.random.default_rng(5).standard_normal((64, 4))
    A[:, 3] = A[:, 0]
    cfg, y = _csv_data(tmp_path, A)
    if command == "solve":
        p = GlmProblem(A, y, 0.0, ProblemKind.LOGISTIC)
        A = objective_eval(p, np.zeros(4)).factor
    with pytest.raises(NotPositiveDefinite) as refused:
        cholesky(gram(A) + np.zeros((4, 4)))
    assert run_cli([command, "--config", cfg, "--seed", "1", "--out",
                    str(tmp_path / "x.csv"), "lambda=0", *overrides]) == 3
    assert capsys.readouterr().err == f"NotPositiveDefinite: {refused.value}\n"
