"""Command-line frontend: ``randskew {lev|bias|solve|sweep}``.

Experiments are described by a flat ``key = value`` config file; command
line ``key=value`` overrides win over the file.  Every run is fully
determined by (config, seed): identical inputs reproduce output files
bitwise.  Numeric fields are written with shortest round-trip decimal
formatting.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

import numpy as np

from . import rng as rsrng
from .biaslab import SrhtScheme, bias_sweep
from .data import (DataSource, SyntheticKind, SyntheticSpec, load_data)
from .debias import DebiasMode
from .errors import (ConfigError, ParseError, RandskewError)
from .optim import (GdMethod, NewtonExactMethod, ProblemKind, GlmProblem,
                    SgdMethod, SparseProjMethod, SsnConfig, SsnMethod,
                    StepRule, reference_point, reference_solution,
                    run_solver)
from .sampling import (PlanKind, approximation_factors, build_plan,
                       exact_leverage_scores, sjlt_approx_leverage)
from .linalg import gram

EXIT_OK = 0
EXIT_IO = 2
EXIT_NUMERICAL = 3
EXIT_CONFIG = 4

_PLAN_NAMES = {k.value: k for k in PlanKind}
_DEBIAS_NAMES = {
    "none": DebiasMode.NONE,
    "scalar": DebiasMode.SCALAR,
    "fine_exact": DebiasMode.FINE_GRAINED_EXACT,
    "fine_approx": DebiasMode.FINE_GRAINED_APPROX,
}
_STEP_NAMES = {r.value: r for r in StepRule}


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def parse_config_file(path: str | Path) -> dict[str, str]:
    cfg: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, value = line.split("=", 1)
            cfg[key.strip()] = value.strip()
    return cfg


class Config:
    """Flat config with typed accessors and unknown-key tracking."""

    def __init__(self, values: dict[str, str]):
        self.values = dict(values)

    def get(self, key, default=None):
        return self.values.get(key, default)

    def get_int(self, key, default=None):
        raw = self.values.get(key)
        if raw is None:
            if default is None:
                raise ConfigError(f"missing integer config key '{key}'")
            return default
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"config key '{key}' is not an integer: {raw}")

    def get_float(self, key, default=None):
        raw = self.values.get(key)
        if raw is None:
            if default is None:
                raise ConfigError(f"missing float config key '{key}'")
            return default
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"config key '{key}' is not a number: {raw}")

    def get_bool(self, key, default=False):
        raw = self.values.get(key)
        if raw is None:
            return default
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"config key '{key}' is not a boolean: {raw}")

    def get_list(self, key, default=None):
        raw = self.values.get(key)
        if raw is None:
            if default is None:
                raise ConfigError(f"missing config key '{key}'")
            return default
        return [tok.strip() for tok in raw.split(",") if tok.strip()]


def _data_source(cfg: Config, seed: int) -> DataSource:
    fmt = cfg.get("data", "synthetic")
    seed = cfg.get_int("data_seed", seed)
    if fmt == "csv":
        path = cfg.get("path")
        if not path:
            raise ConfigError("csv data requires 'path'")
        return DataSource(format="csv", path=path)
    if fmt == "libsvm":
        path = cfg.get("path")
        if not path:
            raise ConfigError("libsvm data requires 'path'")
        return DataSource(format="libsvm", path=path,
                          libsvm_dim=cfg.get_int("libsvm_dim", 0) or None)
    if fmt == "synthetic":
        kind_name = cfg.get("synthetic", "gaussian")
        try:
            kind = SyntheticKind(kind_name)
        except ValueError:
            raise ConfigError(f"unknown synthetic kind '{kind_name}'")
        spec = SyntheticSpec(
            kind=kind,
            n=cfg.get_int("n", 256),
            d=cfg.get_int("d", 16),
            decay=cfg.get_float("decay", 0.5),
            heavy_row_count=cfg.get_int("heavy_rows", 0),
            seed=seed,
        )
        return DataSource(format="synthetic", synthetic=spec)
    raise ConfigError(f"unknown data format '{fmt}'")


def _plan_from_name(name: str, A, C, cfg: Config, seed: int):
    if name == "srht":
        return SrhtScheme(n=A.shape[0])
    if name not in _PLAN_NAMES:
        raise ConfigError(f"unknown sampling plan '{name}'")
    return build_plan(_PLAN_NAMES[name], A, C,
                      mix=cfg.get_float("mix", 0.5),
                      m1=cfg.get_int("m1", 0) or None,
                      m2=cfg.get_int("m2", 0) or None,
                      seed=rsrng.split(seed, 101))


def _write_json_rows(path: Path, header: list[str], rows: list[list]) -> None:
    objs = [dict(zip(header, row)) for row in rows]
    path.write_text(json.dumps(objs, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")


def _write_table(path: Path, fmt: str, header, rows,
                 extra_sections=None) -> None:
    if fmt == "json":
        _write_json_rows(path, header, rows)
        return
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    for sec_header, sec_rows in (extra_sections or []):
        lines.append("")
        lines.append(",".join(sec_header))
        for row in sec_rows:
            lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_sidecar(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")


def _config_echo(cfg: Config, seed: int, command: str) -> dict:
    echo = dict(sorted(cfg.values.items()))
    echo["seed"] = str(seed)
    echo["command"] = command
    return echo


def cmd_lev(cfg: Config, seed: int, out: Path, fmt: str,
            standardize: bool) -> None:
    A, _ = load_data(_data_source(cfg, seed), standardize)
    lam = cfg.get_float("lambda", 0.0)
    C = lam * np.eye(A.shape[1])
    exact = exact_leverage_scores(A, C)

    approx_mode = cfg.get("approx", "none")
    approx = None
    if approx_mode != "none":
        m1 = cfg.get_int("m1", 8 * A.shape[1])
        m2 = cfg.get_int("m2", 0) or None
        if approx_mode == "sjlt":
            approx = sjlt_approx_leverage(A, C, m1, None,
                                          seed=rsrng.split(seed, 101))
        elif approx_mode == "double":
            approx = sjlt_approx_leverage(A, C, m1, m2,
                                          seed=rsrng.split(seed, 101))
        else:
            raise ConfigError(f"unknown approx mode '{approx_mode}'")

    if approx is None:
        header = ["index", "score_exact"]
        rows = [[i, float(exact[i])] for i in range(len(exact))]
    else:
        header = ["index", "score_exact", "score_approx"]
        rows = [[i, float(exact[i]), float(approx[i])]
                for i in range(len(exact))]

    summary_rows = []
    for name in cfg.get_list("plans", ["uniform"]):
        plan = _plan_from_name(name, A, C, cfg, seed)
        if isinstance(plan, SrhtScheme):
            raise ConfigError("srht has no sampling plan summary")
        fac = approximation_factors(plan, exact)
        summary_rows.append([name, float(exact.sum()),
                             fac.rho_min, fac.rho_max])

    _write_table(out, fmt, header, rows, extra_sections=[
        (["plan", "d_eff", "rho_min", "rho_max"], summary_rows)])
    _write_sidecar(out.with_suffix(out.suffix + ".json"), {
        "config": _config_echo(cfg, seed, "lev"),
        "d_eff": float(exact.sum()),
    })


def cmd_bias(cfg: Config, seed: int, out: Path, fmt: str,
             standardize: bool) -> None:
    A, _ = load_data(_data_source(cfg, seed), standardize)
    lam = cfg.get_float("lambda", 0.0)
    C = lam * np.eye(A.shape[1])

    plan_names = cfg.get_list("plans", ["exact_leverage"])
    plan_specs = [(name, _plan_from_name(name, A, C, cfg, seed))
                  for name in plan_names]
    debias_modes = []
    for name in cfg.get_list("debias", ["none", "scalar"]):
        if name not in _DEBIAS_NAMES:
            raise ConfigError(f"unknown debias mode '{name}'")
        debias_modes.append(_DEBIAS_NAMES[name])
    m_grid = [int(tok) for tok in cfg.get_list("m_grid")]
    trials = cfg.get_int("trials", 500)

    results = bias_sweep(A, C, plan_specs, debias_modes, m_grid, trials,
                         seed)
    header = ["scheme", "debias", "m", "trials", "discarded", "bias",
              "stderr_proxy", "eps_def5"]
    rows = []
    for row in results:
        e = row.estimate
        rows.append([row.scheme, row.debias.value, e.m, e.trials,
                     e.discarded, e.bias, e.stderr_proxy, e.eps_two_sided])
    _write_table(out, fmt, header, rows)
    _write_sidecar(out.with_suffix(out.suffix + ".json"), {
        "config": _config_echo(cfg, seed, "bias"),
    })


def _build_method(cfg: Config):
    name = cfg.get("method", "newton")
    if name == "gd":
        return GdMethod(lr=cfg.get_float("lr", 0.5))
    if name == "sgd":
        batch = cfg.get_int("batch", 32)
        if batch < 1:
            raise ConfigError(f"sgd batch must be at least 1, got {batch}")
        return SgdMethod(lr=cfg.get_float("lr", 0.1), batch=batch)
    if name == "newton":
        return NewtonExactMethod(line_search=cfg.get_bool("line_search",
                                                          True))
    if name == "sparse_proj":
        return SparseProjMethod(m=cfg.get_int("m"),
                                nnz_per_row=cfg.get_int("nnz", 4))
    if name == "ssn":
        plan_name = cfg.get("plan", "exact_leverage")
        if plan_name != "srht" and plan_name not in _PLAN_NAMES:
            raise ConfigError(f"unknown sampling plan '{plan_name}'")
        debias_name = cfg.get("debias", "scalar")
        if debias_name not in _DEBIAS_NAMES:
            raise ConfigError(f"unknown debias mode '{debias_name}'")
        step_name = cfg.get("step", "armijo")
        if step_name not in _STEP_NAMES:
            raise ConfigError(f"unknown step rule '{step_name}'")
        config = SsnConfig(
            plan_kind=("srht" if plan_name == "srht"
                       else _PLAN_NAMES[plan_name]),
            m=cfg.get_int("m"),
            debias=_DEBIAS_NAMES[debias_name],
            step_rule=_STEP_NAMES[step_name],
            fixed_step=cfg.get_float("fixed_step", 1.0),
            mix=cfg.get_float("mix", 0.5),
            m1=cfg.get_int("m1", 0) or None,
            m2=cfg.get_int("m2", 0) or None,
        )
        return SsnMethod(config=config)
    raise ConfigError(f"unknown method '{name}'")


def _problem(cfg: Config, seed: int, standardize: bool) -> GlmProblem:
    A, y = load_data(_data_source(cfg, seed), standardize)
    kind_name = cfg.get("problem", "logistic")
    if kind_name == "logistic":
        kind = ProblemKind.LOGISTIC
    elif kind_name == "least_squares":
        kind = ProblemKind.LEAST_SQUARES
    else:
        raise ConfigError(f"unknown problem kind '{kind_name}'")
    return GlmProblem(A, y, cfg.get_float("lambda", 1e-2), kind)


def _trace_rows(trace, zero_timing: bool):
    rows = []
    for rec in trace.records:
        rows.append([rec.t, rec.rel_error_H, rec.grad_norm, rec.step_size,
                     0 if zero_timing else rec.wall_ns])
    return rows


def cmd_solve(cfg: Config, seed: int, out: Path, fmt: str,
              standardize: bool) -> None:
    p = _problem(cfg, seed, standardize)
    method = _build_method(cfg)
    iters = cfg.get_int("iters", 10)
    zero_timing = cfg.get("timing", "real") == "zero"

    reference = None
    ref_grad = None
    if cfg.get_bool("reference", True):
        reference, ref_grad = reference_solution(p)

    trace = run_solver(p, method, np.zeros(p.dim), iters,
                       reference=reference, seed=seed)
    header = ["t", "rel_error_H", "grad_norm", "step_size", "wall_ns"]
    _write_table(out, fmt, header, _trace_rows(trace, zero_timing))
    sidecar = {
        "config": _config_echo(cfg, seed, "solve"),
        "seeds": {"run": seed},
        "beta_star": (None if reference is None
                      else [float(v) for v in reference]),
        "reference_grad_norm": ref_grad,
        "beta_final": [float(v) for v in trace.beta],
    }
    _write_sidecar(out.with_suffix(out.suffix + ".json"), sidecar)


def cmd_sweep(cfg: Config, seed: int, out: Path, fmt: str,
              standardize: bool) -> None:
    p = _problem(cfg, seed, standardize)
    m_grid = [int(tok) for tok in cfg.get_list("m_grid")]
    if any(b <= a for a, b in zip(m_grid, m_grid[1:])):
        raise ConfigError("m_grid must be ascending")
    iters = cfg.get_int("iters", 5)
    replicates = cfg.get_int("replicates", 5)
    zero_timing = cfg.get("timing", "real") == "zero"
    method_name = cfg.get("method", "ssn")

    reference = reference_point(p, reference_solution(p)[0])

    header = ["method", "m", "final_rel_error", "total_wall_ns"]
    rows = []
    for m in m_grid:
        finals = []
        walls = []
        for r in range(replicates):
            sub = Config(dict(cfg.values))
            sub.values["m"] = str(m)
            method = _build_method(sub)
            trace = run_solver(p, method, np.zeros(p.dim), iters,
                               reference=reference,
                               seed=rsrng.split(seed, m, r))
            finals.append(trace.records[-1].rel_error_H)
            walls.append(sum(rec.wall_ns for rec in trace.records))
        rows.append([method_name, m, statistics.median(finals),
                     0 if zero_timing else int(statistics.median(walls))])
    _write_table(out, fmt, header, rows)
    _write_sidecar(out.with_suffix(out.suffix + ".json"), {
        "config": _config_echo(cfg, seed, "sweep"),
    })


_COMMANDS = {"lev": cmd_lev, "bias": cmd_bias, "solve": cmd_solve,
             "sweep": cmd_sweep}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="randskew",
        description="Sketching, inversion-bias, and solver experiments")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=None)
    parser.add_argument("--format", choices=["csv", "json"], default="csv")
    parser.add_argument("--standardize", action="store_true")
    parser.add_argument("overrides", nargs="*",
                        help="key=value pairs overriding the config file")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_intermixed_args(argv)
    try:
        try:
            values = parse_config_file(args.config)
        except OSError as exc:
            print(f"IOError: {exc}", file=sys.stderr)
            return EXIT_IO
        for override in args.overrides:
            if "=" not in override:
                raise ConfigError(f"override '{override}' is not key=value")
            key, value = override.split("=", 1)
            values[key.strip()] = value.strip()
        cfg = Config(values)

        if args.seed is not None:
            seed = args.seed
        elif "seed" in cfg.values:
            seed = cfg.get_int("seed")
        elif os.environ.get("RANDSKEW_SEED"):
            seed = int(os.environ["RANDSKEW_SEED"])
        else:
            raise ConfigError("no seed given (--seed, config 'seed', or "
                              "RANDSKEW_SEED)")

        out = Path(args.out or cfg.get("out") or f"randskew_{args.command}.csv")
        _COMMANDS[args.command](cfg, seed, out, args.format,
                                args.standardize or cfg.get_bool("standardize"))
        return EXIT_OK
    except ConfigError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ParseError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_IO
    except (RandskewError, ValueError, np.linalg.LinAlgError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
