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
import math
import os
import statistics
import sys
from pathlib import Path

import numpy as np

from . import _lapack, parallel, rng as rsrng
from .biaslab import bias_sweep
from .data import (DataSource, SyntheticKind, SyntheticSpec, load_data)
from .debias import DebiasMode
from .errors import (ConfigError, ParseError, RandskewError)
from .optim import (NewtonExactMethod, ProblemKind, GlmProblem, SsnMethod,
                    StepRule, check_iters, check_lambda, reference_point,
                    reference_solution, run_solver)
from .sampling import (PlanHessian, PlanKind, approximation_factors,
                       build_plan)

EXIT_OK = 0
EXIT_IO = 2
EXIT_NUMERICAL = 3
EXIT_CONFIG = 4

# name tables for keys whose accepted words are not an enum's values
_DEBIAS_NAMES = {
    "none": DebiasMode.NONE,
    "scalar": DebiasMode.SCALAR,
    "fine_exact": DebiasMode.FINE_GRAINED_EXACT,
    "fine_approx": DebiasMode.FINE_GRAINED_APPROX,
}
_APPROX_NAMES = {"none": None, "sjlt": PlanKind.APPROX_LEVERAGE,
                 "double": PlanKind.DOUBLE_SKETCH_APPROX_LEVERAGE}
_TIMING_NAMES = {"real": False, "zero": True}   # value: blank wall_ns
_BOOL_NAMES = {**dict.fromkeys(("1", "true", "yes", "on"), True),
               **dict.fromkeys(("0", "false", "no", "off"), False)}
_REQUIRED = object()
# variables through which a user sets the BLAS thread count
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS")


def _bool(raw: str) -> bool:
    return _BOOL_NAMES[raw.lower()]


def _list_of(parse):
    """A parser for a nonempty comma-separated list of ``parse`` items."""
    def parse_list(raw: str) -> list:
        items = [parse(tok.strip()) for tok in raw.split(",") if tok.strip()]
        if not items:
            raise ValueError("the list is empty")
        return items
    return parse_list


def _m_grid(raw: str) -> list[int]:
    grid = _list_of(int)(raw)
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("m_grid must be ascending")
    return grid


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
    """Flat ``key = value`` strings, read through one typed accessor."""

    def __init__(self, values: dict[str, str]):
        self.values = dict(values)

    def get(self, key: str, default=_REQUIRED, parse=str):
        """``parse`` of the key's string, or ``default`` when it is absent.

        A missing key without a default, or a value that ``parse`` rejects
        with ``ValueError`` or ``KeyError``, raises :class:`ConfigError`.
        """
        raw = self.values.get(key)
        if raw is None:
            if default is _REQUIRED:
                raise ConfigError(f"missing config key '{key}'")
            return default
        try:
            return parse(raw)
        except ValueError as exc:
            raise ConfigError(
                f"config key '{key}' cannot be '{raw}': {exc}") from exc
        except KeyError as exc:
            raise ConfigError(f"config key '{key}' cannot be '{raw}'") from exc


def _data_source(cfg: Config, seed: int) -> DataSource:
    fmt = cfg.get("data", "synthetic")
    seed = cfg.get("data_seed", seed, int)
    if fmt == "synthetic":
        spec = SyntheticSpec(
            kind=cfg.get("synthetic", SyntheticKind.GAUSSIAN_IID,
                         SyntheticKind),
            n=cfg.get("n", 256, int),
            d=cfg.get("d", 16, int),
            decay=cfg.get("decay", 0.5, float),
            heavy_row_count=cfg.get("heavy_rows", 0, int),
            seed=seed,
        )
        return DataSource(format="synthetic", synthetic=spec)
    if fmt not in ("csv", "libsvm"):
        raise ConfigError(f"unknown data format '{fmt}'")
    path = cfg.get("path", None)
    if not path:
        raise ConfigError(f"{fmt} data requires 'path'")
    if fmt == "csv":
        return DataSource(format="csv", path=path)
    return DataSource(format="libsvm", path=path,
                      libsvm_dim=cfg.get("libsvm_dim", 0, int) or None)


def _plan_options(cfg: Config) -> dict:
    """The plan keys ``build_plan`` and ``SsnMethod`` share; an ``m1`` or
    ``m2`` of 0 means unset."""
    return {"mix": cfg.get("mix", 0.5, float),
            "m1": cfg.get("m1", 0, int) or None,
            "m2": cfg.get("m2", 0, int) or None}


def _make_plan(kind: PlanKind, hessian: PlanHessian, cfg: Config, seed: int):
    return build_plan(kind, hessian, **_plan_options(cfg),
                      seed=rsrng.split(seed, 101))


def _ridge(cfg: Config, d: int) -> np.ndarray:
    """C = lambda I of ``lev`` and ``bias``."""
    return check_lambda(cfg.get("lambda", 0.0, float)) * np.eye(d)


def cmd_lev(cfg: Config, seed: int, standardize: bool):
    A, _ = load_data(_data_source(cfg, seed), standardize)
    C = _ridge(cfg, A.shape[1])
    approx_kind = cfg.get("approx", None, _APPROX_NAMES.__getitem__)
    kinds = cfg.get("plans", [PlanKind.UNIFORM], _list_of(PlanKind))
    for kind in kinds:
        if not kind.has_probs:
            raise ConfigError(f"{kind.value} has no sampling plan summary")
    hessian = PlanHessian(A, C)   # one Gram and factor for every plan
    plans = {kind: _make_plan(kind, hessian, cfg, seed)
             for kind in dict.fromkeys(kinds)}
    exact = hessian.exact

    header, columns = ["index", "score_exact"], [exact]
    if approx_kind is not None:
        # a plan of the same kind, options and seed has the same scores
        approx = plans.get(approx_kind) or _make_plan(approx_kind, hessian,
                                                      cfg, seed)
        header.append("score_approx")
        columns.append(approx.scores)
    rows = [[i, *(float(col[i]) for col in columns)]
            for i in range(len(exact))]

    summary = []
    for plan in (plans[kind] for kind in kinds):
        fac = approximation_factors(plan)
        summary.append({"plan": plan.kind.value, "d_eff": hessian.d_eff,
                        "rho_min": fac.rho_min, "rho_max": fac.rho_max})
    return header, rows, {"d_eff": hessian.d_eff, "plans": summary}


def cmd_bias(cfg: Config, seed: int, standardize: bool):
    A, _ = load_data(_data_source(cfg, seed), standardize)
    C = _ridge(cfg, A.shape[1])

    kinds = cfg.get("plans", [PlanKind.EXACT_LEVERAGE], _list_of(PlanKind))
    hessian = PlanHessian(A, C)   # one Gram and factor for every plan
    plans = [_make_plan(kind, hessian, cfg, seed) for kind in kinds]
    debias_modes = cfg.get("debias", [DebiasMode.NONE, DebiasMode.SCALAR],
                           _list_of(_DEBIAS_NAMES.__getitem__))
    results = bias_sweep(plans, debias_modes,
                         cfg.get("m_grid", parse=_m_grid),
                         cfg.get("trials", 500, int), seed)
    header = ["scheme", "debias", "m", "trials", "discarded", "bias",
              "stderr_proxy", "eps_def5"]
    rows = []
    for row in results:
        e = row.estimate
        rows.append([row.scheme, row.debias.value, e.m, e.trials,
                     e.discarded, e.bias, e.stderr_proxy, e.eps_two_sided])
    return header, rows, {}


def _build_method(cfg: Config):
    """The configured method and the name it was built from."""
    name = cfg.get("method", "newton")
    if name == "newton":
        return name, NewtonExactMethod(
            line_search=cfg.get("line_search", True, _bool))
    if name == "ssn":
        return name, SsnMethod(
            plan_kind=cfg.get("plan", PlanKind.EXACT_LEVERAGE, PlanKind),
            debias=cfg.get("debias", DebiasMode.SCALAR,
                           _DEBIAS_NAMES.__getitem__),
            step_rule=cfg.get("step", StepRule.ARMIJO, StepRule),
            m=cfg.get("m", parse=int),
            fixed_step=cfg.get("fixed_step", 1.0, float),
            **_plan_options(cfg),
        )
    raise ConfigError(f"unknown method '{name}'")


def _problem(cfg: Config, seed: int, standardize: bool) -> GlmProblem:
    A, y = load_data(_data_source(cfg, seed), standardize)
    kind = cfg.get("problem", ProblemKind.LOGISTIC, ProblemKind)
    return GlmProblem(A, y, cfg.get("lambda", 1e-2, float), kind)


def cmd_solve(cfg: Config, seed: int, standardize: bool):
    p = _problem(cfg, seed, standardize)
    _, method = _build_method(cfg)
    iters = check_iters(cfg.get("iters", 10, int))
    zero_timing = cfg.get("timing", False, _TIMING_NAMES.__getitem__)

    def solve():
        return run_solver(p, method, np.zeros(p.dim), iters, seed=seed)

    def solve_reference():
        beta_star, grad_norm = reference_solution(p)
        return reference_point(p, beta_star), grad_norm

    reference = ref_grad = None
    if cfg.get("reference", True, _bool):
        if p.kind is ProblemKind.LEAST_SQUARES:
            p.constant_hessian.L   # one Gram and factor for both processes
        # the reference is read only to score the finished trace
        (reference, ref_grad), trace = parallel.overlap(solve_reference,
                                                        solve)
        trace = trace.scored(reference)
    else:
        trace = solve()
    header = ["t", "rel_error_H", "grad_norm", "step_size", "wall_ns"]
    rows = [[rec.t, rec.rel_error_H, rec.grad_norm, rec.step_size,
             0 if zero_timing else rec.wall_ns] for rec in trace.records]
    return header, rows, {
        "seeds": {"run": seed},
        "beta_star": (None if reference is None
                      else [float(v) for v in reference.beta]),
        "reference_grad_norm": ref_grad,
        "beta_final": [float(v) for v in trace.beta],
    }


def cmd_sweep(cfg: Config, seed: int, standardize: bool):
    p = _problem(cfg, seed, standardize)
    m_grid = cfg.get("m_grid", parse=_m_grid)
    iters = check_iters(cfg.get("iters", 5, int))
    replicates = cfg.get("replicates", 5, int)
    if replicates < 1:
        raise ConfigError(f"sweep replicates must be at least 1, "
                          f"got {replicates}")
    zero_timing = cfg.get("timing", False, _TIMING_NAMES.__getitem__)
    # built first, so that a bad method key is refused before the reference
    methods = [_build_method(Config({**cfg.values, "m": str(m)}))
               for m in m_grid]

    reference = reference_point(p, reference_solution(p)[0])

    def run(job):
        method, run_seed = job
        return run_solver(p, method, np.zeros(p.dim), iters,
                          seed=run_seed).scored(reference)

    traces = parallel.pmap(run, [(method, rsrng.split(seed, m, r))
                                 for m, (_, method) in zip(m_grid, methods)
                                 for r in range(replicates)])

    header = ["method", "m", "final_rel_error", "total_wall_ns"]
    rows = []
    for i, (m, (method_name, _)) in enumerate(zip(m_grid, methods)):
        traces_m = traces[i * replicates:(i + 1) * replicates]
        wall = statistics.median(sum(rec.wall_ns for rec in t.records)
                                 for t in traces_m)
        rows.append([method_name, m,
                     statistics.median(t.records[-1].rel_error_H
                                       for t in traces_m),
                     0 if zero_timing else int(wall)])
    return header, rows, {}


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2,
                               allow_nan=False) + "\n", encoding="utf-8")


def _write_outputs(out: Path, fmt: str, header, rows, sidecar: dict) -> None:
    """The table as CSV or JSON, and the sidecar next to it."""
    if fmt == "json":
        # JSON has no NaN or infinity: such cells are null
        _write_json(out, [{k: None if isinstance(v, float)
                           and not math.isfinite(v) else v
                           for k, v in zip(header, row)} for row in rows])
    else:
        out.write_text("".join(",".join(_fmt(v) for v in row) + "\n"
                               for row in [header, *rows]), encoding="utf-8")
    _write_json(out.with_suffix(out.suffix + ".json"), sidecar)


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
    """Run one command; returns its exit code.

    This is the process entry point.  Unless the user sets a BLAS thread
    count (any of ``_THREAD_VARS`` nonempty), it sets the loaded OpenBLAS
    pools (:func:`~randskew._lapack.openblas_pools`) to one thread for the
    rest of the process and does not restore them: the commands make many
    small dense calls, for which waking a second BLAS thread costs more
    than it saves, and outputs do not depend on the thread count.  It
    then lets :mod:`~randskew.parallel` fork one worker per CPU the
    process may run on, so ``bias`` cells and ``sweep`` runs use the
    cores, and ``solve`` computes its reference on one worker while its
    solver runs here; outputs do not depend on the worker count either.
    """
    args = build_parser().parse_intermixed_args(argv)
    if not any(os.environ.get(var) for var in _THREAD_VARS):
        for *_, set_threads in _lapack.openblas_pools():
            set_threads(1)
        if hasattr(os, "sched_getaffinity"):
            parallel.workers = len(os.sched_getaffinity(0))
    try:
        values = parse_config_file(args.config)
        for override in args.overrides:
            if "=" not in override:
                raise ConfigError(f"override '{override}' is not key=value")
            key, value = override.split("=", 1)
            values[key.strip()] = value.strip()
        cfg = Config(values)

        if args.seed is not None:
            seed = args.seed
        elif "seed" in cfg.values:
            seed = cfg.get("seed", parse=int)
        elif os.environ.get("RANDSKEW_SEED"):
            raw = os.environ["RANDSKEW_SEED"]
            try:
                seed = int(raw)
            except ValueError as exc:
                raise ConfigError(
                    f"RANDSKEW_SEED cannot be '{raw}': {exc}") from exc
        else:
            raise ConfigError("no seed given (--seed, config 'seed', or "
                              "RANDSKEW_SEED)")

        out = Path(args.out or cfg.get("out", None)
                   or f"randskew_{args.command}.csv")
        header, rows, fields = _COMMANDS[args.command](
            cfg, seed, args.standardize or cfg.get("standardize", False, _bool))
        _write_outputs(out, args.format, header, rows, {
            "config": {**cfg.values, "seed": str(seed),
                       "command": args.command},
            **fields})
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
    except MemoryError as exc:
        # numpy's message names the shape it could not allocate
        print(f"MemoryError: {exc or 'out of memory'}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
