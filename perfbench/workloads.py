"""The benchmark's workloads: a CLI command, its config, and output checks.

Every workload runs on synthetic ``coherent`` data generated by the CLI
from the workload seed, so the same seed gives the same inputs.  ``smoke``
overrides shrink a workload for the self-check while keeping its checks
meaningful.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

TOL_REL_ERROR_H = 1e-6         # ssn-srht: target Hessian-norm error
TOL_REFERENCE_GRAD = 1e-10     # ssn-srht: reference solution stationarity
TOL_SWEEP_FINAL = 1e-4         # ssn-approx-sweep: error at the largest m
MIN_INPUTS = 4                 # inputs an untraced run measures, however short


def _read_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _finite(text: str) -> bool:
    return math.isfinite(float(text))


def check_bias(out: Path, cfg: dict[str, str]) -> tuple[list[str], dict]:
    """Finite cells, no cell fully discarded, de-biasing helps, and the
    uncorrected bias falls as m grows."""
    problems = []
    rows = _read_rows(out)
    plans = cfg["plans"].split(",")
    modes = cfg["debias"].split(",")
    m_grid = [int(m) for m in cfg["m_grid"].split(",")]
    if len(rows) != len(plans) * len(modes) * len(m_grid):
        return [f"expected {len(plans) * len(modes) * len(m_grid)} rows, "
                f"got {len(rows)}"], {}
    bias = {}
    trials = discarded = 0
    for r in rows:
        cell = f"{r['scheme']}/{r['debias']}/m={r['m']}"
        if not all(_finite(r[k]) for k in ("bias", "stderr_proxy",
                                           "eps_def5")):
            problems.append(f"{cell}: non-finite value")
        if not int(r["discarded"]) < int(r["trials"]):
            problems.append(f"{cell}: every trial discarded")
        trials += int(r["trials"])
        discarded += int(r["discarded"])
        bias[r["scheme"], r["debias"], int(r["m"])] = float(r["bias"])
    for plan in plans:
        for m in m_grid:
            for mode in ("scalar", "fine_grained_exact"):
                key = (plan, mode, m)
                if key in bias and not bias[key] < bias[plan, "none", m]:
                    problems.append(
                        f"{plan}/{mode}/m={m}: bias {bias[key]:.4g} not "
                        f"below none {bias[plan, 'none', m]:.4g}")
        none = [bias[plan, "none", m] for m in m_grid]
        if any(b >= a for a, b in zip(none, none[1:])):
            problems.append(f"{plan}/none: bias does not fall with m: {none}")
    return problems, {"trials": trials, "discarded": discarded}


def check_solve(out: Path, cfg: dict[str, str]) -> tuple[list[str], dict]:
    """Reaches the error target within ``iters`` from a stationary
    reference solution."""
    problems = []
    rows = _read_rows(out)
    errors = [float(r["rel_error_H"]) for r in rows]
    if len(errors) != int(cfg["iters"]) + 1:
        problems.append(f"expected {int(cfg['iters']) + 1} trace rows, "
                        f"got {len(errors)}")
    hit = [int(r["t"]) for r, e in zip(rows, errors) if e <= TOL_REL_ERROR_H]
    iters_to_tol = hit[0] if hit else None
    if iters_to_tol is None:
        problems.append(f"rel_error_H never reaches {TOL_REL_ERROR_H:g}; "
                        f"last {errors[-1] if errors else None}")
    sidecar = json.loads(Path(f"{out}.json").read_text(encoding="utf-8"))
    ref = sidecar.get("reference_grad_norm")
    if ref is None or not ref <= TOL_REFERENCE_GRAD:
        problems.append(f"reference_grad_norm {ref} above "
                        f"{TOL_REFERENCE_GRAD:g}")
    return problems, {"iters_to_tol": iters_to_tol,
                      "final_rel_error": errors[-1] if errors else None}


def check_sweep(out: Path, cfg: dict[str, str]) -> tuple[list[str], dict]:
    """Final error falls with m and meets the target at the largest m."""
    problems = []
    rows = _read_rows(out)
    finals = [float(r["final_rel_error"]) for r in rows]
    m_grid = [int(m) for m in cfg["m_grid"].split(",")]
    if [int(r["m"]) for r in rows] != m_grid:
        return [f"rows cover m={[r['m'] for r in rows]}, expected "
                f"{m_grid}"], {}
    if not all(math.isfinite(f) for f in finals):
        problems.append(f"non-finite final error: {finals}")
    if any(b >= a for a, b in zip(finals, finals[1:])):
        problems.append(f"final_rel_error does not fall with m: {finals}")
    if not finals[-1] <= TOL_SWEEP_FINAL:
        problems.append(f"final_rel_error {finals[-1]:.3g} at m={m_grid[-1]}"
                        f" above {TOL_SWEEP_FINAL:g}")
    return problems, {"final_rel_error": dict(zip(m_grid, finals))}


def digests(out: Path) -> dict[str, str]:
    """sha256 of the output file and its JSON sidecar."""
    return {role: hashlib.sha256(p.read_bytes()).hexdigest()
            for role, p in (("output", out), ("sidecar", Path(f"{out}.json")))
            if p.exists()}


_COHERENT = {"data": "synthetic", "synthetic": "coherent"}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str
    config: dict[str, str]
    smoke: dict[str, str]
    check: Callable[[Path, dict[str, str]], tuple[list[str], dict]]
    work_unit: str
    work: Callable[[dict[str, str]], int]
    dominant_layer: str   # expected largest self time in the traced run
    nominal_s: float      # typical wall time of one child, import included

    def config_for(self, smoke: bool) -> dict[str, str]:
        return {**self.config, **(self.smoke if smoke else {})}

    def inputs(self, seconds: float) -> int:
        """Inputs an untraced run measures: a fixed count, so that every
        run of a seed attempts the same calls whatever the machine's
        speed."""
        return max(MIN_INPUTS, round(seconds / self.nominal_s))


def _bias_trials(cfg):
    return (len(cfg["plans"].split(",")) * len(cfg["debias"].split(","))
            * len(cfg["m_grid"].split(",")) * int(cfg["trials"]))


def _solve_iters(cfg):
    return int(cfg["iters"])


def _sweep_iters(cfg):
    return (len(cfg["m_grid"].split(",")) * int(cfg["replicates"])
            * int(cfg["iters"]))


WORKLOADS = {w.name: w for w in [
    Workload(
        name="bias-lab",
        why=("Thousands of tiny 32x32 Monte-Carlo trials, so per-trial "
             "Python overhead, cholesky, draw and rng dominate and "
             "hadamard does no work; batched trials, potrf and eigvalsh "
             "show here."),
        command="bias",
        config={**_COHERENT, "n": "2048", "d": "32", "heavy_rows": "32",
                "lambda": "0", "plans": "exact_leverage,shrinkage",
                "debias": "none,scalar,fine_exact",
                "m_grid": "128,256,512", "trials": "400"},
        smoke={"n": "1024", "m_grid": "128,256", "trials": "100"},
        check=check_bias,
        work_unit="Monte-Carlo trials",
        work=_bias_trials,
        dominant_layer="linalg.cholesky",
        nominal_s=6.5,
    ),
    Workload(
        name="ssn-srht",
        why=("One large n x d Hadamard rotation per SSN iteration: "
             "fwht_inplace (16 MiB per pass), objective_eval and exact "
             "leverage dominate; FWHT, rotate-once and value-only Armijo "
             "show here."),
        command="solve",
        config={**_COHERENT, "n": "32768", "d": "64", "heavy_rows": "64",
                "lambda": "1e-3", "problem": "logistic", "method": "ssn",
                "plan": "srht", "debias": "scalar", "step": "armijo",
                "m": "1024", "iters": "10", "timing": "zero"},
        smoke={"n": "2048", "d": "16", "heavy_rows": "16", "m": "512",
               "iters": "12"},
        check=check_solve,
        work_unit="SSN iterations",
        work=_solve_iters,
        dominant_layer="hadamard.fwht_inplace",
        nominal_s=3.5,
    ),
    Workload(
        name="ssn-approx-sweep",
        why=("One SJLT leverage plan per SSN iteration at large n and one "
             "draw from it, the reverse of bias-lab; analytic steps leave "
             "Armijo idle; the SJLT/CSR change shows here."),
        command="sweep",
        config={**_COHERENT, "n": "16384", "d": "64", "heavy_rows": "64",
                "lambda": "1e-3", "problem": "logistic", "method": "ssn",
                "plan": "approx_leverage", "debias": "fine_approx",
                "step": "analytic", "iters": "8", "replicates": "3",
                "m_grid": "512,1024", "timing": "zero"},
        smoke={"n": "2048", "d": "16", "heavy_rows": "16",
               "m_grid": "256,512", "replicates": "1"},
        check=check_sweep,
        work_unit="SSN iterations",
        work=_sweep_iters,
        dominant_layer="sampling.sjlt_approx_leverage",
        nominal_s=8.0,
    ),
]}
