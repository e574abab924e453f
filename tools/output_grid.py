"""Run a fixed grid of ``randskew`` CLI configs and keep every output.

    python tools/output_grid.py TREE OUTDIR

TREE is a checkout of this repository (its ``src/`` is imported) and
OUTDIR a directory to create.  Each case ``<name>`` of the grid runs one
``python -m randskew.cli`` process and leaves, in OUTDIR:

- ``<name>.cfg``, the config it ran;
- ``<name>.csv`` and ``<name>.csv.json``, its table and sidecar, when the
  run wrote them;
- ``<name>.stderr`` and ``<name>.exit``, its stderr and exit code.

The grid covers ``lev`` and ``bias`` over every plan kind and debias
mode, ``solve`` over every plan kind, step rule and loss, the first-order
and Newton methods, ``sweep``, refusals (m < 1, a plan with no sampling
summary, the SJLT's analytic rule), and the full configs of the three
benchmark workloads (``perfbench/workloads.py``) at seeds 1 and 2.  Every
solver config sets ``timing = zero``, so no output holds a wall time.

Two output directories compare with ``diff -r``: the same tree run
pooled and serially (``OPENBLAS_NUM_THREADS=1`` turns the CLI's worker
pool off) must agree byte for byte, and so must two trees whose change
keeps every output.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
from perfbench.workloads import WORKLOADS  # noqa: E402  (stdlib only)

DATA = {"data": "synthetic", "synthetic": "coherent", "n": "256", "d": "8",
        "heavy_rows": "8", "lambda": "1e-3"}
SAMPLING = ["uniform", "row_norm", "exact_leverage", "approx_leverage",
            "double_sketch_approx_leverage", "shrinkage"]
KINDS = SAMPLING + ["srht", "sjlt"]
STEPS = ["analytic", "armijo", "fixed"]
LOSSES = ["logistic", "least_squares"]
SOLVE = {**DATA, "method": "ssn", "m": "96", "iters": "4",
         "timing": "zero"}


def grid() -> list[tuple[str, str, dict[str, str], int]]:
    """Every case: (name, command, config, seed)."""
    cases = []
    for kind in SAMPLING:
        cases.append((f"lev-{kind}", "lev", {**DATA, "plans": kind}, 3))
    cases += [
        ("lev-all-approx-sjlt", "lev",
         {**DATA, "plans": ",".join(SAMPLING), "approx": "sjlt"}, 3),
        ("lev-approx-double", "lev",
         {**DATA, "plans": "uniform,shrinkage", "approx": "double",
          "mix": "0.25"}, 4),
        ("lev-srht-refused", "lev", {**DATA, "plans": "uniform,srht"}, 3),
    ]
    bias = {**DATA, "m_grid": "64,128", "trials": "40"}
    for kind in KINDS:
        for modes in ("none,scalar", "fine_exact", "fine_approx"):
            cases.append((f"bias-{kind}-{modes.replace(',', '-')}", "bias",
                          {**bias, "plans": kind, "debias": modes}, 5))
        cases.append((f"bias-{kind}-m0", "bias",
                      {**bias, "plans": kind, "m_grid": "0,64"}, 5))
    cases.append(("bias-all-kinds", "bias",
                  {**bias, "plans": ",".join(KINDS)}, 6))
    for kind in KINDS:
        for step in STEPS:
            for loss in LOSSES:
                cases.append((f"solve-{kind}-{step}-{loss}", "solve",
                              {**SOLVE, "plan": kind, "step": step,
                               "problem": loss}, 7))
        for debias in ("none", "fine_exact", "fine_approx"):
            cases.append((f"solve-{kind}-armijo-{debias}", "solve",
                          {**SOLVE, "plan": kind, "step": "armijo",
                           "debias": debias}, 7))
        cases.append((f"solve-{kind}-m0", "solve",
                      {**SOLVE, "plan": kind, "m": "0", "debias": "none",
                       "step": "armijo"}, 7))
    for method in ("newton", "gd", "sgd"):
        for loss in LOSSES:
            cases.append((f"solve-{method}-{loss}", "solve",
                          {**SOLVE, "method": method, "problem": loss}, 8))
    cases.append(("solve-no-reference", "solve",
                  {**SOLVE, "plan": "uniform", "reference": "false"}, 8))
    for kind in ("uniform", "srht"):
        cases.append((f"sweep-{kind}", "sweep",
                      {**SOLVE, "plan": kind, "step": "armijo",
                       "m_grid": "64,96", "replicates": "2"}, 9))
    for name, workload in sorted(WORKLOADS.items()):
        for seed in (1, 2):
            cases.append((f"bench-{name}-seed{seed}", workload.command,
                          dict(workload.config), seed))
    return cases


def run_case(tree: Path, outdir: Path, name: str, command: str,
             config: dict[str, str], seed: int) -> None:
    cfg = outdir / f"{name}.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in config.items()),
                   encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "randskew.cli", command, "--config", cfg.name,
         "--out", f"{name}.csv", "--seed", str(seed)],
        cwd=outdir, env=env, capture_output=True, text=True)
    (outdir / f"{name}.stderr").write_text(done.stderr, encoding="utf-8")
    (outdir / f"{name}.exit").write_text(f"{done.returncode}\n",
                                         encoding="utf-8")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/output_grid.py TREE OUTDIR",
              file=sys.stderr)
        return 2
    tree, outdir = Path(argv[0]).resolve(), Path(argv[1])
    if not (tree / "src" / "randskew" / "cli.py").is_file():
        print(f"no randskew source under {tree / 'src'}", file=sys.stderr)
        return 2
    outdir.mkdir(parents=True)
    start = time.perf_counter()
    cases = grid()
    for case in cases:
        run_case(tree, outdir, *case)
    print(f"{len(cases)} cases in {time.perf_counter() - start:.1f} s "
          f"-> {outdir}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
