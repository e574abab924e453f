"""Run a fixed grid of ``randskew`` CLI configs and keep every output.

    python tools/output_grid.py TREE OUTDIR
    python tools/output_grid.py compare A B

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
keeps every output.  ``compare A B`` reports, for each file that differs
between grid directories A and B, whether only numbers differ (CSV cells,
or the leaves of a JSON sidecar) and the largest relative difference of
each column or key, or else that its shape, text or exit code differs; it
exits 0 when every file is byte-identical and 1 otherwise, and quietly
with 1 when its reader closes stdout early (``compare A B | head``).  It
exits 2 when A or B is not a directory, so a caller can tell a missing
grid from a changed one.
"""

from __future__ import annotations

import csv
import json
import math
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


def _relative(a: str, b: str) -> float | None:
    """|a - b| / max(|a|, |b|) of two numbers written as text: 0 for equal
    ones or two NaNs, infinity where only one is finite, None where either
    is not a number."""
    try:
        x, y = float(a), float(b)
    except ValueError:
        return None
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def _csv_cells(path: Path) -> dict[tuple[int, str], str] | None:
    """A CSV's cells keyed by (row number, column), or None if it does not
    read as a table under one header."""
    with path.open(newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    if not rows or any(len(row) != len(rows[0]) for row in rows):
        return None
    return {(i, name): cell for i, row in enumerate(rows[1:], 1)
            for name, cell in zip(rows[0], row)}


def _json_leaves(path: Path) -> dict[tuple[int, str], str] | None:
    """A JSON file's leaves as text keyed by (0, their path), or None if it
    does not parse."""
    try:
        stack = [("", json.loads(path.read_text(encoding="utf-8")))]
    except ValueError:
        return None
    leaves = {}
    while stack:
        key, node = stack.pop()
        if isinstance(node, dict | list):
            items = node.items() if isinstance(node, dict) else enumerate(node)
            stack += [(f"{key}/{k}", child) for k, child in items]
        else:
            leaves[0, key] = json.dumps(node)
    return leaves


def _difference(a: Path, b: Path) -> list[str]:
    """How grid file ``a`` differs from ``b``: [] when their bytes agree."""
    if a.read_bytes() == b.read_bytes():
        return []
    if a.suffix == ".exit":
        return [f"exit code {a.read_text().strip()} -> "
                f"{b.read_text().strip()}"]
    read = {".csv": _csv_cells, ".json": _json_leaves}.get(a.suffix)
    cells = (read(a), read(b)) if read else (None, None)
    if None in cells:
        return ["text differs"]
    if cells[0].keys() != cells[1].keys():
        return ["shape differs"]
    worst: dict[str, float] = {}   # column or key -> largest difference
    rows = set()
    for (row, column), x in cells[0].items():
        y = cells[1][row, column]
        if x == y:
            continue
        rel = _relative(x, y)
        if rel is None:
            at = f"{column} of row {row}" if read is _csv_cells else column
            return [f"text differs: {at}: {x!r} -> {y!r}"]
        rows.add(row)
        worst[column] = max(worst.get(column, 0.0), rel)
    where = (f" in rows {', '.join(map(str, sorted(rows)))}"
             if read is _csv_cells else "")
    return ([f"numbers only{where}"]
            + [f"  {column}: largest relative difference {rel:.2g}"
               for column, rel in worst.items()])


def compare(a: Path, b: Path) -> int:
    names = sorted({p.name for grid in (a, b) for p in grid.iterdir()})
    same = 0
    for name in names:
        if not (a / name).is_file() or not (b / name).is_file():
            print(f"{name}: only in {a if (a / name).is_file() else b}")
            continue
        lines = _difference(a / name, b / name)
        same += not lines
        for i, line in enumerate(lines):
            print(f"{name}: {line}" if i == 0 else line)
    print(f"{same} of {len(names)} files byte-identical")
    return 0 if same == len(names) else 1


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "compare":
        for grid_dir in argv[1:]:
            if not Path(grid_dir).is_dir():
                print(f"no grid directory {grid_dir}", file=sys.stderr)
                return 2
        return compare(Path(argv[1]), Path(argv[2]))
    if len(argv) != 2:
        print("usage: python tools/output_grid.py TREE OUTDIR\n"
              "       python tools/output_grid.py compare A B",
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
    try:
        code = main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (``compare A B | head``): stop quietly,
        # pointing stdout at devnull so that the exit flush fails no more
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)
