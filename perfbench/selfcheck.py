"""Self-check of the benchmark: schema of BENCHMARK.json, a reduced-size
smoke run of every workload in both modes, and the failure path.

Usage, from the root of a source tree::

    python3 perfbench/selfcheck.py

Exits 0 when every check passes and prints each problem otherwise.  Takes
well under a minute; it checks that the harness works, not how fast the
program is.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_spec(spec: dict, raw_size: int) -> list[str]:
    """Problems with BENCHMARK.json under the benchmark's file format."""
    p = []
    if raw_size > 64 * 1024:
        p.append("BENCHMARK.json is larger than 64 KiB")
    want = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(spec) != want:
        return p + [f"top-level keys {sorted(spec)} != {sorted(want)}"]

    paths = spec["paths"]
    if not 1 <= len(paths) <= 16:
        p.append("paths must list 1 to 16 directories")
    for path in paths:
        if (not PATH.match(path) or path.startswith("/")
                or ".." in path.split("/")):
            p.append(f"bad path {path!r}")
        elif not (ROOT / path).is_dir():
            p.append(f"path {path!r} is not a directory")

    cmd = spec["command"]
    if not (1 <= len(cmd) <= 32
            and all(isinstance(a, str) and len(a) <= 200 for a in cmd)):
        p.append("command must be 1 to 32 strings of at most 200 characters")
    for arg in cmd[1:]:
        if arg.startswith("/") or ".." in arg.split("/"):
            p.append(f"command argument {arg!r} leaves the tree")
        elif "/" in arg and not any(arg == d or arg.startswith(d + "/")
                                    for d in paths):
            p.append(f"command argument {arg!r} is outside paths")

    rs = spec["run_seconds"]
    if not (isinstance(rs, int) and 1 <= rs <= 60):
        p.append("run_seconds must be a whole number from 1 to 60")

    names = []
    wl = spec["workloads"]
    if not 2 <= len(wl) <= 8:
        p.append("need 2 to 8 workloads")
    for w in wl:
        if set(w) != {"name", "why"}:
            p.append(f"workload keys {sorted(w)}")
            continue
        names.append(w["name"])
        if not (len(w["why"]) <= 200 and "\n" not in w["why"]):
            p.append(f"why of {w['name']} is not one line of <= 200 chars")
        if w["name"] not in WORKLOADS:
            p.append(f"workload {w['name']} is not defined in workloads.py")
        elif WORKLOADS[w["name"]].why != w["why"]:
            p.append(f"why of {w['name']} differs from workloads.py")
    if sorted(w["name"] for w in wl) != sorted(WORKLOADS):
        p.append("BENCHMARK.json and workloads.py list different workloads")

    e2e = spec["end_to_end"]
    if not 1 <= len(e2e) <= 16:
        p.append("need 1 to 16 end_to_end metrics")
    for m in e2e:
        if set(m) != {"name", "unit", "better", "bound"}:
            p.append(f"end_to_end keys {sorted(m)}")
            continue
        names.append(m["name"])
        if not (isinstance(m["bound"], (int, float))
                and 0 < m["bound"] <= 0.25):
            p.append(f"bound of {m['name']} outside (0, 0.25]")
    setup = [m for m in e2e if m.get("name") == "setup_s"]
    if not (setup and setup[0]["unit"] == "s"
            and setup[0]["better"] == "lower"):
        p.append("end_to_end needs setup_s in s, lower is better")
    elif setup[0]["bound"] < max(m["bound"] for m in e2e):
        p.append("setup_s should carry the largest bound")

    pl = spec["per_layer"]
    if not 1 <= len(pl) <= 128:
        p.append("need 1 to 128 per_layer metrics")
    for m in pl:
        if set(m) != {"name", "unit", "better"}:
            p.append(f"per_layer keys {sorted(m)}")
            continue
        names.append(m["name"])

    for m in e2e + pl:
        if not UNIT.match(m.get("unit", "")):
            p.append(f"bad unit {m.get('unit')!r}")
        if m.get("better") not in ("lower", "higher"):
            p.append(f"better of {m.get('name')} must be lower or higher")
    for name in names:
        if not NAME.match(name):
            p.append(f"bad name {name!r}")
    if len(names) != len(set(names)):
        p.append("names are not unique")
    return p


def check_result(line: str, metrics: list[dict]) -> list[str]:
    """Problems with the last output line of one run."""
    try:
        res = json.loads(line)
    except json.JSONDecodeError:
        return [f"last line is not JSON: {line[:200]!r}"]
    if set(res) != RESULT_KEYS:
        return [f"result keys {sorted(res)}"]
    p = []
    if res["correct"] is not True:
        p.append("run reports correct = false")
    if not (type(res["attempted"]) is int and res["attempted"] >= 1
            and type(res["failed"]) is int
            and 0 <= res["failed"] <= res["attempted"]):
        p.append(f"attempted/failed {res['attempted']}/{res['failed']}")
    want = {m["name"]: m["unit"] for m in metrics}
    got = {k: v.get("unit") for k, v in res["metrics"].items()}
    if got != want:
        p.append(f"metrics differ from BENCHMARK.json: missing "
                 f"{sorted(set(want) - set(got))}, extra "
                 f"{sorted(set(got) - set(want))}, units "
                 f"{[k for k in want if k in got and got[k] != want[k]]}")
    for k, v in res["metrics"].items():
        value = v.get("value")
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            p.append(f"metric {k} is not a finite number: {value!r}")
    return p


def run(argv: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable] + argv, cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def main() -> int:
    raw = (ROOT / "BENCHMARK.json").read_bytes()
    spec = json.loads(raw)
    problems = check_spec(spec, len(raw))

    for name in sorted(WORKLOADS):
        for trace, metrics in ((0, spec["end_to_end"]),
                               (1, spec["per_layer"])):
            proc = run(["perfbench/run.py", "--workload", name, "--seed",
                        "3", "--seconds", "1", "--trace", str(trace),
                        "--smoke"], ROOT)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{name} trace {trace}: exit "
                                f"{proc.returncode}: {proc.stderr[-500:]}")
                continue
            problems += [f"{name} trace {trace}: {e}"
                         for e in check_result(lines[-1], metrics)]
            # Calls the program failed are reported, not hidden: they are
            # the program's failures, which the harness counts.
            for line in lines:
                if line.startswith("#   "):
                    print(f"selfcheck: note: {name} trace {trace}:"
                          f"{line[1:]}")

    # Without the package source the harness must fail and print no result.
    bare = ROOT / ".perfbench_run" / "bare-tree"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(["perfbench/run.py", "--workload", "bias-lab", "--seed", "3",
                "--seconds", "1", "--trace", "0"], bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"bare tree: exit {proc.returncode}, stdout "
                        f"{proc.stdout[-200:]!r}")
    shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print(f"selfcheck: {problem}")
    print("selfcheck: ok" if not problems
          else f"selfcheck: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
