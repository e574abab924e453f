"""Benchmark harness for the ``randskew`` CLI.

Usage, from the root of a source tree::

    python3 perfbench/run.py --workload bias-lab --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload

Each measured call is one fresh child process (``perfbench/child.py``) that
receives a generated config and a seed and runs ``randskew.cli.main`` once.
Child i of a run gets CLI seed ``seed * 1000 + i``, so every child measures
a new input drawn from the workload seed, and the same seed gives the same
inputs.  Load is closed-loop: one child at a time.  A run measures a fixed
number of inputs, ``--seconds`` divided by the workload's nominal child
time and at least four, so the same seed and ``--seconds`` always
attempt the same calls, and an input on which the program fails is counted
the same way in every run of that seed.  Children inherit the caller's
environment minus the BLAS thread variables, so they run with the thread
policy a user gets by default.

``--trace 0`` reports the end-to-end metrics: median wall time of one
``main`` call, median import time of ``randskew.cli`` over import-only and
measured children, median peak RSS and work completed per second.
``--trace 1`` runs an untraced and a traced child on each input and adds
one child with both OpenBLAS pools at one thread; it reports per-layer
counts and self times from the traced children's spans.

Every child's output is checked; a nonzero exit or a failed check counts
as a failed attempt.  A full record (environment, samples, checks, output
digests, per-function span statistics) is written to
``.perfbench_run/record-<workload>-seed<seed>-trace<trace>.json``.  The
last line on standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import WORKLOADS, digests  # noqa: E402

ROOT = HERE.parent
RUN_DIR = ROOT / ".perfbench_run"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5         # import-only children per untraced run
CHILD_SEED_STRIDE = 1000  # child i of workload seed s gets CLI seed s*1000+i
RUN_DEADLINE_S = 170.0    # no child may run past this point of a run
PERCENTILES = (50.0, 90.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10      # samples a reported percentile needs above it


class LayoutError(Exception):
    """The tree the harness runs in does not hold the package source."""


def child_env(single_thread: bool = False) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if k not in THREAD_VARS and k != "RANDSKEW_SEED"}
    env["PYTHONPATH"] = str(ROOT / "src")
    if single_thread:
        env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def git_commit() -> str | None:
    git_dir = ROOT / ".git"
    if not git_dir.is_dir() or shutil.which("git") is None:
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          env={**os.environ, "GIT_DIR": str(git_dir)},
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def tail_percentile(samples: list[float]) -> dict:
    """The highest percentile with at least TAIL_MIN_BEYOND samples above
    it, or none when the run has too few samples."""
    n = len(samples)
    best = None
    for p in PERCENTILES:
        if n * (1.0 - p / 100.0) >= TAIL_MIN_BEYOND:
            cut = statistics.quantiles(samples, n=1000,
                                       method="inclusive")[int(p * 10) - 1]
            best = {"percentile": p, "value": cut}
    return {"samples": n, "tail": best}


class Run:
    """One benchmark run of one workload: its children and their results."""

    def __init__(self, workload, seed: int, seconds: float, trace: bool,
                 smoke: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.cfg = workload.config_for(smoke)
        self.key = (f"{workload.name}-seed{seed}-trace{int(trace)}"
                    + ("-smoke" if smoke else ""))
        self.dir = RUN_DIR / self.key
        self.started = time.perf_counter()
        self.children: list[dict] = []
        self.count = 0

    def remaining(self) -> float:
        return RUN_DEADLINE_S - (time.perf_counter() - self.started)

    def spawn(self, kind: str, index: int = 0) -> dict:
        """Run one child; ``kind`` is import, plain, traced or single.

        The child's CLI seed, and so its input data, is a function of the
        workload seed and ``index`` alone.
        """
        self.count += 1
        tag = f"{self.count:03d}-{kind}"
        seed = self.seed * CHILD_SEED_STRIDE + index
        result_path = self.dir / f"{tag}.result.json"
        out = self.dir / f"{tag}.csv"
        argv = [sys.executable, str(HERE / "child.py"),
                "--result", str(result_path)]
        if kind == "import":
            argv.append("--import-only")
        if kind == "traced":
            argv += ["--spans", str(self.dir / f"{tag}.spans.json")]
        argv += ["--", self.workload.command, "--config",
                 str(self.dir / "config.txt"), "--seed", str(seed),
                 "--out", str(out)]
        timeout = self.remaining()
        child = {"kind": kind, "tag": tag, "index": index, "seed": seed}
        if timeout <= 0:
            child["error"] = "run deadline passed before the child started"
            return child
        try:
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True,
                                  text=True, timeout=timeout,
                                  env=child_env(kind == "single"))
        except subprocess.TimeoutExpired:
            child["error"] = f"child killed after {timeout:.0f} s"
            return child
        child["stderr"] = proc.stderr[-4000:]
        if proc.returncode != 0 or not result_path.exists():
            child["error"] = f"child exited {proc.returncode}"
            return child
        child.update(json.loads(result_path.read_text(encoding="utf-8")))
        if kind == "import":
            return child
        if child.get("rc") != 0:
            child["error"] = f"randskew exited {child.get('rc')}"
            return child
        problems, facts = self.workload.check(out, self.cfg)
        child["problems"] = problems
        child["facts"] = facts
        child["digests"] = digests(out)
        if problems:
            child["error"] = "; ".join(problems)
            child["wrong_output"] = True
        if kind == "traced":
            child["trace"] = tracing.summarize(
                self.dir / f"{tag}.spans.json")
        return child

    def execute(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        (self.dir / "config.txt").write_text(
            "".join(f"{k} = {v}\n" for k, v in self.cfg.items()),
            encoding="utf-8")
        # Byte-compiles the package and warms the file cache; users do not
        # pay either on every call, so it is not measured.
        self.warmup = self.spawn("import")
        if not self.trace:
            self.children += [self.spawn("import")
                              for _ in range(SETUP_REPEATS)]
        # Each index is a fresh input; a traced run pairs an untraced and a
        # traced child on the same input, so their difference is the
        # tracing overhead, and measures half as many inputs.
        kinds = ["plain", "traced"] if self.trace else ["plain"]
        inputs = self.workload.inputs(self.seconds)
        if self.trace:
            inputs = max(1, inputs // 2)
        for index in range(inputs):
            self.children += [self.spawn(kind, index) for kind in kinds]
        if self.trace:
            measured = [c["index"] for c in self.of("plain")
                        if "error" not in c]
            self.children.append(
                self.spawn("single", measured[0] if measured else 0))

    def of(self, kind: str) -> list[dict]:
        return [c for c in self.children if c["kind"] == kind]


def _median(children: list[dict], key: str) -> float | None:
    values = [c[key] for c in children if key in c and "error" not in c]
    return statistics.median(values) if values else None


def end_to_end(run: Run) -> dict:
    plain = run.of("plain")
    wall = _median(plain, "wall_s")
    work = run.workload.work(run.cfg)
    return {
        "wall_s": (wall, "s"),
        "setup_s": (_median(run.of("import") + plain, "setup_s"), "s"),
        "peak_rss_mib": (_median(plain, "peak_rss_mib"), "MiB"),
        "work_per_s": (work / wall if wall else None, "1/s"),
    }


def per_layer(run: Run) -> dict:
    traced = [c for c in run.of("traced") if "error" not in c]
    metrics: dict[str, tuple] = {}

    def med(values):
        return statistics.median(values) if values else None

    def ratio(num, den):
        return num / den if den else 0.0

    def fn(c, name, key="calls", default=0):
        return c["trace"]["functions"].get(name, {}).get(key, default)

    def fn_stat(name, key):
        return med([fn(c, name, key) for c in traced])

    for name in tracing.LAYER_NAMES:
        metrics[f"{name}.calls"] = (fn_stat(name, "calls"), "count")
        metrics[f"{name}.self_s"] = (fn_stat(name, "self_s"), "s")
    metrics["cli.self_s"] = (fn_stat(tracing.ROOT_SPAN, "self_s"), "s")
    metrics["linalg.cholesky.failures"] = (med([
        fn(c, "linalg.cholesky", "errors", {}).get("NotPositiveDefinite", 0)
        for c in traced]), "count")
    for key, unit, _ in tracing.COUNTERS.values():
        metrics[key] = (med([c["trace"]["counters"].get(key, 0)
                             for c in traced]), unit)

    metrics["biaslab.discard_ratio"] = (med([
        ratio(c["facts"].get("discarded", 0), c["facts"].get("trials", 0))
        for c in traced]), "ratio")
    metrics["biaslab.trial_s"] = (med([
        ratio(fn(c, "biaslab.estimate_bias", "total_s"),
              c["facts"].get("trials", 0))
        for c in traced]), "s")
    metrics["optim.objective_eval.per_iter"] = (med([
        ratio(c["trace"]["solver_evals"], fn(c, "optim.ssn_step"))
        for c in traced]), "ratio")
    metrics["optim._armijo.evals"] = (
        med([c["trace"]["armijo_evals"] for c in traced]), "count")
    metrics["optim.iters_to_tol"] = (med([
        c["facts"].get("iters_to_tol") or 0 for c in traced]), "count")

    plain_by_seed = {c["seed"]: c["wall_s"] for c in run.of("plain")
                     if "error" not in c}
    metrics["trace_overhead_s"] = (med([
        c["wall_s"] - plain_by_seed[c["seed"]]
        for c in traced if c["seed"] in plain_by_seed]), "s")
    metrics["wall_1t_s"] = (_median(run.of("single"), "wall_s"), "s")
    return metrics


def record(run: Run, metrics: dict, attempted: int, failed: int) -> dict:
    first = next((c for c in run.children if "env" in c), {})
    plain_walls = [c["wall_s"] for c in run.of("plain")
                   if "wall_s" in c and "error" not in c]
    splits = {}
    for c in run.of("traced"):
        if "trace" in c:
            fns = c["trace"]["functions"]
            top = sorted(tracing.LAYER_NAMES,
                         key=lambda n: -fns.get(n, {}).get("self_s", 0.0))
            splits[c["tag"]] = [(n, fns.get(n, {}).get("self_s", 0.0))
                                for n in top[:5]]
    expected = run.workload.dominant_layer
    return {
        "workload": run.workload.name,
        "why": run.workload.why,
        "seed": run.seed,
        "seconds": run.seconds,
        "trace": int(run.trace),
        "config": run.cfg,
        "environment": {
            "git_commit": git_commit(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "executable": sys.executable,
            **first.get("env", {}),
            "single_thread_blas": next(
                (c["env"]["blas"] for c in run.of("single") if "env" in c),
                None),
        },
        "load": "closed loop, one child process at a time",
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted if attempted else None,
        "work": {"unit": run.workload.work_unit,
                 "count": run.workload.work(run.cfg)},
        "wall_s_distribution": tail_percentile(plain_walls),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
        "top_self_time": splits,
        "dominant_layer": {
            "expected": expected,
            "observed_in_every_traced_child": bool(splits) and all(
                top[0][0] == expected for top in splits.values()),
        },
        "output_digests": {c["seed"]: c["digests"] for c in run.of("plain")
                           if "digests" in c},
        "tracing_preserves_outputs": all(
            c["digests"] == p["digests"]
            for c in run.of("traced") for p in run.of("plain")
            if c["seed"] == p["seed"] and "digests" in c
            and "digests" in p),
        "children": [{k: v for k, v in c.items() if k != "env"}
                     for c in run.children],
        "warmup": {k: v for k, v in run.warmup.items() if k != "env"},
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> dict:
    if not (ROOT / "src" / "randskew" / "cli.py").is_file():
        raise LayoutError(f"no randskew source under {ROOT / 'src'}")
    run = Run(WORKLOADS[name], seed, seconds, trace, smoke)
    run.execute()
    measured = [c for c in run.children if c["kind"] != "import"]
    attempted = len(measured)
    failed = sum("error" in c for c in measured)
    # A failed call (nonzero exit) is counted in ``failed``; ``correct``
    # is false only when a call returned output that fails its check, or
    # when the run could not measure every metric.
    wrong = sum(c.get("wrong_output", False) for c in measured)
    setup_ok = all("error" not in c for c in run.of("import") + [run.warmup])
    metrics = per_layer(run) if trace else end_to_end(run)
    rec = record(run, metrics, attempted, failed)
    path = RUN_DIR / f"record-{run.key}.json"
    path.write_text(json.dumps(rec, indent=1), encoding="utf-8")

    env = rec["environment"]
    blas = ", ".join(f"{b['package']} {b['library']} {b['threads']} threads"
                     for b in env.get("blas", []))
    print(f"# {name}: seed {seed}, {attempted} attempted, {failed} failed, "
          f"fail_ratio {rec['fail_ratio']}")
    print(f"# env: commit {env['git_commit']}, python {env.get('python')}, "
          f"numpy {env.get('numpy')}, scipy {env.get('scipy')}, "
          f"nproc {env['nproc']}; {blas}")
    dist = rec["wall_s_distribution"]
    print(f"# wall_s samples: {dist['samples']}; tail percentile: "
          + (f"p{dist['tail']['percentile']:g} {dist['tail']['value']} s"
             if dist["tail"] else
             f"none (needs {TAIL_MIN_BEYOND} samples beyond it)"))
    for c in [run.warmup] + run.children:
        if "error" in c:
            last = c.get("stderr", "").strip().splitlines()[-1:]
            print(f"#   {c['tag']} (seed {c['seed']}) failed: {c['error']}"
                  + (f": {last[0]}" if last else ""))
    for key, (value, unit) in metrics.items():
        print(f"{name} {key} {value} {unit}")
    print(f"# record: {path.relative_to(ROOT)}")
    complete = all(v is not None for v, _ in metrics.values())
    return {
        "correct": wrong == 0 and setup_ok and complete,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items() if v is not None},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced-size workloads, for the self-check")
    args = parser.parse_args(argv)

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {name: run_workload(name, args.seed, args.seconds,
                                      bool(args.trace), args.smoke)
                   for name in names}
    except LayoutError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "workloads": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
