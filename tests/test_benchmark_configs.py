"""Every benchmark workload's smoke config must run through the CLI.

``perfbench/workloads.py`` names the CLI keys and values the benchmark
passes, so a CLI change that rejects or misreads one of them fails here
rather than on every benchmark input.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import randskew
from randskew.cli import _THREAD_VARS, main

_WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
_SRC = str(Path(randskew.__file__).resolve().parents[1])


def _load_workloads():
    spec = importlib.util.spec_from_file_location("_perfbench_workloads",
                                                  _WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


_workloads = _load_workloads()
_each_workload = pytest.mark.parametrize(
    "workload", list(_workloads.WORKLOADS.values()), ids=lambda w: w.name)


def _write_smoke_config(directory: Path, workload) -> tuple[Path, dict]:
    cfg = workload.config_for(smoke=True)
    path = directory / "config.txt"
    path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()))
    return path, cfg


@_each_workload
def test_smoke_config_runs_and_passes_its_check(tmp_path, workload):
    path, cfg = _write_smoke_config(tmp_path, workload)
    out = tmp_path / "out.csv"
    assert main([workload.command, "--config", str(path), "--seed", "1",
                 "--out", str(out)]) == 0
    problems, _ = workload.check(out, cfg)
    assert problems == []


@_each_workload
def test_smoke_output_does_not_depend_on_blas_threads(tmp_path, workload):
    # The CLI runs BLAS single-threaded by default; that is only free
    # while the output is the same at every thread count.
    path, _ = _write_smoke_config(tmp_path, workload)
    env = {k: v for k, v in os.environ.items() if k not in _THREAD_VARS}
    digests = []
    for threads in ("1", "2"):
        run_dir = tmp_path / f"threads{threads}"
        run_dir.mkdir()
        out = run_dir / "out.csv"
        subprocess.run(
            [sys.executable, "-m", "randskew.cli", workload.command,
             "--config", str(path), "--seed", "1", "--out", str(out)],
            env={**env, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": _SRC},
            timeout=120, check=True)
        digests.append(_workloads.digests(out))
    assert set(digests[0]) == {"output", "sidecar"}
    assert digests[0] == digests[1]


# the SJLT bias table's trials and seed, fixed: a failure here is a
# finding, not a reason to re-seed or to take more trials
SJLT_BIAS_TRIALS, SJLT_BIAS_SEED = 400, 7


def test_sjlt_bias_table_passes_the_bias_lab_check(tmp_path):
    # the SJLT plan reaches bias_sweep through the plan protocol alone, in
    # one table with a sampling and the Hadamard plan, and every row must
    # pass the bias-lab workload's rules: scalar debias below none at
    # every m, and the uncorrected bias falling as m grows
    cfg = {"data": "synthetic", "synthetic": "coherent", "n": "512",
           "d": "16", "heavy_rows": "16", "lambda": "0",
           "plans": "exact_leverage,srht,sjlt", "debias": "none,scalar",
           "m_grid": "64,128,256", "trials": str(SJLT_BIAS_TRIALS)}
    path = tmp_path / "config.txt"
    path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()))
    out = tmp_path / "out.csv"
    assert main(["bias", "--config", str(path), "--seed",
                 str(SJLT_BIAS_SEED), "--out", str(out)]) == 0
    problems, totals = _workloads.check_bias(out, cfg)
    assert problems == []
    assert totals["trials"] == 3 * 2 * 3 * SJLT_BIAS_TRIALS
