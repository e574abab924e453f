"""The CLI's BLAS thread policy: ``cli.main`` runs each loaded OpenBLAS
pool single-threaded unless the user sets a thread count.  numpy's pool is
always loaded; scipy's only once something imports scipy, which the CLI
does not.

The policy is process-wide, so each check that lets it act runs ``main``
in a fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import randskew
from randskew import _lapack, cli

_SRC = str(Path(randskew.__file__).resolve().parents[1])

_PROBE = """
import json, sys
from randskew import _lapack, cli
pools = _lapack.openblas_pools()
before = [get() for *_, get, _ in pools]
rc = cli.main(sys.argv[1:])
print(json.dumps({"rc": rc, "before": before,
                  "packages": [package for package, *_ in pools],
                  "scipy_imported": "scipy" in sys.modules,
                  "after": [get() for *_, get, _ in pools]}))
"""

LEV_CFG = "data = synthetic\nn = 64\nd = 4\n"


def _probe(tmp_path, **thread_env):
    cfg = tmp_path / "lev.cfg"
    cfg.write_text(LEV_CFG)
    env = {k: v for k, v in os.environ.items() if k not in cli._THREAD_VARS}
    env.update(thread_env, PYTHONPATH=_SRC)
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, "lev", "--config", str(cfg),
         "--seed", "1", "--out", str(tmp_path / "lev.csv")],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    result = json.loads(proc.stdout)
    assert result["rc"] == 0
    if not result["before"]:
        pytest.skip("numpy bundles no OpenBLAS here")
    return result


def test_main_sets_loaded_pools_to_one_thread(tmp_path):
    result = _probe(tmp_path)
    assert result["after"] == [1] * len(result["before"])
    # scipy's pool is not opened unless scipy is loaded
    assert "scipy" not in result["packages"] or result["scipy_imported"]


@pytest.mark.parametrize("var", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_thread_variable_leaves_pools_alone(tmp_path, var):
    result = _probe(tmp_path, **{var: "2"})
    assert result["after"] == result["before"]


def test_missing_library_or_symbol_is_a_silent_no_op(tmp_path, monkeypatch):
    monkeypatch.setattr(_lapack, "SUFFIX", {"numpy": "_no_such_suffix"})
    assert _lapack.openblas_pools() == []
    monkeypatch.setattr(_lapack, "openblas", lambda package: None)
    assert _lapack.openblas_pools() == []
    for var in cli._THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    cfg = tmp_path / "lev.cfg"
    cfg.write_text(LEV_CFG)
    assert cli.main(["lev", "--config", str(cfg), "--seed", "1",
                     "--out", str(tmp_path / "lev.csv")]) == 0


CONFIGS = {
    "srht-solve": ("solve", "data = synthetic\nsynthetic = coherent\n"
                   "n = 4096\nd = 16\nheavy_rows = 16\nlambda = 1e-3\n"
                   "problem = logistic\nmethod = ssn\nplan = srht\n"
                   "debias = scalar\nstep = analytic\nm = 256\niters = 4\n"
                   "timing = zero\n"),
    "srht-bias": ("bias", "data = synthetic\nsynthetic = coherent\n"
                  "n = 2048\nd = 16\nheavy_rows = 16\nlambda = 0\n"
                  "plans = srht\ndebias = none,scalar\nm_grid = 64,128\n"
                  "trials = 64\n"),
    # sketch Grams large enough for OpenBLAS to split a gemm between
    # threads, past the size where gemm and syrk sum differently
    "gram-bias": ("bias", "data = synthetic\nsynthetic = coherent\n"
                  "n = 2048\nd = 32\nheavy_rows = 32\nlambda = 1e-3\n"
                  "plans = exact_leverage\ndebias = none\n"
                  "m_grid = 128,512\ntrials = 64\n"),
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path, name):
    # the SRHT rotation and the bias lab's sketch Grams are GEMMs that
    # OpenBLAS may split between threads; each thread count runs in its
    # own interpreter
    command, text = CONFIGS[name]
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(text)
    written = []
    for threads in ("1", "2"):
        out = tmp_path / f"{name}-{threads}.csv"
        env = {k: v for k, v in os.environ.items()
               if k not in cli._THREAD_VARS}
        env.update(OPENBLAS_NUM_THREADS=threads, PYTHONPATH=_SRC)
        subprocess.run(
            [sys.executable, "-m", "randskew.cli", command, "--config",
             str(cfg), "--seed", "3", "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120, check=True)
        written.append((out.read_bytes(),
                        Path(f"{out}.json").read_bytes()))
    assert written[0] == written[1]
