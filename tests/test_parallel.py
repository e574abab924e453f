"""``parallel.pmap`` and the CLI's worker policy: ``cli.main`` lets
``bias`` and ``sweep`` fork one worker per CPU unless the user sets a BLAS
thread count, and outputs and errors do not depend on the worker count.

Checks that let the policy act run ``main`` in a fresh interpreter.
"""

import json
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import randskew
from randskew import cli, parallel
from randskew.errors import NotPositiveDefinite, SketchTooSmall

_SRC = str(Path(randskew.__file__).resolve().parents[1])


def _cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else 1


needs_two_cpus = pytest.mark.skipif(
    _cpus() < 2, reason="the process may run on only one CPU")


@pytest.fixture(params=[1, 2], ids=["serial", "pooled"])
def workers(request, monkeypatch):
    monkeypatch.setattr(parallel, "workers", request.param)
    return request.param


@pytest.mark.parametrize("count", [1, 2])
@settings(max_examples=15, deadline=None)
@given(items=st.lists(st.integers(-10**6, 10**6), max_size=9))
def test_pmap_equals_the_list_comprehension(count, items):
    parallel.workers = count   # the autouse fixture restores it
    weights = np.arange(3.0)   # a closure over an array: forked, not pickled

    def fn(x):
        return (x, float(x * weights.sum()) / 7.0, [x] * (x % 3))

    assert parallel.pmap(fn, items) == [fn(x) for x in items]
    assert multiprocessing.active_children() == []


@needs_two_cpus
def test_pmap_runs_items_on_forked_workers(monkeypatch):
    monkeypatch.setattr(parallel, "workers", 2)
    pids = parallel.pmap(lambda _: os.getpid(), range(4))
    assert os.getpid() not in pids


def test_pmap_runs_in_process_without_fork(monkeypatch):
    monkeypatch.setattr(parallel, "workers", 2)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                        lambda: ["spawn"])
    assert parallel.pmap(lambda _: os.getpid(), range(3)) == [os.getpid()] * 3


def _fail(x):
    """Item 0 raises last in time; items 1 and 2 raise at once."""
    if x == 0:
        time.sleep(0.3)
        raise NotPositiveDefinite("item 0", pivot_index=3)
    if x in (1, 2):
        raise SketchTooSmall(f"item {x}", index=x + 10)
    return x


@pytest.mark.parametrize("first", [0, 1])
def test_pmap_raises_the_earliest_failing_item(workers, first):
    with pytest.raises((NotPositiveDefinite, SketchTooSmall)) as info:
        parallel.pmap(_fail, range(first, 6))
    exc = info.value
    assert str(exc) == f"item {first}"
    if first == 0:
        assert type(exc) is NotPositiveDefinite and exc.pivot_index == 3
    else:
        assert type(exc) is SketchTooSmall and exc.index == 11
    assert multiprocessing.active_children() == []


def _timed(x):
    """The item and the monotonic time its call started."""
    start = time.monotonic()
    time.sleep(0.05)
    return x, start


def test_pmap_dispatches_by_cost_and_returns_in_item_order(monkeypatch):
    monkeypatch.setattr(parallel, "workers", 2)
    results = parallel.pmap(_timed, range(6), cost=lambda x: x)
    assert [x for x, _ in results] == list(range(6))
    starts = [start for _, start in results]
    # item 5 goes to the pool first, item 0 only after two rounds of sleeps
    assert starts[5] < starts[0]
    assert multiprocessing.active_children() == []


def _fail_by_cost(x):
    """Item 1 (low cost) raises late in time; item 4 (high cost, handed
    out second) raises at once."""
    if x == 1:
        time.sleep(0.3)
        raise SketchTooSmall("item 1", index=1)
    if x == 4:
        raise NotPositiveDefinite("item 4", pivot_index=4)
    return x


def test_cost_order_keeps_the_serial_error(workers):
    with pytest.raises((NotPositiveDefinite, SketchTooSmall)) as info:
        parallel.pmap(_fail_by_cost, range(6), cost=lambda x: x)
    assert type(info.value) is SketchTooSmall
    assert (str(info.value), info.value.index) == ("item 1", 1)
    assert multiprocessing.active_children() == []


def test_importing_the_cli_loads_no_process_pool():
    # scipy.linalg already imports the concurrent.futures package (through
    # numpy.testing); its process pool and multiprocessing must wait for
    # pmap.
    code = ("import sys, randskew.cli; print(sorted(m for m in "
            "('multiprocessing', 'concurrent.futures.process') "
            "if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": _SRC},
                          capture_output=True, text=True, timeout=60,
                          check=True)
    assert proc.stdout.strip() == "[]"


_PROBE = """
import json, multiprocessing, sys
from randskew import cli, parallel
rc = cli.main(sys.argv[1:])
print(json.dumps({"rc": rc, "workers": parallel.workers,
                  "children": len(multiprocessing.active_children())}))
"""

COUNTEREXAMPLE = "data = synthetic\nsynthetic = counterexample\n"
BIAS_CFG = ("data = synthetic\nsynthetic = coherent\nn = 512\nd = 8\n"
            "lambda = 0.1\nplans = uniform,exact_leverage\n"
            "debias = none,scalar\nm_grid = 32,64\ntrials = 130\n")
SWEEP_CFG = ("data = synthetic\nsynthetic = coherent\nn = 512\nd = 8\n"
             "method = ssn\nplan = exact_leverage\ndebias = scalar\n"
             "m_grid = 32,64\nreplicates = 2\niters = 3\ntiming = zero\n")
BAD_BIAS_CFG = (COUNTEREXAMPLE + "plans = exact_leverage\ndebias = scalar\n"
                "m_grid = 2,3,64\ntrials = 50\n")
BAD_SWEEP_CFG = (COUNTEREXAMPLE + "problem = least_squares\nmethod = ssn\n"
                 "plan = exact_leverage\ndebias = scalar\nm_grid = 2,3,64\n"
                 "replicates = 2\niters = 2\ntiming = zero\n")


def _main(tmp_path, command, cfg_text, pooled):
    """``cli.main`` in a fresh interpreter under the default thread policy
    (pooled) or with a BLAS thread count set (serial): the probe's report,
    stderr and the output and sidecar bytes."""
    run_dir = tmp_path / ("pooled" if pooled else "serial")
    run_dir.mkdir()
    (run_dir / "run.cfg").write_text(cfg_text)
    env = {k: v for k, v in os.environ.items() if k not in cli._THREAD_VARS}
    env["PYTHONPATH"] = _SRC
    if not pooled:
        env["OPENBLAS_NUM_THREADS"] = "1"
    out = run_dir / "out.csv"
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, command, "--config",
         str(run_dir / "run.cfg"), "--seed", "3", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    report = json.loads(proc.stdout)
    assert report["children"] == 0
    assert (report["workers"] > 1) == pooled
    files = [p.read_bytes() for p in (out, Path(f"{out}.json"))
             if p.exists()]
    return report["rc"], proc.stderr, files


@needs_two_cpus
@pytest.mark.parametrize("command", ["bias", "sweep"])
def test_outputs_do_not_depend_on_the_worker_count(tmp_path, command):
    cfg_text = {"bias": BIAS_CFG, "sweep": SWEEP_CFG}[command]
    pooled = _main(tmp_path, command, cfg_text, pooled=True)
    assert pooled[0] == 0 and len(pooled[2]) == 2
    assert pooled == _main(tmp_path, command, cfg_text, pooled=False)


@needs_two_cpus
@pytest.mark.parametrize("command", ["bias", "sweep"])
def test_workers_report_the_serial_error(tmp_path, command):
    cfg_text = {"bias": BAD_BIAS_CFG, "sweep": BAD_SWEEP_CFG}[command]
    rc, stderr, files = _main(tmp_path, command, cfg_text, pooled=True)
    assert (rc, files) == (cli.EXIT_NUMERICAL, [])
    assert stderr.startswith("SketchTooSmall: sketch size m=2 must exceed")
    assert (rc, stderr, files) == _main(tmp_path, command, cfg_text,
                                        pooled=False)
