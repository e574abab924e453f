"""``parallel.pmap``, ``parallel.overlap`` and the CLI's worker policy:
``cli.main`` lets ``bias`` and ``sweep`` fork one worker per CPU, and
``solve`` one worker for its reference, unless the user sets a BLAS thread
count; outputs and errors do not depend on the worker count.

Checks that let the policy act run ``main`` in a fresh interpreter.
"""

import json
import os
import pickle
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


def _assert_no_children():
    """Every child this process forked has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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
    _assert_no_children()


@needs_two_cpus
def test_pmap_runs_items_on_forked_workers(monkeypatch):
    monkeypatch.setattr(parallel, "workers", 2)
    pids = parallel.pmap(lambda _: os.getpid(), range(4))
    assert os.getpid() not in pids


def test_pmap_runs_in_process_without_fork(monkeypatch):
    monkeypatch.setattr(parallel, "workers", 2)
    monkeypatch.delattr(os, "fork")
    assert parallel.pmap(lambda _: os.getpid(), range(3)) == [os.getpid()] * 3


def _dies_on_two(x):
    if x == 2:
        os._exit(3)   # no record, no exception: the worker is gone
    return x


def test_a_dead_worker_names_its_unreported_item(monkeypatch):
    monkeypatch.setattr(parallel, "workers", 2)
    start = time.monotonic()
    with pytest.raises(RuntimeError, match=r"reporting item 2$"):
        parallel.pmap(_dies_on_two, range(5))
    assert time.monotonic() - start < 30
    _assert_no_children()


def test_results_larger_than_a_pipe_buffer_come_back(monkeypatch):
    monkeypatch.setattr(parallel, "workers", 2)
    sizes = [2**17 + x for x in range(4)]   # over 1 MiB of float64 each
    results = parallel.pmap(lambda n: np.full(n, float(n)), sizes)
    for n, result in zip(sizes, results):
        np.testing.assert_array_equal(result, np.full(n, float(n)))
    _assert_no_children()


def test_more_items_than_the_dispatch_pipe_holds(monkeypatch):
    # 4-byte index records: a 64 KiB pipe holds 16384 of them
    monkeypatch.setattr(parallel, "workers", 2)
    items = range(20000)
    assert parallel.pmap(lambda x: -x, items, cost=lambda x: x % 7) \
        == [-x for x in items]
    _assert_no_children()


def _unpicklable_first(x):
    if x == 1:
        return lambda: x
    if x == 3:
        raise SketchTooSmall("item 3", index=3)
    return x


def test_an_unpicklable_result_is_its_items_error(monkeypatch):
    monkeypatch.setattr(parallel, "workers", 2)
    with pytest.raises((pickle.PicklingError, AttributeError),
                       match="pickle"):
        parallel.pmap(_unpicklable_first, range(5))
    _assert_no_children()


def test_text_printed_before_pmap_appears_once():
    code = ("from randskew import parallel\nparallel.workers = 2\n"
            "print('before', flush=False)\n"
            "print(parallel.pmap(abs, range(-3, 3)))\n")
    # block-buffered stdout, so that "before" is still buffered at the fork
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.run([sys.executable, "-c", code],
                          env={**env, "PYTHONPATH": _SRC},
                          capture_output=True, text=True, timeout=60,
                          check=True)
    assert proc.stdout == "before\n[3, 2, 1, 0, 1, 2]\n"


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
    _assert_no_children()


def test_a_workers_exception_carries_its_traceback(monkeypatch):
    monkeypatch.setattr(parallel, "workers", 2)
    with pytest.raises(SketchTooSmall) as info:
        parallel.pmap(_fail, range(1, 4))
    cause = info.value.__cause__
    assert type(cause) is parallel.WorkerTraceback
    assert "in _fail" in str(cause) and "SketchTooSmall: item 1" in str(cause)
    _assert_no_children()


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
    _assert_no_children()


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
    _assert_no_children()


_POOL_MODULES = ("multiprocessing", "concurrent.futures.process")


def test_importing_the_cli_loads_no_process_pool(tmp_path):
    # scipy.linalg already imports the concurrent.futures package (through
    # numpy.testing); neither its process pool nor multiprocessing may load
    code = ("import sys, randskew.cli; print(sorted(m for m in "
            f"{_POOL_MODULES!r} if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": _SRC},
                          capture_output=True, text=True, timeout=60,
                          check=True)
    assert proc.stdout.strip() == "[]"
    # nor in a run that forks: _main checks every probe's loaded modules
    if _cpus() > 1:
        for command, cfg_text in (("bias", BIAS_CFG), ("sweep", SWEEP_CFG),
                                  ("solve", SOLVE_CFG)):
            (tmp_path / command).mkdir()
            assert _main(tmp_path / command, command, cfg_text, pooled=True,
                         forks=True)[0] == cli.EXIT_OK


_PROBE = f"""
import json, os, sys
from randskew import cli, parallel
forks, fork = [], os.fork

def counted_fork():
    forks.append(os.getpid())
    return fork()

os.fork = counted_fork
rc = cli.main(sys.argv[1:])
try:
    os.waitpid(-1, os.WNOHANG)
    children = 1
except ChildProcessError:
    children = 0
print(json.dumps({{"rc": rc, "workers": parallel.workers,
                  "children": children, "pool": bool(forks),
                  "modules": [m for m in {_POOL_MODULES!r}
                              if m in sys.modules]}}))
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
SOLVE_CFG = ("data = synthetic\nsynthetic = coherent\nn = 512\nd = 8\n"
             "method = ssn\nplan = exact_leverage\ndebias = scalar\n"
             "m = 64\niters = 4\ntiming = zero\n")
BAD_SOLVE_CFG = (COUNTEREXAMPLE + "problem = least_squares\nmethod = ssn\n"
                 "plan = exact_leverage\ndebias = scalar\nm = 2\n"
                 "iters = 2\ntiming = zero\n")
# exact Newton on a zero column with lambda = 0 finds no Cholesky factor,
# and the solver's own refusal of fine-grained debias for the srht plan,
# at its first step, comes first in time
SINGULAR_CSV = "".join(f"{i % 7 + 0.5},0,{1 if i % 3 else -1}\n"
                       for i in range(40))
BAD_REFERENCE_CFG = ("data = csv\nlambda = 0\nmethod = ssn\n"
                     "plan = approx_leverage\ndebias = none\nm = 8\n"
                     "iters = 2\ntiming = zero\npath = ")


def _main(tmp_path, command, cfg_text, pooled, forks=None):
    """``cli.main`` in a fresh interpreter under the default thread policy
    (pooled) or with a BLAS thread count set (serial): the probe's report,
    stderr and the output and sidecar bytes.  ``forks``, where given, says
    whether the run called ``os.fork``."""
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
    assert report["children"] == 0 and report["modules"] == []
    assert (report["workers"] > 1) == pooled
    assert forks is None or report["pool"] == forks
    files = [p.read_bytes() for p in (out, Path(f"{out}.json"))
             if p.exists()]
    return report["rc"], proc.stderr, files


@needs_two_cpus
@pytest.mark.parametrize("command", ["bias", "sweep", "solve"])
def test_outputs_do_not_depend_on_the_worker_count(tmp_path, command):
    cfg_text = {"bias": BIAS_CFG, "sweep": SWEEP_CFG,
                "solve": SOLVE_CFG}[command]
    pooled = _main(tmp_path, command, cfg_text, pooled=True, forks=True)
    assert pooled[0] == 0 and len(pooled[2]) == 2
    assert pooled == _main(tmp_path, command, cfg_text, pooled=False,
                           forks=False)


@needs_two_cpus
@pytest.mark.parametrize("command", ["bias", "sweep", "solve"])
def test_workers_report_the_serial_error(tmp_path, command):
    cfg_text = {"bias": BAD_BIAS_CFG, "sweep": BAD_SWEEP_CFG,
                "solve": BAD_SOLVE_CFG}[command]
    rc, stderr, files = _main(tmp_path, command, cfg_text, pooled=True,
                              forks=True)
    assert (rc, files) == (cli.EXIT_NUMERICAL, [])
    assert stderr.startswith("SketchTooSmall: sketch size m=2 must exceed")
    assert (rc, stderr, files) == _main(tmp_path, command, cfg_text,
                                        pooled=False)


@needs_two_cpus
def test_solve_reports_the_reference_error_first(tmp_path):
    data = tmp_path / "singular.csv"
    data.write_text(SINGULAR_CSV)
    cfg_text = BAD_REFERENCE_CFG + f"{data}\n"
    rc, stderr, files = _main(tmp_path, "solve", cfg_text, pooled=True,
                              forks=True)
    assert (rc, files) == (cli.EXIT_NUMERICAL, [])
    assert stderr.startswith("NotPositiveDefinite: pivot at index ")
    assert (rc, stderr, files) == _main(tmp_path, "solve", cfg_text,
                                        pooled=False)
    # without the reference, the solver's own error is the one reported:
    # its first step's sketched Gram is singular too
    (tmp_path / "bare").mkdir()
    rc, stderr, _ = _main(tmp_path / "bare", "solve", cfg_text
                          + "reference = false\n", pooled=True, forks=False)
    assert (rc, stderr) == (cli.EXIT_NUMERICAL, "NotPositiveDefinite: "
                            "sketched Gram plus C is singular; increase "
                            "m1\n")


@needs_two_cpus
def test_solve_reports_a_config_refusal_before_its_reference(tmp_path):
    # a debias mode the plan refuses is refused when the method is built,
    # before the reference that would fail on this data is forked
    data = tmp_path / "singular.csv"
    data.write_text(SINGULAR_CSV)
    cfg_text = (BAD_REFERENCE_CFG + f"{data}\n"
                + "plan = srht\ndebias = fine_exact\n")
    want = (cli.EXIT_NUMERICAL, "ValueError: the srht plan samples no rows "
            "of A, so it only supports scalar debiasing\n", [])
    assert _main(tmp_path, "solve", cfg_text, pooled=True,
                 forks=False) == want
    assert _main(tmp_path, "solve", cfg_text, pooled=False) == want


@needs_two_cpus
@pytest.mark.parametrize("cfg_text,rc", [
    (SOLVE_CFG + "reference = false\n", cli.EXIT_OK),
    (SOLVE_CFG + "method = nonesuch\n", cli.EXIT_CONFIG)],
    ids=["no-reference", "config-error"])
def test_solve_forks_only_for_its_reference(tmp_path, cfg_text, rc):
    assert _main(tmp_path, "solve", cfg_text, pooled=True,
                 forks=False)[0] == rc


_SJLT_PROBE = """
import json, os, sys
from randskew import cli, sampling

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy"
                  or m.startswith("numpy.f2py"))

sjlt = sampling.sjlt_approx_leverage

def probed(*args, **kwargs):
    scores = sjlt(*args, **kwargs)
    with open(sys.argv[1], "a") as log:
        log.write(json.dumps([os.getpid(), loaded()]) + "\\n")
    return scores

sampling.sjlt_approx_leverage = probed
print(json.dumps([os.getpid(), cli.main(sys.argv[2:]), loaded()]))
"""


@needs_two_cpus
def test_sweep_workers_sketch_without_scipy(tmp_path):
    """Every SJLT plan that a pooled ``approx_leverage`` sweep builds on
    its forked workers finds no scipy module and no ``numpy.f2py``
    loaded, and neither does the parent."""
    (tmp_path / "run.cfg").write_text(
        SWEEP_CFG.replace("exact_leverage", "approx_leverage"))
    log = tmp_path / "sjlt.log"
    env = {k: v for k, v in os.environ.items() if k not in cli._THREAD_VARS}
    env["PYTHONPATH"] = _SRC
    proc = subprocess.run(
        [sys.executable, "-c", _SJLT_PROBE, str(log), "sweep", "--config",
         str(tmp_path / "run.cfg"), "--seed", "3", "--out",
         str(tmp_path / "out.csv")],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    parent, rc, loaded = json.loads(proc.stdout)
    assert (rc, loaded) == (cli.EXIT_OK, [])
    records = [json.loads(line) for line in log.read_text().splitlines()]
    assert {pid for pid, _ in records} - {parent}, "no worker sketched"
    assert [mods for _, mods in records if mods] == []


def test_overlap_runs_both_in_process_when_serial(workers):
    pids = parallel.overlap(os.getpid, os.getpid)
    assert pids[1] == os.getpid()
    assert (pids[0] == os.getpid()) == (workers == 1)
    _assert_no_children()


def _late_failure():
    time.sleep(0.3)
    raise NotPositiveDefinite("first", pivot_index=2)


def _early_failure():
    raise SketchTooSmall("second", index=4)


@pytest.mark.parametrize("first,second,raised", [
    (_late_failure, _early_failure, NotPositiveDefinite),
    (_late_failure, lambda: 7, NotPositiveDefinite),
    (lambda: 7, _early_failure, SketchTooSmall)])
def test_overlap_raises_the_serial_error(workers, first, second, raised):
    with pytest.raises((NotPositiveDefinite, SketchTooSmall)) as info:
        parallel.overlap(first, second)
    assert type(info.value) is raised
    if raised is NotPositiveDefinite:
        assert info.value.pivot_index == 2
    _assert_no_children()


def test_no_pool_forks_inside_another(monkeypatch):
    monkeypatch.setattr(parallel, "workers", 2)
    inner = parallel.overlap(lambda: parallel.pmap(lambda _: os.getpid(),
                                                   range(3)),
                             lambda: parallel.pmap(lambda _: os.getpid(),
                                                   range(3)))
    # the worker and the caller each run their map in-process
    assert len(set(inner[0])) == 1 and inner[1] == [os.getpid()] * 3
    _assert_no_children()
