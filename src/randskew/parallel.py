"""Order-preserving map over independent items on forked worker processes.

Library callers run serially: :data:`workers` is 1 until ``cli.main``
raises it to the CPUs the process may run on.
"""

from __future__ import annotations

workers = 1      # processes pmap may use; below 2 it runs in-process
_task = None     # (fn, items) of the running pmap, inherited by its workers


def _run(index: int):
    fn, items = _task
    return fn(items[index])


def pmap(fn, items) -> list:
    """``[fn(x) for x in items]``, on up to :data:`workers` processes.

    Workers are forked, so ``fn`` and the items may be closures and arrays
    that do not pickle: only item indices and results travel.  Results
    come back in item order, and the exception raised is the one from the
    earliest failing item, as in the serial loop.  The pool is shut down
    before this returns or raises.  Without a ``fork`` start method the
    items run in-process.
    """
    global _task
    items = list(items)
    count = min(workers, len(items))
    if count > 1:
        import multiprocessing
        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor
            _task = (fn, items)
            try:
                with ProcessPoolExecutor(count, mp_context=multiprocessing
                                         .get_context("fork")) as pool:
                    return list(pool.map(_run, range(len(items))))
            finally:
                _task = None
    return [fn(x) for x in items]
