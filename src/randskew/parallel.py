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


def pmap(fn, items, cost=None) -> list:
    """``[fn(x) for x in items]``, on up to :data:`workers` processes.

    Workers are forked, so ``fn`` and the items may be closures and arrays
    that do not pickle: only item indices and results travel.  With a
    ``cost`` function, the pool is handed items in descending
    ``cost(item)`` (ties in item order), so the longest items do not start
    last.  Results come back in item order, and the exception raised is
    the one from the earliest failing item, as in the serial loop.  The
    pool is shut down before this returns or raises.  Without a ``fork``
    start method the items run in-process.
    """
    global _task
    items = list(items)
    count = min(workers, len(items))
    if count > 1:
        import multiprocessing
        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor
            order = range(len(items))
            if cost is not None:
                order = sorted(order, key=lambda i: cost(items[i]),
                               reverse=True)
            pool = ProcessPoolExecutor(
                count, mp_context=multiprocessing.get_context("fork"))
            _task = (fn, items)   # workers fork at the first submit
            try:
                futures = {i: pool.submit(_run, i) for i in order}
                return [futures[i].result() for i in range(len(items))]
            finally:
                pool.shutdown(cancel_futures=True)
                _task = None
    return [fn(x) for x in items]
