"""Forked worker processes: an order-preserving map over independent items
(:func:`pmap`), and one job run beside the caller's own (:func:`overlap`).

Library callers run serially: :data:`workers` is 1 until ``cli.main``
raises it to the CPUs the process may run on.  A fork happens only where
no pool is running, so no process forks with a pool's threads alive.
"""

from __future__ import annotations

from contextlib import contextmanager

workers = 1      # processes the pools may use; below 2 all runs in-process
_task = None     # index -> result of the running pool, inherited by workers


def _run(index: int):
    return _task(index)


@contextmanager
def _pool(size: int, task):
    """A pool of ``size`` workers that fork at its first submit and run
    ``task(i)`` for each submitted ``_run, i``; None where the work must
    run in-process: below 2 :data:`workers`, without a ``fork`` start
    method, or inside another pool's work (its caller or a worker).  The
    pool is shut down, its workers reaped, on exit."""
    global _task
    if workers < 2 or _task is not None:
        yield None
        return
    import multiprocessing
    if "fork" not in multiprocessing.get_all_start_methods():
        yield None
        return
    from concurrent.futures import ProcessPoolExecutor
    pool = ProcessPoolExecutor(
        size, mp_context=multiprocessing.get_context("fork"))
    _task = task
    try:
        yield pool
    finally:
        pool.shutdown(cancel_futures=True)
        _task = None


def pmap(fn, items, cost=None) -> list:
    """``[fn(x) for x in items]``, on up to :data:`workers` processes.

    Workers are forked, so ``fn`` and the items may be closures and arrays
    that do not pickle: only item indices and results travel.  With a
    ``cost`` function, the pool is handed items in descending
    ``cost(item)`` (ties in item order), so the longest items do not start
    last.  Results come back in item order, and the exception raised is
    the one from the earliest failing item, as in the serial loop.
    """
    items = list(items)
    if len(items) > 1:
        with _pool(min(workers, len(items)), lambda i: fn(items[i])) as pool:
            if pool is not None:
                order = range(len(items))
                if cost is not None:
                    order = sorted(order, key=lambda i: cost(items[i]),
                                   reverse=True)
                futures = {i: pool.submit(_run, i) for i in order}
                return [futures[i].result() for i in range(len(items))]
    return [fn(x) for x in items]


def overlap(first, second) -> tuple:
    """``(first(), second())``, with ``first`` on one forked worker while
    ``second`` runs in the calling process.

    ``first`` is a closure whose result pickles; ``second``'s result
    stays in the caller.  The exception raised is the serial order's:
    ``first``'s if it fails, even when ``second`` failed too, else
    ``second``'s.  Where :func:`pmap` would run serially, so does this.
    """
    with _pool(1, lambda _: first()) as pool:
        if pool is not None:
            future = pool.submit(_run, 0)
            try:
                result = second()
            except Exception:
                future.result()   # first's error wins, as in the serial order
                raise
            return future.result(), result
    return first(), second()
