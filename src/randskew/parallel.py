"""Forked worker processes: an order-preserving map over independent items
(:func:`pmap`), and one job run beside the caller's own (:func:`overlap`).

Workers are ``os.fork`` children that talk to the caller through pipes,
with no helper thread and no process-pool library.  Before it forks, the
caller flushes stdio and writes the item indices, in dispatch order, into
one pipe as fixed-size records; each worker reads the next index whenever
it is free and writes each item's record (its index, an ok flag and a
length, then the pickled result, or exception and traceback text) to a
pipe of its own.  The caller, while it collects, drains every worker's
pipe as it becomes readable, so no worker stays blocked on a full pipe.
Once the earliest failing item in item order is known, the workers still
running are killed; every worker is reaped with ``waitpid`` before the
caller returns or raises, and workers end with ``os._exit``.  A worker's
exception is raised from a :class:`WorkerTraceback` that holds its
traceback there.  An item that no worker reported (its worker died)
raises :class:`RuntimeError` naming the item, in the item's place in the
serial order.

Library callers run serially: :data:`workers` is 1 until ``cli.main``
raises it to the CPUs the process may run on.  A fork happens only where
no pool is running, so a pool's caller and its workers run any pool of
their own serially.
"""

from __future__ import annotations

import os
import pickle
import struct
import sys

workers = 1      # processes the pools may use; below 2 all runs in-process
_busy = False    # a pool is running here (its caller) or above (a worker)

_INDEX = struct.Struct("=I")         # one dispatched item index
_HEADER = struct.Struct("=I?Q")      # a record: index, ok, pickle length
_CHUNK = 512     # POSIX's least PIPE_BUF: a write of this size is atomic


def _flush_stdio() -> None:
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, OSError, ValueError):
            pass   # a missing, closed or broken stream has nothing to lose


class WorkerTraceback(Exception):
    """The cause attached to an exception raised in a worker: the text of
    its traceback there."""


def _failure(exc: Exception) -> tuple:
    import traceback
    return exc, "".join(traceback.format_exception(exc))


def _record(index: int, ok: bool, value) -> bytes:
    """Item ``index``'s record: its result, or a failure's exception and
    traceback text.  Where they do not pickle, pickling's error is the
    item's failure."""
    try:
        body = pickle.dumps(value, pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        ok, body = False, pickle.dumps(_failure(exc), pickle.HIGHEST_PROTOCOL)
    return _HEADER.pack(index, ok, len(body)) + body


class _Pool:
    """Up to ``size`` forked workers that run ``task(i)`` for each index of
    ``order``, taken in that order.  :meth:`collect` gathers their records
    and :meth:`result` reads them; leaving the ``with`` block kills any
    worker still running and reaps every one."""

    def __init__(self, task, order, size: int):
        global _busy
        self.results = {}    # index -> (ok, pickled result or failure)
        self.pids = []
        self.pipes = {}      # a worker's result pipe -> its unparsed bytes
        self.first_open = 0  # the earliest index not yet reported ok
        self.tasks, self.feed = os.pipe()
        _busy = True
        try:
            os.set_blocking(self.feed, False)
            self.todo = memoryview(struct.pack(f"={len(order)}I", *order))
            self._write_tasks()
            _flush_stdio()
            for _ in range(size):
                out, into = os.pipe()
                self.pipes[out] = bytearray()
                try:
                    pid = os.fork()
                    if pid == 0:
                        self._serve(task, into)
                    self.pids.append(pid)
                finally:
                    os.close(into)
        except BaseException:
            self.__exit__()
            raise

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        global _busy
        if self.pipes:   # collect stopped early or never ran
            import signal
            for pid in self.pids:
                os.kill(pid, signal.SIGKILL)
        for fd in (*self.pipes, self.tasks, self.feed):
            if fd is not None:
                os.close(fd)
        self.pipes = {}
        for pid in self.pids:
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:   # reaped already, as under SIG_IGN
                pass
        _busy = False

    def _serve(self, task, into: int):
        """A worker's life: run items until the dispatch pipe is empty."""
        code = 1
        try:
            for fd in (*self.pipes, self.feed):
                if fd is not None:
                    os.close(fd)
            while index := os.read(self.tasks, _INDEX.size):
                (i,) = _INDEX.unpack(index)
                try:
                    value, ok = task(i), True
                except Exception as exc:
                    value, ok = _failure(exc), False
                record = memoryview(_record(i, ok, value))
                while record:
                    record = record[os.write(into, record):]
            code = 0
        finally:
            _flush_stdio()
            os._exit(code)

    def _write_tasks(self) -> None:
        """Write what the dispatch pipe takes of the indices still to
        write, in atomic whole-record chunks; close it once all are in."""
        while self.todo:
            try:
                os.write(self.feed, self.todo[:_CHUNK])
            except BlockingIOError:
                return
            self.todo = self.todo[_CHUNK:]
        os.close(self.feed)
        self.feed = None

    def collect(self) -> None:
        """Read records until every worker has closed its pipe, or until
        the earliest failing item in item order is known."""
        import select
        poller = select.poll()
        for fd in self.pipes:
            poller.register(fd, select.POLLIN)
        if self.feed is not None:
            poller.register(self.feed, select.POLLOUT)
        while self.pipes:
            for fd, _ in poller.poll():
                if fd == self.feed:
                    self._write_tasks()
                    if self.feed is None:
                        poller.unregister(fd)
                elif chunk := os.read(fd, 1 << 16):
                    self._parse(self.pipes[fd], chunk)
                else:
                    poller.unregister(fd)
                    os.close(fd)
                    del self.pipes[fd]
            while self.results.get(self.first_open, (False,))[0]:   # ok
                self.first_open += 1
            if self.first_open in self.results:
                return   # a failure every earlier item has passed

    def _parse(self, buffer: bytearray, chunk: bytes) -> None:
        buffer += chunk
        while len(buffer) >= _HEADER.size:
            index, ok, size = _HEADER.unpack_from(buffer)
            end = _HEADER.size + size
            if len(buffer) < end:
                return
            self.results[index] = ok, buffer[_HEADER.size:end]
            del buffer[:end]

    def result(self, index: int):
        """Item ``index``'s result, or its exception raised."""
        if index not in self.results:
            raise RuntimeError(
                f"a worker exited before reporting item {index}")
        ok, body = self.results.pop(index)
        value = pickle.loads(body)
        if ok:
            return value
        exc, text = value
        raise exc from WorkerTraceback(text)


def _forks() -> bool:
    return workers >= 2 and not _busy and hasattr(os, "fork")


def pmap(fn, items, cost=None) -> list:
    """``[fn(x) for x in items]``, on up to :data:`workers` processes.

    Workers are forked, so ``fn`` and the items may be closures and arrays
    that do not pickle: only item indices and results travel.  With a
    ``cost`` function, items are dispatched in descending ``cost(item)``
    (ties in item order), so the longest items do not start last.
    Results come back in item order, and the exception raised is the one
    from the earliest failing item, as in the serial loop; a result that
    does not pickle raises pickling's error as its item's.  It runs
    serially below 2 :data:`workers`, without ``os.fork``, for fewer than
    two items, and inside another pool's work (its caller or a worker).
    """
    items = list(items)
    if len(items) > 1 and _forks():
        order = range(len(items))
        if cost is not None:
            order = sorted(order, key=lambda i: cost(items[i]), reverse=True)
        with _Pool(lambda i: fn(items[i]), order,
                   min(workers, len(items))) as pool:
            pool.collect()
            return [pool.result(i) for i in range(len(items))]
    return [fn(x) for x in items]


def overlap(first, second) -> tuple:
    """``(first(), second())``, with ``first`` on one forked worker while
    ``second`` runs in the calling process.

    ``first`` is a closure whose result pickles; ``second``'s result
    stays in the caller.  The exception raised is the serial order's:
    ``first``'s if it fails, even when ``second`` failed too, else
    ``second``'s.  Where :func:`pmap` would run serially, so does this.
    """
    if _forks():
        with _Pool(lambda _: first(), [0], 1) as pool:
            try:
                result = second()
            except Exception:
                pool.collect()
                pool.result(0)   # first's error wins, as in the serial order
                raise
            pool.collect()
            return pool.result(0), result
    return first(), second()
