"""The forked workers of a parallel sweep.  Only `report.sweep` with more
than one job and more than one case imports this module, so a `verify`
process loads neither it nor `select`."""

from __future__ import annotations

import json
import os
import select
import sys


def _can_fork() -> bool:
    """fork copies only the calling thread, so a child of a process with
    other live threads can start holding a lock that nothing releases."""
    if not hasattr(os, "fork"):
        return False
    threading = sys.modules.get("threading")
    return threading is None or threading.active_count() == 1


class _Worker:
    """The parent's side of one forked sweep worker: its pid, the pipe the
    parent deals case indices on (None once closed), the pipe rows come
    back on, the bytes of a row not yet complete, and the index of the case
    the worker holds (None when it holds none)."""

    __slots__ = ("pid", "tasks", "results", "buf", "case")

    def __init__(self, pid: int, tasks: int, results: int):
        self.pid = pid
        self.tasks = tasks
        self.results = results
        self.buf = b""
        self.case = None

    def close(self) -> None:
        os.close(self.results)
        if self.tasks is not None:
            os.close(self.tasks)


def _fork_worker(work: list, workers: dict[int, _Worker], run) -> _Worker:
    """Fork a child that runs `run` on each case whose 4-byte index arrives
    on its task pipe and writes the row back as one JSON line, until the
    task pipe closes."""
    task_r, task_w = os.pipe()
    result_r, result_w = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            # keep only its own two pipe ends, so that every other worker
            # sees end-of-file when the parent closes that worker's task pipe
            os.close(task_w)
            os.close(result_r)
            for w in workers.values():
                w.close()
            with open(result_w, "w", encoding="ascii") as out:
                while len(index := os.read(task_r, 4)) == 4:
                    row = run(work[int.from_bytes(index, "little")])
                    out.write(json.dumps(row, separators=(",", ":")) + "\n")
                    out.flush()
            status = 0
        finally:
            # no atexit handler runs, and no inherited buffer is flushed twice
            os._exit(status)
    os.close(task_r)
    os.close(result_w)
    return _Worker(pid, task_w, result_r)


def fork_sweep(work: list, jobs: int, run) -> list[tuple[str, dict]]:
    """The rows run(w) for each (case, draws, extra_q) w in work, from `jobs`
    forked workers, largest n * sum(s) * r first; serially where the process
    cannot fork safely.

    The parent deals each worker one case index at a time and deals the
    next when its row comes back, so a row always belongs to the case its
    worker holds.  A worker that dies leaves an error row for that case,
    and a new worker is forked while cases remain; every worker is reaped
    before this returns.
    """
    if not _can_fork():
        return [run(w) for w in work]
    # popped from the end: the largest case first, ties in grid order
    cost = [case.n * sum(case.s) * case.r for case, _, _ in work]
    pending = sorted(range(len(work)), key=lambda i: (cost[i], -i))
    rows: list = [None] * len(work)
    workers: dict[int, _Worker] = {}
    poller = select.poll()

    def deal(w: _Worker) -> None:
        if not pending:
            os.close(w.tasks)
            w.tasks = w.case = None
            return
        w.case = pending.pop()
        try:
            os.write(w.tasks, w.case.to_bytes(4, "little"))
        except BrokenPipeError:
            pass  # the worker is gone; its end-of-file makes the error row

    try:
        while pending or workers:
            while pending and len(workers) < jobs:
                w = _fork_worker(work, workers, run)
                workers[w.results] = w
                poller.register(w.results, select.POLLIN)
                deal(w)
            for fd, _ in poller.poll():
                w = workers[fd]
                data = os.read(fd, 1 << 16)
                if data:
                    *lines, w.buf = (w.buf + data).split(b"\n")
                    for line in lines:
                        rows[w.case] = tuple(json.loads(line))
                        deal(w)
                    continue
                poller.unregister(fd)
                del workers[fd]
                w.close()
                code = os.waitstatus_to_exitcode(os.waitpid(w.pid, 0)[1])
                if w.case is not None:
                    how = f"killed by signal {-code}" if code < 0 else f"exited with status {code}"
                    rows[w.case] = (work[w.case][0].key, {"error": f"worker {how}"})
    finally:
        if workers:  # left by an exception: stop and reap the rest
            import signal

            for w in workers.values():
                os.kill(w.pid, signal.SIGKILL)
                os.waitpid(w.pid, 0)
                w.close()
    return rows
