"""A team of forked helper processes for data-parallel loops over shared memory.

A command is a list of independent tasks.  The caller and its helpers claim
tasks one at a time from a shared counter until none is left, so a slow CPU
simply claims fewer of them; as each task writes only its own outputs, the
results never depend on which process ran which task.  Data flows through
an `Arena` of float64 arrays in one anonymous shared mapping, which must
exist before the team forks.  A command is posted in shared control words;
each helper counts itself done when the task list is exhausted.  Waiting
processes spin on those words for a few milliseconds, since a solve posts a
command every millisecond or so and a helper woken from a blocking read
would start late; only then do they block on a pipe, and the other side
writes a byte to it when it finds them asleep.

Processes, not threads: the tasks this is built for are a few dozen small
numpy and BLAS calls each, and threads running them spend their time waiting
for the GIL and for OpenBLAS's buffer lock.  Each process is pinned to its
own CPU, because the scheduler otherwise tends to wake a helper on the CPU
of the process that woke it.  A team forks only where `os.fork` exists and
the caller is the process's only Python thread; otherwise the caller runs
every task itself.  Every process runs its tasks with single-threaded BLAS.
"""

from __future__ import annotations

import contextlib
import gc
import mmap
import multiprocessing
import os
import select
import signal
import threading
import time
import traceback
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ._blas import limit_blas_threads

Task = Callable[[], None]
_QUIT = 255
_SPIN_SECONDS = 0.005
# Control words: task claim counter, command sequence number, command, helpers
# done, helpers failed, caller asleep, then one asleep flag per helper.
_CLAIM, _SEQ, _CMD, _DONE, _FAILED, _CALLER_ASLEEP, _HELPER_ASLEEP = range(7)


class Arena:
    """Float64 arrays carved out of one anonymous shared mapping."""

    def __init__(self, shapes: Sequence[Tuple[int, ...]]):
        sizes = [int(np.prod(s)) for s in shapes]
        # Populated up front: one pass in the kernel costs less than a page
        # fault per page later.
        flags = mmap.MAP_SHARED | getattr(mmap, "MAP_POPULATE", 0)
        self._buf = mmap.mmap(-1, max(8, 8 * sum(sizes)), flags=flags)
        self.arrays: List[np.ndarray] = []
        start = 0
        for shape, size in zip(shapes, sizes):
            view = np.frombuffer(self._buf, dtype=np.float64, count=size, offset=8 * start)
            self.arrays.append(view.reshape(shape))
            start += size


def _cpus() -> List[int]:
    try:
        return sorted(os.sched_getaffinity(0))
    except AttributeError:
        return []


def _pin(cpu: int) -> None:
    try:
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        pass


class Team:
    """The calling process plus up to size - 1 forked helpers.

    `tasks(c)` returns the task list of command c (0 <= c < 255); every
    process must build the same list from the shared state.
    """

    def __init__(self, size: int, tasks: Callable[[int], Sequence[Task]]):
        self.tasks = tasks
        self.helpers: List[Tuple[int, int, int]] = []  # (pid, command fd, reply fd)
        self._running = False
        self._affinity = None
        cpus = _cpus()
        size = min(int(size), len(cpus))
        if not hasattr(os, "fork") or threading.active_count() > 1:
            size = 1
        if size > 1:
            try:
                self._ctl = Arena([(_HELPER_ASLEEP + size - 1,)]).arrays[0]
                self._lock = multiprocessing.Lock()
            except OSError:  # no shared memory or semaphores here
                size = 1
        if size > 1:
            # Keep the collector from touching (and so copying) every object
            # the processes share; `join` lets it see them again.
            gc.freeze()
            for rank in range(1, size):
                try:
                    self._fork(cpus[rank])
                except OSError:
                    break
            if self.helpers:
                self._running = True
                self._affinity = set(cpus)
                _pin(cpus[0])
            else:
                gc.unfreeze()
        self.size = len(self.helpers) + 1

    def _fork(self, cpu: int) -> None:
        cmd_r, cmd_w = os.pipe()
        rep_r, rep_w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            for fd in (cmd_r, cmd_w, rep_r, rep_w):
                os.close(fd)
            raise
        if pid == 0:
            code = 0
            try:
                os.close(cmd_w)
                os.close(rep_r)
                for _, fd, reply in self.helpers:
                    os.close(fd)
                    os.close(reply)
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                gc.disable()
                _pin(cpu)
                rank = len(self.helpers)
                seen = 0.0
                with limit_blas_threads():
                    while True:
                        seen = self._next_command(seen, rank, cmd_r)
                        if seen is None or self._ctl[_CMD] == _QUIT:
                            break
                        command = int(self._ctl[_CMD])
                        failed = False
                        try:
                            self._serve(command)
                        except Exception:
                            traceback.print_exc()
                            failed = True
                        with self._lock:
                            self._ctl[_DONE] += 1
                            self._ctl[_FAILED] += failed
                            wake = self._ctl[_CALLER_ASLEEP] != 0
                        if wake:
                            os.write(rep_w, b"d")
            except BaseException:
                code = 1
            finally:
                # A helper never returns into the caller's code.
                os._exit(code)
        os.close(cmd_r)
        os.close(rep_w)
        self.helpers.append((pid, cmd_w, rep_r))

    def _next_command(self, seen: float, rank: int, cmd_r: int) -> Optional[float]:
        """In a helper: wait until the command sequence number passes `seen`
        and return the new one, or None once the caller is gone."""
        ctl = self._ctl
        deadline = time.perf_counter() + _SPIN_SECONDS
        while ctl[_SEQ] == seen:
            if time.perf_counter() < deadline:
                continue
            with self._lock:
                asleep = ctl[_SEQ] == seen
                ctl[_HELPER_ASLEEP + rank] = asleep
            if asleep and not os.read(cmd_r, 1):
                return None
        with self._lock:  # orders the reads of the command's data after it
            return float(ctl[_SEQ])

    def _serve(self, command: int) -> None:
        tasks = self.tasks(command)
        while True:
            with self._lock:
                k = int(self._ctl[_CLAIM])
                self._ctl[_CLAIM] = k + 1
            if k >= len(tasks):
                return
            tasks[k]()

    def _post(self, command: int) -> None:
        ctl = self._ctl
        with self._lock:
            ctl[_CLAIM] = ctl[_DONE] = ctl[_FAILED] = 0
            ctl[_CMD] = command
            ctl[_SEQ] += 1
            asleep = [k for k in range(len(self.helpers)) if ctl[_HELPER_ASLEEP + k]]
            for k in asleep:
                ctl[_HELPER_ASLEEP + k] = 0
        for k in asleep:
            os.write(self.helpers[k][1], b"c")

    def _wait_helpers(self) -> None:
        ctl, n = self._ctl, len(self.helpers)
        deadline = time.perf_counter() + _SPIN_SECONDS
        while ctl[_DONE] < n and time.perf_counter() < deadline:
            pass
        with self._lock:
            ctl[_CALLER_ASLEEP] = ctl[_DONE] < n
        replies = [reply for _, _, reply in self.helpers]
        while ctl[_CALLER_ASLEEP]:
            for fd in select.select(replies, [], [])[0]:
                if not os.read(fd, 1):
                    ctl[_CALLER_ASLEEP] = 0
                    raise RuntimeError("a helper process exited")
            with self._lock:
                ctl[_CALLER_ASLEEP] = ctl[_DONE] < n
        if ctl[_FAILED]:
            raise RuntimeError("a helper process failed")

    def run(self, command: int) -> None:
        """Run every task of `command` and wait until all are done."""
        if not self._running:
            with limit_blas_threads():
                for task in self.tasks(command):
                    task()
            return
        self._post(command)
        try:
            with limit_blas_threads():
                self._serve(command)
        except BaseException:
            # The caller's own failure is the one to report; a helper's
            # has already printed its traceback.
            with contextlib.suppress(RuntimeError):
                self._wait_helpers()
            raise
        self._wait_helpers()

    def stop(self) -> None:
        """Tell the helpers to exit; later commands run in the caller alone."""
        if self._running:
            self._running = False
            try:
                self._post(_QUIT)
            except OSError:
                pass
            for _, cmd, reply in self.helpers:
                os.close(cmd)
                os.close(reply)

    def join(self) -> None:
        """Stop the helpers and wait for them to exit."""
        self.stop()
        for pid, _, _ in self.helpers:
            os.waitpid(pid, 0)
        if self.helpers:
            gc.unfreeze()
        self.helpers = []
        if self._affinity is not None:
            try:
                os.sched_setaffinity(0, self._affinity)
            except OSError:
                pass
            self._affinity = None
