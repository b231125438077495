"""Limit the BLAS thread count for a section of code, using only ctypes.

numpy and scipy each ship their own OpenBLAS, and each starts a thread pool
of its own.  `limit_blas_threads()` holds every loaded OpenBLAS at one
thread for the duration of a `with` block and then restores the previous
counts.  The setting is process-wide.  Nested and concurrent blocks are
counted together: while any block is open, the count is one, and the saved
counts come back when the last closes.

Libraries are found in the process's own memory map (Linux).  Where that map
or the OpenBLAS entry points are missing the context manager does nothing.
"""

from __future__ import annotations

import ctypes
import os
import threading
from contextlib import contextmanager
from typing import List, Optional, Tuple

_PREFIXES = ("openblas", "scipy_openblas")
_SUFFIXES = ("", "64_", "_64")

_lock = threading.Lock()
_depth = 0  # the number of blocks now open
_saved: List[int] = []  # the counts to restore, one per library
_controls: Optional[List[Tuple[object, object]]] = None


def _symbol(lib, verb: str):
    for prefix in _PREFIXES:
        for suffix in _SUFFIXES:
            fn = getattr(lib, f"{prefix}_{verb}_num_threads{suffix}", None)
            if fn is not None:
                return fn
    return None


def _find_controls() -> List[Tuple[object, object]]:
    """(setter, getter) pairs of every OpenBLAS mapped into this process."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return []
    mode = getattr(os, "RTLD_NOLOAD", 0) | ctypes.RTLD_GLOBAL
    out = []
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path, mode=mode)
        except OSError:
            continue
        setter, getter = _symbol(lib, "set"), _symbol(lib, "get")
        if setter is None or getter is None:
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], None
        getter.argtypes, getter.restype = [], ctypes.c_int
        out.append((setter, getter))
    return out


def _apply() -> None:
    for (setter, getter), count in zip(_controls, _saved):
        target = 1 if _depth else count
        # Only on a change: after a fork, OpenBLAS restarts its thread pool
        # on the next call, and the new threads spin for a while.
        if getter() != target:
            setter(target)


@contextmanager
def limit_blas_threads():
    global _controls, _depth
    with _lock:
        if _controls is None:
            _controls = _find_controls()
        if not _depth:
            _saved[:] = [getter() for _, getter in _controls]
        _depth += 1
        _apply()
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            _apply()
