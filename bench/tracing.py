"""Outside-in span recording around the public entry points of sdpsketch.

Nothing under ``src/`` is edited.  Each wrapper is installed in every
namespace where its callee is looked up at call time: a function bound by
``from .solver import solve`` in ``experiments`` and ``cli`` is replaced in
those modules as well as in ``solver``, and methods are replaced on their
classes.  Spans stay in memory until the run ends and are aggregated into
per-layer self times (span duration minus the time covered by its children)
and counts.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional


@dataclass
class Span:
    name: str
    start: float
    parent: Optional[int]
    op_id: str
    end: float = 0.0
    attrs: Dict[str, object] = field(default_factory=dict)
    child_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    """Records nested spans; per-thread stacks give each span its parent."""

    def __init__(self):
        self.spans: List[Span] = []
        self.op_id: Optional[str] = None  # spans are recorded only while set
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, call: Callable[[], object], annotate=None):
        """Runs `call()` inside a span named `name` while an operation is set."""
        if self.op_id is None:
            return call()
        stack = self._stack()
        parent = stack[-1] if stack else None
        rec = Span(name=name, start=time.perf_counter(), parent=parent, op_id=self.op_id)
        with self._lock:
            index = len(self.spans)
            self.spans.append(rec)
        stack.append(index)
        try:
            result = call()
        except Exception as exc:
            rec.attrs = {"status": "Error", "error": type(exc).__name__}
            raise
        finally:
            rec.end = time.perf_counter()
            stack.pop()
            if parent is not None:
                self.spans[parent].child_time += rec.duration
        if annotate is not None:
            rec.attrs = annotate(result)
        return result

    def wrap(self, name: str, fn: Callable, annotate=None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, functools.partial(fn, *args, **kwargs), annotate)

        return traced


def _solution_attrs(sol) -> dict:
    return {"status": sol.status.value, "iterations": int(sol.iterations)}


def _iteration_attrs(res) -> dict:
    return {"iterations": int(res.iterations)}


# (module, attribute, span name, annotate): functions are replaced in every
# sdpsketch module that binds them.
FUNCTIONS = [
    ("sdpsketch.sos", "compile_pop", "sos.compile", None),
    ("sdpsketch.control", "compile_poc", "control.compile", None),
    ("sdpsketch.sketch", "ensembles_for_problem", "sketch.sample", None),
    ("sdpsketch.sketch", "extend_ensembles", "sketch.extend", None),
    ("sdpsketch.solver", "solve", "solver.solve", _solution_attrs),
    ("sdpsketch.solver", "solve_consensus", "solver.solve", _solution_attrs),
    ("sdpsketch.solver", "kkt_residuals", "solver.kkt_replay", None),
    ("sdpsketch.solver", "solve_conic", "ipm.solve_conic", _iteration_attrs),
    ("sdpsketch.consensus", "solve_consensus", "consensus.solve", _iteration_attrs),
    ("sdpsketch.measures", "extract_moments", "measures.extract", None),
    ("sdpsketch.measures", "density_grid", "measures.density", None),
    ("sdpsketch.experiments", "run_rank_sweep", "experiments.sweep", None),
    ("sdpsketch.cli", "main", "cli.main", None),
]

# (module, class, attribute, span name): methods are replaced on the class.
METHODS = [
    ("sdpsketch.sketch", "BlockSdp", "from_json_dict", "sketch.decode"),
    ("sdpsketch.conic", "DenseRows", "schur", "conic.schur"),
    ("sdpsketch.conic", "ProjectedRows", "schur", "conic.schur"),
    ("sdpsketch.conic", "DenseRows", "apply", "conic.rows"),
    ("sdpsketch.conic", "ProjectedRows", "apply", "conic.rows"),
    ("sdpsketch.conic", "DenseRows", "adjoint_blocks", "conic.rows"),
    ("sdpsketch.conic", "ProjectedRows", "adjoint_blocks", "conic.rows"),
    ("sdpsketch.conic", "RowOps", "row_inner", "conic.rows"),
    ("sdpsketch.measures", "GridDensity", "to_csv", "measures.write"),
    ("sdpsketch.measures", "GridDensity", "to_pgm", "measures.write"),
]


class Instrumentation:
    """Swaps the wrappers in and out; removed, the program runs untouched."""

    def __init__(self, tracer: Tracer):
        self._swaps = []  # (owner, attribute, original, wrapped)
        for mod_name in {t[0] for t in FUNCTIONS + METHODS}:
            importlib.import_module(mod_name)  # solver imports consensus lazily
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if name == "sdpsketch" or name.startswith("sdpsketch.")]
        for mod_name, attr, span_name, annotate in FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            wrapped = tracer.wrap(span_name, original, annotate)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._swaps.append((ns, key, original, wrapped))
        for mod_name, cls_name, attr, span_name in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            original = cls.__dict__[attr]
            if isinstance(original, staticmethod):
                wrapped = staticmethod(tracer.wrap(span_name, original.__func__))
            else:
                wrapped = tracer.wrap(span_name, original)
            self._swaps.append((cls, attr, original, wrapped))

    def install(self):
        for owner, attr, _, wrapped in self._swaps:
            setattr(owner, attr, wrapped)

    def remove(self):
        for owner, attr, original, _ in self._swaps:
            setattr(owner, attr, original)
