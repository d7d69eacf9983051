"""Spans around the calls into each layer of ``capped_kaczmarz``.

The package is not changed: :func:`instrumented` rebinds, for the duration
of a ``with`` block, the names through which ``solve`` reaches the other
layers, and sets wrapped methods on the problem instances themselves (so a
``GLMProblem`` stays one for the hybrid methods).  ``solvers`` imports the
``selection`` and ``numerics`` functions by name, so those names are
rebound in ``capped_kaczmarz.solvers``; ``sample_index`` reaches the draw
through ``capped_kaczmarz.selection``, so that name is rebound there too.

Spans are aggregated as they close, by the name of the span and the cell
being solved: call count, inclusive time and self time, where self time is
the span's duration less the time covered by its child spans.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

import capped_kaczmarz.selection as selection_mod
import capped_kaczmarz.solvers as solvers_mod
from capped_kaczmarz.selection import RowGeometry

LOOP = "solvers.loop"
HYBRID_HEAD = "solvers.hybrid_head"

# (module, attribute, span name) for functions reached through module globals
_MODULE_SPANS = (
    (solvers_mod, "kaczmarz_step", "solvers.step"),
    (solvers_mod, "hybrid_linear_substep", HYBRID_HEAD),
    (solvers_mod, "min_norm_least_squares", "numerics.lstsq"),
    (solvers_mod, "row_sq_norms", "numerics.row_norms"),
    (solvers_mod, "draw_weighted_index", "numerics.draw"),
    (selection_mod, "draw_weighted_index", "numerics.draw"),
    (solvers_mod, "compute_epsilon", "selection.threshold"),
    (solvers_mod, "compute_delta", "selection.threshold"),
    (solvers_mod, "build_distance_set", "selection.set"),
    (solvers_mod, "build_residual_set", "selection.set"),
    (solvers_mod, "sample_index", "selection.sample"),
)

# problem method -> span name
_PROBLEM_SPANS = (
    ("residual", "problems.residual"),
    ("row_grad", "problems.row_grad"),
    ("jacobian", "problems.jacobian"),
    ("row_sq_norms_at", "problems.row_norms"),
)


class Tracer:
    """Aggregates spans per ``(cell, name)`` plus named counters per cell.

    ``cell`` names the solve in progress; every span and counter is filed
    under it, so one trace can be split by cell afterwards.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.cell = None
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = defaultdict(float)
        self._stack: list[list] = []  # [name, time covered by children]

    def parent(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[self.cell, name] += amount

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` inside a span called ``name``; ``on_result(tracer, args,
        result)`` runs after the span closes, outside its timing."""
        clock = self.clock
        stack = self._stack

        def spanned(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - started
                stack.pop()
                key = (self.cell, name)
                self.calls[key] += 1
                self.total_s[key] += duration
                self.self_s[key] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if on_result is not None:
                on_result(self, args, result)
            return result

        return spanned

    def totals(self, cells=None) -> dict:
        """Per-name sums over ``cells`` (all cells when None):
        ``{name: {"calls", "self_s", "total_s"}}`` and the counters under
        ``"counts"``."""
        out: dict = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        for (cell, name), calls in self.calls.items():
            if cells is None or cell in cells:
                out[name]["calls"] += calls
                out[name]["self_s"] += self.self_s[cell, name]
                out[name]["total_s"] += self.total_s[cell, name]
        counts: dict = defaultdict(float)
        for (cell, name), amount in self.counts.items():
            if cells is None or cell in cells:
                counts[name] += amount
        result = dict(out)
        result["counts"] = dict(counts)
        return result


def _count_lstsq_rows(tracer: Tracer, args, result) -> None:
    rows = args[0].shape[0]
    tracer.count("numerics.lstsq.rows", rows)
    # the hybrid head solves the constant head block, not a built Jacobian
    if tracer.parent() != HYBRID_HEAD:
        tracer.count("problems.jacobian.rows_used", rows)


def _count_jacobian_rows(tracer: Tracer, args, result) -> None:
    tracer.count("problems.jacobian.rows_built", result.shape[0])


def _count_set_size(tracer: Tracer, args, result) -> None:
    tracer.count("selection.set_size", len(result))


_ON_RESULT = {
    "numerics.lstsq": _count_lstsq_rows,
    "problems.jacobian": _count_jacobian_rows,
    "selection.set": _count_set_size,
}


@contextmanager
def instrumented(tracer: Tracer, problems):
    """Route every call from ``solve`` into the other layers through
    ``tracer`` while the block runs; restore the package on exit."""
    saved_globals = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in _MODULE_SPANS]
    saved_from_state = RowGeometry.__dict__["from_state"]
    try:
        for mod, attr, name in _MODULE_SPANS:
            setattr(mod, attr, tracer.wrap(name, getattr(mod, attr), _ON_RESULT.get(name)))
        RowGeometry.from_state = staticmethod(tracer.wrap("selection.geometry", RowGeometry.from_state))
        for problem in problems:
            for method, name in _PROBLEM_SPANS:
                setattr(problem, method, tracer.wrap(name, getattr(problem, method), _ON_RESULT.get(name)))
        yield tracer
    finally:
        for mod, attr, fn in saved_globals:
            setattr(mod, attr, fn)
        RowGeometry.from_state = saved_from_state
        for problem in problems:
            for method, _ in _PROBLEM_SPANS:
                problem.__dict__.pop(method, None)
