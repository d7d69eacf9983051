"""Problem contract, solver configuration, iteration traces, stopping rule.

A solve's per-iteration history is a :class:`TraceRecords`, a column store
that reads as a sequence of :class:`IterationRecord`.
"""

from __future__ import annotations

import enum
import math
import operator
import time
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np


class MethodKind(str, enum.Enum):
    """Row-selection strategies implemented by the solver drivers."""

    NK = "nk"                        # cyclic sweep
    NURK = "nurk"                    # uniform random row
    NRK = "nrk"                      # residual-proportional random row
    DR_CNK = "dr-cnk"                # distance-capped set, residual-weighted pick
    RD_CNK = "rd-cnk"                # residual-capped set, distance-weighted pick
    DB_CNK = "db-cnk"                # distance-capped set, block projection
    RB_CNK = "rb-cnk"                # residual-capped set, block projection
    GLM_HYBRID_DB = "glm-hybrid-db"  # linear head solve + distance-capped tail block
    GLM_HYBRID_RB = "glm-hybrid-rb"  # linear head solve + residual-capped tail block


BLOCK_KINDS = frozenset({MethodKind.DB_CNK, MethodKind.RB_CNK})
HYBRID_KINDS = frozenset({MethodKind.GLM_HYBRID_DB, MethodKind.GLM_HYBRID_RB})
# greedy methods that cap on the distance rule; the other greedy methods use the residual rule
DISTANCE_KINDS = frozenset({MethodKind.DR_CNK, MethodKind.DB_CNK, MethodKind.GLM_HYBRID_DB})


@dataclass(frozen=True)
class Convex:
    """Capped threshold blending the greedy maximum with the mean term,
    ``theta`` on the maximum and ``1 - theta`` on the mean.  ``theta = 0.5``
    is the default used everywhere unless configured otherwise."""

    theta: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError(f"theta must lie in [0, 1], got {self.theta}")


@dataclass(frozen=True)
class Scaled:
    """Capped threshold that keeps only the ``xi``-scaled greedy maximum."""

    xi: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.xi <= 1.0:
            raise ValueError(f"xi must lie in (0, 1], got {self.xi}")


ThresholdMode = Convex | Scaled


class IterateMemo:
    """Values a problem derives from one iterate, shared by its evaluations
    there.

    :meth:`at` returns the store for ``x`` and empties it first when ``x`` is
    not the array it last served, so the memo holds one iterate's values and
    never hands them out for another array.  The key is the array's
    identity, and the memo keeps a reference to it, so ``x`` must not be
    changed in place while it is evaluated at.  Problems store vectors
    here (GLM margins and curvature, Brown products), never Jacobian blocks.
    """

    __slots__ = ("_x", "_values")

    def __init__(self):
        self._x = None
        self._values: dict = {}

    def at(self, x) -> dict:
        if x is not self._x:
            self._x = x
            self._values = {}
        return self._values


class ProblemInstance:
    """A square or rectangular nonlinear system ``f(x) = 0``.

    Concrete problems subclass this and provide ``residual``, ``row_grad``
    and ``jacobian`` (whole, or a subset of its rows); ``block_step`` is an
    optional hook for blocks whose minimum-norm step has a closed form.
    Evaluation must be read-only so several solves can share one instance;
    each solve owns its own iterate, PRNG and trace.  The one exception is a
    cache of the problem's own data that an evaluation may build lazily, once,
    as a deterministic function of that data (the GLM's head Gram inverse):
    every later evaluation, in this solve or another, reads the same bits.
    An array an evaluation returns without a memo is fresh or read-only, so
    no caller's write changes a later evaluation.

    A row index is an integer in ``[0, m)``: a Python or numpy int for
    ``row_grad``, an integer array or list for ``jacobian`` and
    ``block_step``.  Anything else, a float or a bool included, raises
    IndexError.

    Every evaluation takes an optional trailing ``memo`` (an
    :class:`IterateMemo`).  ``solve`` creates one per solve and hands it to
    every evaluation, so the values an iterate shares between them (the GLM
    margin and curvature, the Brown leave-one-out products) are computed
    once per iterate.  The memo belongs to the solve, not to the instance,
    and is keyed to one iterate.  With or without it an evaluation returns
    the same bits; called without it, it computes everything afresh.

    Attributes
    ----------
    m, n : row and unknown counts (residual length m, gradient length n).
    d : head rows, ``0 <= d < m``: the leading affine rows ``:d`` that a
        hybrid method solves exactly before it selects among the rows
        ``d:``.  0 (the default) means none; a hybrid refuses a problem
        unless ``0 < d < m``.  The GLM sets it to its feature count.
    head_rows : the head's row indices ``0..d-1`` as one read-only array,
        built from ``d`` on first use and kept, which a hybrid hands to
        every head step.
    known_root : optional exact solution, used for error tracking.
    """

    m: int
    n: int
    d: int = 0
    known_root: np.ndarray | None = None

    def residual(self, x: np.ndarray, memo: IterateMemo | None = None) -> np.ndarray:
        raise NotImplementedError

    def row_grad(self, i: int, x: np.ndarray, memo: IterateMemo | None = None) -> np.ndarray:
        raise NotImplementedError

    def jacobian(self, x: np.ndarray, rows=None, memo: IterateMemo | None = None) -> np.ndarray:
        """The m x n Jacobian at ``x``, or with ``rows`` (integer indices in
        ``[0, m)``, any order, repeats allowed) only those rows: bit for bit
        ``jacobian(x)[rows]``, without building the others."""
        raise NotImplementedError

    def row_sq_norms_at(self, x: np.ndarray, memo: IterateMemo | None = None) -> np.ndarray:
        """Squared gradient norm of every row at ``x``.

        Default materializes the Jacobian; problems with structure override
        this so single-row methods avoid the full m x n evaluation.
        """
        J = self.jacobian(x, None, memo)
        return np.einsum("ij,ij->i", J, J)

    def block_step(self, x: np.ndarray, rows, rhs: np.ndarray, memo: IterateMemo | None = None) -> np.ndarray | None:
        """The minimum-norm step ``J_S^+ rhs`` on the strictly increasing
        rows ``S = rows`` at ``x``, or None to leave the block to
        ``min_norm_least_squares`` on ``jacobian(x, rows)``.  A problem whose
        blocks have a closed form overrides this; the default returns None."""
        return None

    @cached_property
    def head_rows(self) -> np.ndarray:
        rows = np.arange(self.d)
        rows.flags.writeable = False
        return rows


@dataclass(frozen=True)
class SolverConfig:
    """Everything a solve needs besides the problem and the start point.

    ``clock`` exists so traces can be made byte-reproducible in tests and
    benchmarks; the default is the monotonic wall clock.  ``record_error``
    tracks ``||x - x*||^2`` only if the problem has a ``known_root``; on
    one without (a GLM), the trace silently has no error column.
    """

    method: MethodKind
    threshold: ThresholdMode = Convex()
    tol: float = 1e-6
    max_iter: int = 200_000
    seed: int = 0
    record_error: bool = False
    record_iterates: bool = False
    clock: Callable[[], float] = time.perf_counter

    def __post_init__(self):
        object.__setattr__(self, "method", MethodKind(self.method))  # ValueError on an unknown name
        object.__setattr__(self, "max_iter", operator.index(self.max_iter))  # TypeError on a float
        object.__setattr__(self, "seed", operator.index(self.seed))
        if not isinstance(self.threshold, ThresholdMode):
            raise TypeError(f"threshold must be Convex or Scaled, got {self.threshold!r}")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if not self.tol > 0.0:  # NaN fails too
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


class SolveStatus(enum.Enum):
    CONVERGED = "converged"
    ITERATION_CAP_REACHED = "iteration_cap_reached"
    NUMERICAL_BREAKDOWN = "numerical_breakdown"


def check_stop(residual_sq: float, k: int, config: SolverConfig) -> SolveStatus | None:
    """Stopping rule shared by every method: the status that ends the solve
    at iterate ``k``, or None to continue.

    A non-finite ``residual_sq`` is a numerical breakdown.  Otherwise the
    solve converged iff ``residual_sq < tol`` (strict), and the iteration
    cap fires at ``k >= max_iter`` only when not converged.
    """
    if not math.isfinite(residual_sq):
        return SolveStatus.NUMERICAL_BREAKDOWN
    if residual_sq < config.tol:
        return SolveStatus.CONVERGED
    if k >= config.max_iter:
        return SolveStatus.ITERATION_CAP_REACHED
    return None


@dataclass(frozen=True, slots=True)
class IterationRecord:
    """State captured at the start of iteration ``k`` plus the selection the
    iteration made.  The terminal record carries the final residual and an
    empty selection.  A trace builds these on demand from its columns."""

    k: int
    residual_sq: float
    selected: tuple[int, ...]
    set_size: int
    elapsed: float
    error_sq: float | None = None


# the unsigned integer codes a trace column moves through, narrowest first
_WIDER = {"B": "H", "H": "I", "I": "Q"}


def _widened(column: array, values: Sequence[int]) -> array:
    """``column``, or a copy of it in the narrowest wider code that holds
    ``values``.  Raises ``OverflowError`` if no code holds them."""
    code = column.typecode
    while True:
        try:
            array(code, values)
        except OverflowError:
            if code not in _WIDER:
                raise
            code = _WIDER[code]
        else:
            return column if code == column.typecode else array(code, column)


class TraceRecords(Sequence[IterationRecord]):
    """A solve's iteration records, stored as columns.

    ``solve`` appends one record per iterate with :meth:`append`; nothing
    else writes.  Read back, the store is a read-only sequence of
    :class:`IterationRecord`: indexing builds the record on demand, with
    ``k`` its position, and a slice is a one-pass iterator that builds the
    records at the sliced positions, each keeping its ``k``.

    The columns read directly as ``k`` (a range) and ``residual_sq``,
    ``elapsed``, ``set_size`` and ``error_sq`` (read-only memoryviews;
    ``error_sq`` is None unless the error is tracked).

    The integer columns (set sizes, selected rows and where each record's
    rows end) are unsigned and start at one byte (format ``B``).  The first
    value that does not fit moves its column to the narrowest of ``H``,
    ``I`` and ``Q`` that holds it, so ``set_size`` reads as an unsigned
    memoryview of the narrowest width so far: convert it with ``.tolist()``
    or ``np.asarray(column, dtype=np.int64)`` before arithmetic that can
    exceed that width.  A single-row record of a problem under 256 rows
    takes 20 bytes in a trace of 256 to 65535 records: 8 each for the
    residual and the time, 1 for the set size, 1 for the row and 2 for the
    end of its rows.  A tracked error adds 8.
    """

    __slots__ = ("_residual_sq", "_elapsed", "_set_size", "_rows", "_row_ends", "_error_sq")

    def __init__(self, track_error: bool = False):
        self._residual_sq = array("d")
        self._elapsed = array("d")
        self._set_size = array("B")
        self._rows = array("B")  # the selected rows of every record, end to end
        self._row_ends = array("B")  # where each record's rows end in _rows
        self._error_sq = array("d") if track_error else None

    def append(
        self, residual_sq: float, selected: Sequence[int], set_size: int, elapsed: float, error_sq: float | None = None
    ) -> None:
        """Add the next record; ``error_sq`` is required when tracked.  A call
        that raises leaves every column as it was."""
        try:
            self._residual_sq.append(residual_sq)
            self._elapsed.append(elapsed)
            if self._error_sq is not None:
                self._error_sq.append(error_sq)
            self._set_size.append(set_size)
            self._rows.extend(selected)
            # last: its length is the number of whole records
            self._row_ends.append(len(self._rows))
        except BaseException as error:
            self._drop_partial_record()
            if not isinstance(error, OverflowError) or not self._widen(selected, set_size):
                raise
            # the floats went in before the integer that overflowed, so the
            # retry cannot fail on them
            self.append(residual_sq, selected, set_size, elapsed, error_sq)

    def _drop_partial_record(self) -> None:
        """Cut every column back to the records that ``_row_ends`` counts."""
        ends = self._row_ends
        kept = len(ends)
        for column, length in (
            (self._residual_sq, kept),
            (self._elapsed, kept),
            (self._error_sq, kept),
            (self._set_size, kept),
            (self._rows, ends[-1] if kept else 0),
        ):
            # a column no longer than that is left alone: deleting even an
            # empty slice fails while a memoryview of it is held
            if column is not None and len(column) > length:
                del column[length:]

    def _widen(self, selected: Sequence[int], set_size: int) -> bool:
        """Move each integer column that cannot hold this record's values to
        the narrowest code that can; False if none had to move.  Raises
        ``OverflowError``, changing nothing, if no code holds a value."""
        old = (self._set_size, self._rows, self._row_ends)
        new = (
            _widened(self._set_size, (set_size,)),
            _widened(self._rows, selected),
            _widened(self._row_ends, (len(self._rows) + len(selected),)),
        )
        self._set_size, self._rows, self._row_ends = new
        return any(column is not before for column, before in zip(new, old))

    @property
    def k(self) -> range:
        return range(len(self._residual_sq))

    @property
    def residual_sq(self) -> memoryview:
        return memoryview(self._residual_sq).toreadonly()

    @property
    def elapsed(self) -> memoryview:
        return memoryview(self._elapsed).toreadonly()

    @property
    def set_size(self) -> memoryview:
        return memoryview(self._set_size).toreadonly()

    @property
    def error_sq(self) -> memoryview | None:
        return None if self._error_sq is None else memoryview(self._error_sq).toreadonly()

    def _record(self, k: int) -> IterationRecord:
        ends = self._row_ends
        error_sq = self._error_sq
        return IterationRecord(
            k,
            self._residual_sq[k],
            tuple(self._rows[ends[k - 1] if k else 0 : ends[k]]),
            self._set_size[k],
            self._elapsed[k],
            None if error_sq is None else error_sq[k],
        )

    def __len__(self) -> int:
        return len(self._residual_sq)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return map(self._record, self.k[index])
        return self._record(self.k[index])

    def __iter__(self):
        return map(self._record, self.k)


@dataclass
class SolveTrace:
    records: TraceRecords
    status: SolveStatus
    final_x: np.ndarray
    iterates: list[np.ndarray] | None = None

    @property
    def total_iterations(self) -> int:
        """Iterations taken: one record per iterate, from k = 0."""
        return len(self.records) - 1
