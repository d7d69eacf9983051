"""Problem contract, solver configuration, iteration traces, stopping rule."""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass
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
    and ``jacobian`` (whole, or a subset of its rows).  Evaluation must be
    read-only so several solves can share one instance; each solve owns its
    own iterate, PRNG and trace.

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
    known_root : optional exact solution, used for error tracking.
    """

    m: int
    n: int
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
        J = self.jacobian(x)
        return np.einsum("ij,ij->i", J, J)


@dataclass(frozen=True)
class SolverConfig:
    """Everything a solve needs besides the problem and the start point.

    ``clock`` exists so traces can be made byte-reproducible in tests and
    benchmarks; the default is the monotonic wall clock.
    """

    method: MethodKind
    threshold: ThresholdMode = Convex(0.5)
    tol: float = 1e-6
    max_iter: int = 200_000
    seed: int = 0
    record_error: bool = False
    record_iterates: bool = False
    clock: Callable[[], float] = time.perf_counter

    def __post_init__(self):
        if self.tol <= 0.0:
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
    empty selection."""

    k: int
    residual_sq: float
    selected: tuple[int, ...]
    set_size: int
    elapsed: float
    error_sq: float | None = None


@dataclass
class SolveTrace:
    records: list[IterationRecord]
    status: SolveStatus
    final_x: np.ndarray
    total_iterations: int
    total_seconds: float
    iterates: list[np.ndarray] | None = None

    @property
    def residual_history(self) -> np.ndarray:
        return np.array([r.residual_sq for r in self.records])
