"""Method drivers: single-row projection, block projection, and the solve loop.

Every method shares the same skeleton: evaluate the full residual, apply the
stopping rule, pick rows, update.  The full residual is recomputed each
iteration (no stale caching) so iteration counts are comparable across
methods.

The GLM hybrids run the same loop.  Their update is two sub-steps under one
iteration index: the exact minimum-norm solve of the affine head rows, reusing
the residual at ``x``, then one greedy capped block projection on the
nonlinear tail rows, with the residual evaluated once at the post-head
iterate.
"""

from __future__ import annotations

import numpy as np

from .core import (
    BLOCK_KINDS,
    DISTANCE_KINDS,
    HYBRID_KINDS,
    IterationRecord,
    MethodKind,
    ProblemInstance,
    SolveStatus,
    SolveTrace,
    SolverConfig,
    StopDecision,
    check_stop,
)
from .errors import (
    AllWeightsZero,
    DegenerateState,
    EmptySet,
    FactorizationFailure,
    ZeroGradient,
)
from .numerics import draw_weighted_index, min_norm_least_squares, row_sq_norms, seeded_rng
from .problems import GLMProblem
from .selection import (
    RowGeometry,
    SelectionKind,
    build_distance_set,
    build_residual_set,
    compute_delta,
    compute_epsilon,
    sample_index,
)

_BREAKDOWN_ERRORS = (ZeroGradient, EmptySet, AllWeightsZero, FactorizationFailure, DegenerateState)


def kaczmarz_step(x: np.ndarray, f_i: float, grad_i: np.ndarray) -> np.ndarray:
    """Project ``x`` onto the zero set of the row's linearization:
    ``x - (f_i / ||grad_i||^2) grad_i``."""
    gsq = float(grad_i @ grad_i)
    if gsq < 1e-300:
        raise ZeroGradient("row gradient norm underflowed")
    return x - (f_i / gsq) * grad_i


def _greedy_selection(g: RowGeometry, kind: SelectionKind, mode):
    if kind is SelectionKind.DISTANCE:
        return build_distance_set(g, compute_epsilon(g, mode))
    return build_residual_set(g, compute_delta(g, mode))


def solve(problem: ProblemInstance, x0: np.ndarray, config: SolverConfig) -> SolveTrace:
    """Run the configured method from ``x0`` until the stopping rule fires.

    The trace starts with a record at k = 0 holding the initial residual.
    Numerical breakdown (underflowing denominators, non-finite residuals)
    terminates the solve with a status instead of raising.  The hybrid
    methods need a ``GLMProblem``.
    """
    method = config.method
    if method in HYBRID_KINDS and not isinstance(problem, GLMProblem):
        raise TypeError("hybrid methods require a GLMProblem")
    x = np.array(x0, dtype=float)
    if x.shape != (problem.n,):
        raise ValueError(f"x0 must have length {problem.n}, got shape {x.shape}")
    rng = seeded_rng(config.seed)
    clock = config.clock
    started = clock()
    records: list[IterationRecord] = []
    iterates: list[np.ndarray] | None = [] if config.record_iterates else None
    x_star = problem.known_root if config.record_error else None
    kind = SelectionKind.DISTANCE if method in DISTANCE_KINDS else SelectionKind.RESIDUAL
    m = problem.m
    status = SolveStatus.NUMERICAL_BREAKDOWN

    k = 0
    while True:
        with np.errstate(over="ignore", invalid="ignore"):
            # overflow here is an anticipated outcome of a wild projection
            # step; the finiteness check below turns it into a breakdown
            r = problem.residual(x)
            residual_sq = float(r @ r)
        error_sq = float(np.sum((x - x_star) ** 2)) if x_star is not None else None
        if iterates is not None:
            iterates.append(x.copy())

        if not np.isfinite(residual_sq):
            records.append(IterationRecord(k, residual_sq, (), 0, clock() - started, error_sq))
            status = SolveStatus.NUMERICAL_BREAKDOWN
            break
        decision = check_stop(residual_sq, k, config)
        if decision is not StopDecision.CONTINUE:
            records.append(IterationRecord(k, residual_sq, (), 0, clock() - started, error_sq))
            status = (
                SolveStatus.CONVERGED
                if decision is StopDecision.CONVERGED
                else SolveStatus.ITERATION_CAP_REACHED
            )
            break

        try:
            if method is MethodKind.NK:
                i = k % m
                x = kaczmarz_step(x, r[i], problem.row_grad(i, x))
                selected, set_size = (i,), 1
            elif method is MethodKind.NURK:
                i = int(rng.integers(m))
                x = kaczmarz_step(x, r[i], problem.row_grad(i, x))
                selected, set_size = (i,), 1
            elif method is MethodKind.NRK:
                i = draw_weighted_index(rng, r * r)
                x = kaczmarz_step(x, r[i], problem.row_grad(i, x))
                selected, set_size = (i,), 1
            elif method is MethodKind.DR_CNK or method is MethodKind.RD_CNK:
                # single-sample greedy: needs row norms plus one gradient row
                g = RowGeometry.from_state(r, problem.row_sq_norms_at(x))
                sel = _greedy_selection(g, kind, config.threshold)
                i = sample_index(sel, rng)
                x = kaczmarz_step(x, r[i], problem.row_grad(i, x))
                selected, set_size = (i,), len(sel)
            elif method in BLOCK_KINDS:
                J = problem.jacobian(x)
                g = RowGeometry.from_state(r, problem.row_sq_norms_at(x))
                sel = _greedy_selection(g, kind, config.threshold)
                x = x - min_norm_least_squares(J[sel.indices], r[sel.indices])
                selected, set_size = tuple(int(j) for j in sel.indices), len(sel)
            elif method in HYBRID_KINDS:
                # a breakdown in either sub-step leaves x at the pre-head iterate
                x_mid = hybrid_linear_substep(problem, x, r)
                r_mid = problem.residual(x_mid)
                if float(np.sum(r_mid[problem.d:] ** 2)) == 0.0:
                    # tail exactly solved: nothing left for the greedy block
                    x = x_mid
                    selected, set_size = (), 0
                else:
                    sel, rows, J = hybrid_tail_selection(problem, x_mid, r_mid, kind, config.threshold)
                    x = x_mid - min_norm_least_squares(J[rows], r_mid[rows])
                    selected, set_size = tuple(int(j) for j in rows), len(sel)
            else:  # pragma: no cover - enum is exhaustive
                raise ValueError(f"unhandled method {method}")
        except _BREAKDOWN_ERRORS:
            records.append(IterationRecord(k, residual_sq, (), 0, clock() - started, error_sq))
            status = SolveStatus.NUMERICAL_BREAKDOWN
            break

        records.append(IterationRecord(k, residual_sq, selected, set_size, clock() - started, error_sq))
        k += 1

    return SolveTrace(
        records=records,
        status=status,
        final_x=x,
        total_iterations=records[-1].k,
        total_seconds=clock() - started,
        iterates=iterates,
    )


def hybrid_linear_substep(glm: GLMProblem, x: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Minimum-norm solve of the affine head rows, given the residual ``r``
    at ``x``.  The head Jacobian has full row rank (identity block on w), so
    those rows are annihilated exactly by one projection."""
    return x - min_norm_least_squares(glm.linear_head_jacobian(), r[: glm.d])


def hybrid_tail_selection(glm: GLMProblem, x: np.ndarray, r: np.ndarray, kind: SelectionKind, mode):
    """Greedy capped selection restricted to the p nonlinear tail rows,
    given the residual ``r`` at ``x``.

    The geometry (norms, thresholds, row count) is that of the tail
    subsystem; returned indices are global row indices of the full system.
    """
    J = glm.jacobian(x)
    tail_rows = slice(glm.d, glm.d + glm.p)
    g = RowGeometry.from_state(r[tail_rows], row_sq_norms(J[tail_rows]))
    sel = _greedy_selection(g, kind, mode)
    return sel, sel.indices + glm.d, J
