"""Method drivers: single-row projection, block projection, and the solve loop.

Every method shares the same skeleton: evaluate the full residual, apply the
stopping rule (``check_stop``), pick rows, update, and record the iteration
once, as one row appended to the trace's columns (``TraceRecords``).  The
full residual is evaluated at every iterate (no stale caching) so
iteration counts are comparable across methods.

Each solve owns one ``IterateMemo`` and hands it to every problem
evaluation.  It holds what one iterate's evaluations share (the GLM margin,
exp and curvature vector, the Brown leave-one-out products) and is
emptied when the next iterate arrives; it changes no value, only how often
it is computed.

Each solve runs its whole loop under one ``np.errstate(over="ignore",
invalid="ignore")``: a wild step may overflow the residual or ``||f||^2``,
which ``check_stop`` reads as a breakdown, and a row whose ``||g_i||^2``
overflows takes ``kaczmarz_step``'s scaled form, so the checks that read
the values decide and numpy neither warns nor raises.  ``divide`` and
``under`` stay as the caller set them, and the caller's error state is the
same after the solve as before it.

Every greedy method selects at one site, over
``RowGeometry.from_state(r[lo:], norms[lo:])`` with the norms of
``problem.row_sq_norms_at``, then projects onto one drawn row
(``kaczmarz_step``) or takes one minimum-norm step on the selected rows.
A block of one row is projected onto that row by ``kaczmarz_step``, which
is the minimum-norm step there, with no Jacobian block and no least
squares.  Every block of two or more rows takes one ``block_projection``:
it is first offered to the problem's ``block_step`` hook, which returns a
closed-form step or None (the default; the GLM returns one for head rows,
tail rows or both, when its guard certifies ``cond(J)^2 <= 1 /
GRAM_TAU``), and a declined block goes to ``min_norm_least_squares`` on
the selected Jacobian rows only (``problem.jacobian(x, rows)``).  ``lo`` is
0 except for the hybrids, whose iteration first projects onto the
problem's ``d`` affine head rows ``:d`` (``hybrid_linear_substep``, the
same block projection, on the problem's one ``head_rows`` array) and then
onto the selected tail rows ``d:`` at the post-head iterate.  A problem
declares its head rows as ``ProblemInstance.d`` (the GLM's d feature rows;
0, and so no hybrid, by default), so this module imports no problem class.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    BLOCK_KINDS,
    DISTANCE_KINDS,
    HYBRID_KINDS,
    IterateMemo,
    MethodKind,
    ProblemInstance,
    SolveStatus,
    SolveTrace,
    SolverConfig,
    TraceRecords,
    check_stop,
)
from .errors import NumericalBreakdown, ZeroGradient
from .numerics import draw_weighted_index, min_norm_least_squares, seeded_rng
# not called here: benchmark/tracing.py rebinds this name for its numerics.row_norms span
from .numerics import row_sq_norms  # noqa: F401
from .selection import (
    RowGeometry,
    build_distance_set,
    build_residual_set,
    compute_delta,
    compute_epsilon,
    sample_index,
)


def kaczmarz_step(x: np.ndarray, f_i: float, grad_i: np.ndarray) -> np.ndarray:
    """Project ``x`` onto the zero set of the row's linearization:
    ``x - (f_i / ||grad_i||^2) grad_i``.

    Where ``||grad_i||^2`` underflows below 1e-300 or overflows, or that
    coefficient overflows, the same step is taken as ``(f_i / ||grad_i||)``
    along the unit row, with the norm taken after scaling by
    ``max_j |grad_ij|``; every other step keeps the bits of the product
    above.  A zero row whose equation holds (``f_i == 0``) takes a zero
    step.  Any other row whose ``max_j |grad_ij|`` (0 on an empty row) is 0
    or not finite raises ``ZeroGradient``, and so does a row whose scaled
    coefficient ``f_i / ||grad_i||`` overflows (``f_i = 1`` on the row
    ``[5e-324, 0]``), where the step would be infinite and its zero entries
    NaN."""
    gsq = float(grad_i.dot(grad_i))
    f_i = float(f_i)
    if 1e-300 <= gsq < math.inf:
        coef = f_i / gsq
        if math.isfinite(coef):
            return x - coef * grad_i
    scale = float(np.maximum.reduce(np.abs(grad_i), initial=0.0))
    if not 0.0 < scale < math.inf:
        if scale == 0.0 and f_i == 0.0:
            return x.copy()
        raise ZeroGradient("row gradient is zero or not finite")
    unit = grad_i / scale
    unit_norm = math.sqrt(float(unit.dot(unit)))
    unit /= unit_norm
    coef = f_i / unit_norm / scale
    if not math.isfinite(coef):
        raise ZeroGradient("row step is not finite")
    return x - coef * unit


def greedy_selection(g: RowGeometry, method: MethodKind, mode):
    """The capped set of ``method``'s rule (distance for ``DISTANCE_KINDS``,
    else residual) at geometry ``g``, with its threshold and sampling
    weights; every greedy method selects through this."""
    if method in DISTANCE_KINDS:
        return build_distance_set(g, compute_epsilon(g, mode))
    return build_residual_set(g, compute_delta(g, mode))


def solve(problem: ProblemInstance, x0: np.ndarray, config: SolverConfig) -> SolveTrace:
    """Run the configured method from ``x0`` until the stopping rule fires.

    The trace starts with a record at k = 0 holding the initial residual.
    Numerical breakdown (a ``NumericalBreakdown`` from selection or the
    step, or a non-finite residual) terminates the solve with a status
    instead of raising; overflow and invalid operations are ignored for the
    whole solve (see the module docstring).  The hybrid methods need a
    problem with head rows, ``0 < problem.d < problem.m``.
    """
    method = config.method
    hybrid = method in HYBRID_KINDS
    if hybrid and not 0 < problem.d < problem.m:
        raise TypeError("hybrid methods require a problem with head rows (0 < d < m)")
    x = np.array(x0, dtype=float)
    if x.shape != (problem.n,):
        raise ValueError(f"x0 must have length {problem.n}, got shape {x.shape}")
    rng = seeded_rng(config.seed)
    clock = config.clock
    started = clock()
    iterates: list[np.ndarray] | None = [] if config.record_iterates else None
    x_star = problem.known_root if config.record_error else None
    records = TraceRecords(track_error=x_star is not None)
    by_block = hybrid or method in BLOCK_KINDS
    # a hybrid selects among its tail rows only, the rows from d on
    lo = problem.d if hybrid else 0
    m = problem.m
    mode = config.threshold
    # the method's branch, decided once per solve
    cyclic = method is MethodKind.NK
    uniform = method is MethodKind.NURK
    residual_weighted = method is MethodKind.NRK
    memo = IterateMemo()
    # the solve's quiet scope (see the module docstring)
    with np.errstate(over="ignore", invalid="ignore"):
        k = 0
        while True:
            r = problem.residual(x, memo)
            residual_sq = float(r.dot(r))
            error_sq = float(np.add.reduce((x - x_star) ** 2)) if x_star is not None else None
            if iterates is not None:
                iterates.append(x.copy())

            # the selection is recorded only once the update has gone through;
            # stopping and breakdown records carry an empty one
            selected, set_size = (), 0
            status = check_stop(residual_sq, k, config)
            if status is None:
                try:
                    # a hybrid selects and steps at its post-head iterate; a
                    # breakdown in either sub-step leaves x at the pre-head iterate
                    x_at, r_at = x, r
                    if hybrid:
                        x_at = hybrid_linear_substep(problem, x, r, memo)
                        r_at = problem.residual(x_at, memo)
                    if cyclic:
                        i, size = k % m, 1
                    elif uniform:
                        i, size = int(rng.integers(m)), 1
                    elif residual_weighted:
                        i, size = draw_weighted_index(rng, r * r), 1
                    else:
                        # the one greedy selection site; only a hybrid slices
                        r_sel, norms = r_at, problem.row_sq_norms_at(x_at, memo)
                        if lo:
                            r_sel, norms = r_at[lo:], norms[lo:]
                        g = RowGeometry.from_state(r_sel, norms)
                        if hybrid and g.residual_sq == 0.0:
                            # tail exactly solved: the head solve is the whole update
                            x, size = x_at, 0
                        else:
                            sel = greedy_selection(g, method, mode)
                            size = sel.indices.size
                            if not by_block:
                                i = sample_index(sel, rng)
                            elif size == 1:
                                # the minimum-norm step onto one row is its projection
                                i = sel.indices.item(0) + lo
                            else:
                                # the offset costs a ufunc call, so only a hybrid adds it
                                rows = sel.indices + lo if lo else sel.indices
                        # the geometry's arrays are freed before the step
                        del g
                    if by_block and size > 1:
                        x = block_projection(problem, x_at, rows, r_at[rows], memo)
                        selected, set_size = rows.tolist(), size
                    elif size:
                        x = kaczmarz_step(x_at, r_at.item(i), problem.row_grad(i, x_at, memo))
                        selected, set_size = (i,), size
                except NumericalBreakdown:
                    status = SolveStatus.NUMERICAL_BREAKDOWN

            records.append(residual_sq, selected, set_size, clock() - started, error_sq)
            if status is not None:
                break
            k += 1

    return SolveTrace(records=records, status=status, final_x=x, iterates=iterates)


def block_projection(
    problem: ProblemInstance, x: np.ndarray, rows: np.ndarray, rhs: np.ndarray, memo: IterateMemo | None
) -> np.ndarray:
    """``x`` less the minimum-norm step ``J_rows^+ rhs``: the problem's
    closed form for the sorted ``rows`` if it has one, else least squares on
    those Jacobian rows."""
    step = problem.block_step(x, rows, rhs, memo)
    if step is None:
        step = min_norm_least_squares(problem.jacobian(x, rows, memo), rhs)
    return x - step


def hybrid_linear_substep(
    problem: ProblemInstance, x: np.ndarray, r: np.ndarray, memo: IterateMemo | None = None
) -> np.ndarray:
    """The block projection onto the ``problem.d`` affine head rows
    (``problem.head_rows``, built once per problem), given the residual
    ``r`` at ``x``.  Where the head Jacobian has full row rank (on the GLM,
    its identity block on w), one projection annihilates those rows."""
    return block_projection(problem, x, problem.head_rows, r[: problem.d], memo)
