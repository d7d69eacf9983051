import warnings

import numpy as np
import pytest

import capped_kaczmarz.solvers as solvers_mod
from capped_kaczmarz.bench import resolve_problem
from capped_kaczmarz.core import (
    HYBRID_KINDS,
    Convex,
    IterateMemo,
    MethodKind,
    ProblemInstance,
    Scaled,
    SolveStatus,
    SolverConfig,
)
from capped_kaczmarz.errors import (
    AllWeightsZero,
    DegenerateState,
    EmptySet,
    FactorizationFailure,
    NumericalBreakdown,
    ZeroGradient,
)
from capped_kaczmarz.numerics import min_norm_least_squares, row_sq_norms, seeded_rng
from capped_kaczmarz.problems import BrownProblem, LinearProblem, make_synthetic_glm
from capped_kaczmarz.selection import RowGeometry
from capped_kaczmarz.solvers import hybrid_linear_substep, kaczmarz_step, solve
from oracles import block_step

EPS = np.finfo(float).eps


class TestKaczmarzStep:
    def test_one_dimensional_exact_root(self):
        # f(x) = x - 1 solved by a single projection
        assert kaczmarz_step(np.array([0.0]), -1.0, np.array([1.0]))[0] == 1.0

    def test_zero_residual_is_fixed_point(self):
        x = np.array([2.0, 3.0])
        assert np.array_equal(kaczmarz_step(x, 0.0, np.array([1.0, 1.0])), x)

    def test_brown_product_row(self):
        x = np.array([0.5, 0.5])
        problem = BrownProblem(2)
        f = problem.residual(x)[1]
        assert f == pytest.approx(-0.75)
        out = kaczmarz_step(x, f, problem.row_grad(1, x))
        assert np.allclose(out, [1.25, 1.25])

    def test_linearization_annihilated(self):
        rng = seeded_rng(0)
        problem = BrownProblem(5)
        for _ in range(20):
            x = 0.5 + rng.random(5)
            i = int(rng.integers(5))
            f_i = problem.residual(x)[i]
            grad = problem.row_grad(i, x)
            out = kaczmarz_step(x, f_i, grad)
            linearized = f_i + grad @ (out - x)
            assert abs(linearized) <= 1e-10 * max(1.0, abs(f_i))

    def test_underflow_rejected(self):
        # only a zero or non-finite row has no step
        for grad in ([0.0], [np.inf, 0.0], [np.nan, 0.0]):
            with pytest.raises(ZeroGradient):
                kaczmarz_step(np.zeros(len(grad)), 1.0, np.array(grad))

    @pytest.mark.parametrize("entry", [1e-150, 1e-148, 1e-146])
    def test_row_above_the_underflow_cutoff_keeps_the_product_form(self, entry):
        # ||g||^2 = 2e-300 .. 2e-292 is at or above the 1e-300 cutoff, so the
        # step is x - (f / ||g||^2) g (-5e149 .. -5e145 here), where the
        # scaled form along the unit row ends one ulp short
        x, grad = np.zeros(2), np.full(2, entry)
        expected = x - (1.0 / float(grad.dot(grad))) * grad
        assert kaczmarz_step(x, 1.0, grad).tobytes() == expected.tobytes()

    def test_empty_row_has_no_step_unless_its_equation_holds(self):
        x = np.zeros(0)
        assert kaczmarz_step(x, 0.0, np.zeros(0)).shape == (0,)
        with pytest.raises(ZeroGradient):
            kaczmarz_step(x, 1.0, np.zeros(0))

    def test_zero_row_whose_equation_holds_takes_a_zero_step(self):
        x = np.array([2.0, 3.0])
        stepped = kaczmarz_step(x, 0.0, np.zeros(2))
        assert stepped.tobytes() == x.tobytes() and stepped is not x
        # a zero row whose equation fails has no step onto it
        for f_i in (5e-324, -1.0, np.nan):
            with pytest.raises(ZeroGradient):
                kaczmarz_step(x, f_i, np.zeros(2))

    def test_row_whose_step_overflows_is_rejected_without_a_warning(self):
        # f / ||g|| = 1 / 5e-324 overflows: the step would be [-inf, nan]
        x = np.zeros(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ZeroGradient):
                kaczmarz_step(x, 1.0, np.array([5e-324, 0.0]))
        assert x.tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("method", [MethodKind.NK, MethodKind.NURK, MethodKind.NRK])
    def test_row_whose_step_overflows_breaks_down_at_the_start(self, method):
        problem = LinearProblem(np.array([[5e-324, 0.0]]), np.ones(1))
        x0 = np.zeros(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = solve(problem, x0, SolverConfig(method=method, max_iter=5))
        assert trace.status is SolveStatus.NUMERICAL_BREAKDOWN
        assert trace.total_iterations == 0
        assert trace.final_x.tolist() == [0.0, 0.0]
        assert x0.tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("method", [MethodKind.NK, MethodKind.NURK, MethodKind.NRK])
    def test_row_whose_squared_norm_underflows_converges(self, method):
        problem = LinearProblem(np.array([[1e-155, 0.0]]), np.ones(1))
        trace = solve(problem, np.zeros(2), SolverConfig(method=method, max_iter=5))
        assert trace.status is SolveStatus.CONVERGED
        assert trace.total_iterations == 1
        assert trace.records[0].selected == (0,)
        assert np.allclose(trace.final_x, [1e155, 0.0], rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("method", [MethodKind.DR_CNK, MethodKind.RD_CNK, MethodKind.DB_CNK, MethodKind.RB_CNK])
    def test_greedy_methods_break_down_on_a_row_below_the_eligibility_floor(self, method):
        # a known limitation: ||g||^2 = 1e-310 is below the selection's
        # absolute floor, so no row is eligible and the solve stops at k = 0
        problem = LinearProblem(np.array([[1e-155, 0.0]]), np.ones(1))
        trace = solve(problem, np.zeros(2), SolverConfig(method=method, max_iter=5))
        assert trace.status is SolveStatus.NUMERICAL_BREAKDOWN
        assert trace.total_iterations == 0


class TestBlockStep:
    def test_identity_jacobian(self):
        problem = LinearProblem(np.eye(2), np.array([-1.0, -2.0]))
        out = block_step(np.zeros(2), [0, 1], problem)
        assert np.allclose(out, [-1.0, -2.0])

    def test_brown_full_block_solves_n2(self):
        problem = BrownProblem(2)
        out = block_step(np.array([0.5, 0.5]), [0, 1], problem)
        assert np.allclose(out, [0.5, 2.0])
        assert np.allclose(problem.residual(out), 0.0, atol=1e-12)

    def test_singleton_equals_kaczmarz(self):
        problem = BrownProblem(6)
        rng = seeded_rng(3)
        for _ in range(10):
            x = 0.5 + rng.random(6)
            i = int(rng.integers(6))
            blocked = block_step(x, [i], problem)
            single = kaczmarz_step(x, problem.residual(x)[i], problem.row_grad(i, x))
            assert np.allclose(blocked, single, atol=1e-12, rtol=1e-12)

    @pytest.mark.parametrize("selector", ["linear:300,40,2"])
    @pytest.mark.parametrize("method", [MethodKind.DB_CNK, MethodKind.RB_CNK])
    def test_solve_block_steps_match_oracle(self, selector, method):
        problem, x0 = resolve_problem(selector)
        config = SolverConfig(method=method, seed=0, max_iter=300, record_iterates=True)
        trace = solve(problem, x0, config)
        for rec, x, x_next in zip(trace.records, trace.iterates, trace.iterates[1:]):
            assert np.allclose(x_next, block_step(x, rec.selected, problem), rtol=1e-10, atol=1e-12), rec.k

    @pytest.mark.parametrize("case", ["glm-head", "glm-tail-post-head", "linear"])
    def test_one_row_block_is_the_least_squares_step(self, case):
        # a block step onto a one-row set is the row's projection; it is the
        # least-squares step on that row, evaluated at the iterate the solve
        # holds (after the head step, with its memo, for a hybrid's tail
        # row), to within 8 eps of its norm: gelsd rounds differently.  The
        # projection's step is taken from a zero iterate, so that no rounding
        # of x enters the comparison
        rng = seeded_rng(21)
        problem = resolve_problem("linear:40,12,3")[0] if case == "linear" else make_synthetic_glm(200, 10, 8)
        for scale in (1e-3, 0.1, 1.0, 10.0, 1e3):
            x = scale * rng.standard_normal(problem.n)
            memo = IterateMemo()
            if case == "glm-tail-post-head":
                x = hybrid_linear_substep(problem, x, problem.residual(x))
            r = problem.residual(x, memo)
            problem.row_sq_norms_at(x, memo)
            for i in rng.permutation(np.arange(10, problem.m) if case == "glm-tail-post-head" else 10)[:4]:
                projected = -kaczmarz_step(np.zeros(problem.n), r[i], problem.row_grad(i, x, memo))
                solved = min_norm_least_squares(problem.jacobian(x, [i], memo), r[[i]])
                assert np.linalg.norm(projected - solved) <= 8 * EPS * np.linalg.norm(solved), (scale, i)

    def test_one_row_brown_product_block_is_the_least_squares_step(self):
        # db-cnk's first set on brown:20 from 0.5 * ones is the product row;
        # the solve projects onto it, bit for bit, and that projection's step
        # is the least-squares step to within 8 eps of its norm
        problem, x0 = resolve_problem("brown:20")
        trace = solve(problem, x0, SolverConfig(method=MethodKind.DB_CNK, max_iter=1))
        assert (trace.records[0].selected, trace.records[0].set_size) == ((19,), 1)
        f, grad = problem.residual(x0)[19], problem.row_grad(19, x0)
        assert trace.final_x.tobytes() == kaczmarz_step(x0, f, grad).tobytes()
        projected = -kaczmarz_step(np.zeros(problem.n), f, grad)
        solved = min_norm_least_squares(problem.jacobian(x0, [19]), problem.residual(x0)[[19]])
        assert np.linalg.norm(projected - solved) <= 8 * EPS * np.linalg.norm(solved)

    @pytest.mark.parametrize("method", [MethodKind.NRK, MethodKind.DR_CNK, MethodKind.DB_CNK])
    def test_row_whose_coefficient_overflows_converges(self, method):
        # f / ||g||^2 = 1e150 / 1e-280 overflows where the least-squares
        # step, f / ||g|| along the unit row, is 1e290; the projection, a
        # one-row block step too, takes that step and lands on the root
        problem = LinearProblem(np.array([[1e-140, 0.0]]), np.array([-1e150]))
        x0 = np.zeros(2)
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isfinite(min_norm_least_squares(problem.A, problem.residual(x0))).all()
            trace = solve(problem, x0, SolverConfig(method=method, max_iter=5))
        assert trace.status is SolveStatus.CONVERGED
        assert trace.total_iterations == 1
        assert (trace.records[0].selected, trace.records[0].set_size) == ((0,), 1)
        assert trace.final_x.tolist() == [-1e290, 0.0]

    @pytest.mark.parametrize("method", [MethodKind.NRK, MethodKind.DR_CNK, MethodKind.DB_CNK])
    def test_row_whose_squared_norm_overflows_converges(self, method):
        # ||g||^2 = 1e320 overflows, so f / ||g||^2 would be 0 and the row
        # would never move; its step is f / ||g|| = 1e-160 along e_0
        problem = LinearProblem(np.array([[1e160, 0.0], [0.0, 1.0]]), np.ones(2))
        with np.errstate(over="ignore"):
            trace = solve(problem, np.zeros(2), SolverConfig(method=method, max_iter=50))
        assert trace.status is SolveStatus.CONVERGED
        assert trace.total_iterations == 2
        assert sorted(row for rec in trace.records for row in rec.selected)[0] == 0
        assert trace.final_x.tolist() == [1e-160, 1.0]

    def test_overflow_steps_are_the_unit_row_step(self):
        # ||g|| = 5e-141 overflows f / ||g||^2; ||g|| = 5e160 overflows
        # ||g||^2; ||g||^2 = 1e-310 and 2.5e-319 underflow below 1e-300;
        # each way the step is (f / ||g||) g / ||g||
        cases = (
            (1e150, np.array([3e-141, 4e-141]), [-1.2e290, -1.6e290]),
            (-2.0, np.array([3e160, -4e160]), [2.4e-161, -3.2e-161]),
            (-1.0, np.array([1e-155, 0.0]), [1e155, 0.0]),
            (2.0, np.array([3e-160, -4e-160]), [-2.4e159, 3.2e159]),
        )
        for f, grad, expected in cases:
            with np.errstate(over="ignore"):
                out = kaczmarz_step(np.zeros(2), f, grad)
            assert np.allclose(out, expected, rtol=1e-15, atol=0.0), (f, out)

    def test_distance_weighted_pick_breaks_down_on_overflowing_rows(self):
        # a known limitation: rd-cnk draws by f_i^2 / ||g_i||^2, which is
        # inf (coefficient overflow) or 0 (squared-norm overflow) on these rows
        for A, b, iterations in (
            (np.array([[1e-140, 0.0]]), np.array([-1e150]), 0),
            (np.array([[1e160, 0.0], [0.0, 1.0]]), np.ones(2), 1),
        ):
            with np.errstate(over="ignore"):
                trace = solve(LinearProblem(A, b), np.zeros(2), SolverConfig(method=MethodKind.RD_CNK, max_iter=50))
            assert trace.status is SolveStatus.NUMERICAL_BREAKDOWN
            assert trace.total_iterations == iterations

    def test_min_norm_among_corrections(self):
        # rank-deficient block: the step is the smallest correction that fits
        rng = seeded_rng(5)
        A = rng.standard_normal((4, 6))
        A[3] = A[0] + A[1]
        x_star = rng.standard_normal(6)
        problem = LinearProblem(A, A @ x_star)
        x = rng.standard_normal(6)
        out = block_step(x, [0, 1, 2, 3], problem)
        delta = x - out
        r = problem.residual(x)
        for _ in range(50):
            z = delta + 1e-3 * rng.standard_normal(6)
            if np.allclose(A @ z, r[:4], atol=1e-9):
                assert np.linalg.norm(delta) <= np.linalg.norm(z) + 1e-12


class LstsqBlockLinear(LinearProblem):
    """A linear problem whose ``block_step`` hook is numpy's ``lstsq`` step
    on the block's rows, so its steps differ in bits from the package's."""

    def __init__(self, A, b):
        super().__init__(A, b)
        self.hooked = []

    def block_step(self, x, rows, rhs, memo=None):
        self.hooked.append(tuple(rows.tolist()))
        return np.linalg.lstsq(self.A[rows], rhs, rcond=None)[0]


class Quadratic2D(ProblemInstance):
    """``f(x) = (x_0^2 - 1, x_1^2 - 4, x_0 x_1 - 2)``, root (1, 2); it keeps
    the base class's ``block_step``, which declines every block."""

    m = 3
    n = 2
    known_root = np.array([1.0, 2.0])

    def residual(self, x, memo=None):
        return np.array([x[0] ** 2 - 1.0, x[1] ** 2 - 4.0, x[0] * x[1] - 2.0])

    def row_grad(self, i, x, memo=None):
        return self.jacobian(x)[i]

    def jacobian(self, x, rows=None, memo=None):
        J = np.array([[2.0 * x[0], 0.0], [0.0, 2.0 * x[1]], [x[1], x[0]]])
        return J if rows is None else J[np.asarray(rows, dtype=np.intp)]


class TestBlockStepHook:
    """``ProblemInstance.block_step``: ``solve`` offers every block of two
    or more rows to the problem first, and takes least squares only when
    the hook returns None."""

    @pytest.mark.parametrize("method", [MethodKind.DB_CNK, MethodKind.RB_CNK])
    def test_a_hooked_step_is_taken_bit_for_bit(self, monkeypatch, method):
        rng = seeded_rng(12)
        A = rng.standard_normal((40, 12))
        problem = LstsqBlockLinear(A, A @ rng.standard_normal(12))
        monkeypatch.setattr(solvers_mod, "min_norm_least_squares", None)
        trace = solve(problem, np.zeros(12), SolverConfig(method=method, seed=0, max_iter=40, record_iterates=True))
        assert trace.status is not SolveStatus.NUMERICAL_BREAKDOWN
        blocks = 0
        for rec, x, x_next in zip(trace.records, trace.iterates, trace.iterates[1:]):
            if rec.set_size < 2:
                continue
            rows = list(rec.selected)
            step = np.linalg.lstsq(A[rows], problem.residual(x)[rows], rcond=None)[0]
            assert x_next.tobytes() == (x - step).tobytes(), rec.k
            blocks += 1
        assert blocks > 0
        assert problem.hooked == [rec.selected for rec in trace.records[:-1] if rec.set_size >= 2]

    def test_the_default_hook_declines(self):
        problem = Quadratic2D()
        assert ProblemInstance.block_step(problem, np.zeros(2), np.array([0, 1]), np.ones(2)) is None
        assert problem.block_step(np.zeros(2), np.array([0, 1]), np.ones(2)) is None

    @pytest.mark.parametrize("method", [MethodKind.DB_CNK, MethodKind.RB_CNK])
    def test_a_problem_without_the_hook_runs_block_methods(self, method):
        problem = Quadratic2D()
        trace = solve(problem, np.array([2.0, 3.0]), SolverConfig(method=method, seed=0, max_iter=100))
        assert trace.status is SolveStatus.CONVERGED
        assert max(rec.set_size for rec in trace.records) >= 2
        assert np.allclose(trace.final_x, problem.known_root, atol=1e-6)


class RowsOnlyQuadratic(ProblemInstance):
    """:class:`Quadratic2D`'s system stated row by row: it defines only
    ``residual`` and ``row_grad``, so ``jacobian``, ``row_sq_norms_at`` and
    ``block_step`` are the base class's."""

    m, n, known_root = Quadratic2D.m, Quadratic2D.n, Quadratic2D.known_root
    residual = Quadratic2D.residual

    def row_grad(self, i, x, memo=None):
        return (np.array([2.0 * x[0], 0.0]), np.array([0.0, 2.0 * x[1]]), np.array([x[1], x[0]]))[i]


class TestRowsOnlyProblem:
    """A problem that states its rows once, in ``row_grad``, solves by every
    route through the base class's defaults."""

    @pytest.mark.parametrize("method", [MethodKind.DB_CNK, MethodKind.RB_CNK, MethodKind.DR_CNK])
    def test_it_converges_through_the_defaults(self, monkeypatch, method):
        blocks = []

        def least_squares(J, rhs):
            blocks.append(J.shape[0])
            return min_norm_least_squares(J, rhs)

        monkeypatch.setattr(solvers_mod, "min_norm_least_squares", least_squares)
        problem = RowsOnlyQuadratic()
        trace = solve(problem, np.array([2.0, 3.0]), SolverConfig(method=method, seed=0, max_iter=100))
        # converged is ||f||^2 < 1e-6, so about 1e-4 from the root
        assert trace.status is SolveStatus.CONVERGED
        assert np.allclose(trace.final_x, problem.known_root, atol=1e-3)
        # a block method took least squares on the default Jacobian's rows
        assert (max(blocks, default=0) >= 2) == (method is not MethodKind.DR_CNK)

    def test_jacobian_rows_are_the_stacked_row_grads(self):
        problem = RowsOnlyQuadratic()
        for x in (np.zeros(2), np.array([2.0, 3.0]), seeded_rng(21).standard_normal(2)):
            stacked = np.array([problem.row_grad(i, x) for i in range(problem.m)])
            assert problem.jacobian(x).tobytes() == stacked.tobytes()
            for rows in ([2, 0], np.array([1, 1, 2]), np.array([], dtype=np.intp)):
                assert problem.jacobian(x, rows).tobytes() == stacked[rows].tobytes(), rows
            assert problem.row_sq_norms_at(x).tobytes() == np.einsum("ij,ij->i", stacked, stacked).tobytes()


def brown_product_projection_floor(n):
    """Lower bound on ||f||^2 after projecting the Brown start 0.5 * ones onto
    the product row alone: every coordinate moves past 2^(n-1) / n, so the
    product row's squared residual alone exceeds (2^(n-1) / n)^(2n)."""
    return (2.0 ** (n - 1) / n) ** (2 * n)


FIXTURE = LinearProblem(np.eye(2), np.array([3.0, 4.0]), known_root=np.array([3.0, 4.0]))
SINGLE_METHODS = [MethodKind.NK, MethodKind.NURK, MethodKind.NRK, MethodKind.DR_CNK, MethodKind.RD_CNK]
NON_HYBRID = [kind for kind in MethodKind if kind not in HYBRID_KINDS]


class TestSolveBaselines:
    @pytest.mark.parametrize("method", SINGLE_METHODS)
    def test_orthogonal_rows_solved_exactly(self, method):
        trace = solve(FIXTURE, np.zeros(2), SolverConfig(method=method, seed=11))
        assert trace.status is SolveStatus.CONVERGED
        assert np.allclose(trace.final_x, [3.0, 4.0])
        # once each distinct row has been selected, the iterate is exact
        seen = set()
        for rec in trace.records[:-1]:
            seen.update(rec.selected)
            if seen == {0, 1}:
                break
        assert seen == {0, 1}

    def test_nk_cycles_from_first_row(self):
        A = np.eye(3)
        problem = LinearProblem(A, np.array([1.0, 1.0, 1.0]))
        trace = solve(problem, np.zeros(3), SolverConfig(method=MethodKind.NK, seed=0))
        picks = [rec.selected[0] for rec in trace.records[:-1]]
        assert picks == [0, 1, 2]

    def test_nurk_and_nrk_consume_seeded_stream(self):
        for method in (MethodKind.NURK, MethodKind.NRK):
            a = solve(FIXTURE, np.zeros(2), SolverConfig(method=method, seed=21))
            b = solve(FIXTURE, np.zeros(2), SolverConfig(method=method, seed=21))
            assert [r.selected for r in a.records] == [r.selected for r in b.records]


class TestErrorMonotoneOnConsistentLinear:
    @pytest.mark.parametrize("method", SINGLE_METHODS)
    def test_hundred_random_systems(self, method):
        rng = np.random.default_rng(13)
        for trial in range(100):
            m, n = 12, 6
            A = rng.standard_normal((m, n))
            x_star = rng.standard_normal(n)
            problem = LinearProblem(A, A @ x_star, known_root=x_star)
            config = SolverConfig(
                method=method, seed=trial, max_iter=40, tol=1e-28, record_error=True
            )
            trace = solve(problem, np.zeros(n), config)
            errors = [r.error_sq for r in trace.records]
            for before, after in zip(errors, errors[1:]):
                assert after <= before + 1e-9 * max(1.0, before)


class TestGreedySolvers:
    @pytest.mark.slow
    def test_dr_and_db_share_first_set(self):
        # below n = 27 the product row passes the eligibility cutoff at the
        # half-ones start, so both distance-rule methods project onto it
        # alone and diverge on the first step without ever recovering
        n = 20
        problem = BrownProblem(n)
        x0 = 0.5 * np.ones(n)
        dr = solve(problem, x0, SolverConfig(method=MethodKind.DR_CNK, seed=5))
        db = solve(problem, x0, SolverConfig(method=MethodKind.DB_CNK, seed=5))
        assert dr.records[0].set_size == db.records[0].set_size
        assert set(dr.records[0].selected) <= set(db.records[0].selected)
        for trace in (dr, db):
            assert trace.records[0].selected == (n - 1,)
            assert trace.records[1].residual_sq >= brown_product_projection_floor(n)
            assert trace.status is SolveStatus.ITERATION_CAP_REACHED
            assert trace.total_iterations == 200_000

    def test_scaled_singleton_blocks_reduce_to_max_distance_rule(self):
        # when every capped set is a singleton, the block method must follow
        # the deterministic max-distance single-row iteration
        rng = np.random.default_rng(3)
        A = rng.standard_normal((8, 4)) * np.array([1, 2, 4, 8, 1, 3, 5, 7])[:, None]
        x_star = rng.standard_normal(4)
        problem = LinearProblem(A, A @ x_star, known_root=x_star)
        config = SolverConfig(
            method=MethodKind.DB_CNK, threshold=Scaled(1.0), seed=0,
            max_iter=60, tol=1e-20, record_iterates=True,
        )
        trace = solve(problem, np.zeros(4), config)
        assert all(rec.set_size == 1 for rec in trace.records[:-1])
        x = np.zeros(4)
        norms = row_sq_norms(A)
        for rec in trace.records[:-1]:
            r = problem.residual(x)
            i = int(np.argmax(r * r / norms))
            assert rec.selected == (i,)
            x = kaczmarz_step(x, r[i], A[i])
        assert np.allclose(x, trace.final_x, atol=1e-10)

    def test_block_iteration_records_whole_set(self):
        problem = BrownProblem(12)
        trace = solve(problem, 0.5 * np.ones(12), SolverConfig(method=MethodKind.RB_CNK, seed=1))
        first = trace.records[0]
        assert first.set_size == len(first.selected) >= 1


def brown_first_step(n, method, threshold=Convex(0.5)):
    config = SolverConfig(method=method, threshold=threshold, max_iter=1, seed=5)
    return solve(BrownProblem(n), 0.5 * np.ones(n), config)


BROWN_SWEEP = list(range(2, 41)) + [50]
DISTANCE_METHODS = [MethodKind.DR_CNK, MethodKind.DB_CNK]


class TestBrownFirstStepSweep:
    """What the eligibility cutoff decides on the first distance-rule step
    from the Brown start ``0.5 * ones`` (ROADMAP item 3).
    These pin the current outcomes; they are not claims about the method."""

    @pytest.mark.parametrize("n", BROWN_SWEEP)
    def test_product_row_eligible_iff_n_at_most_26(self, n):
        problem = BrownProblem(n)
        x0 = 0.5 * np.ones(n)
        g = RowGeometry.from_state(problem.residual(x0), problem.row_sq_norms_at(x0))
        assert g.active[:-1].all()
        assert bool(g.active[-1]) == (n <= 26)

    @pytest.mark.parametrize("method", DISTANCE_METHODS)
    @pytest.mark.parametrize("n", range(2, 27))
    def test_eligible_product_row_is_the_whole_first_set(self, n, method):
        trace = brown_first_step(n, method)
        first, after = trace.records
        assert first.selected == (n - 1,) and first.set_size == 1
        if n == 2:
            # the one size where the projection helps (2.81 -> 0.88)
            assert first.residual_sq == 2.8125
            assert after.residual_sq == pytest.approx(0.87890625, rel=1e-12)
            assert trace.status is SolveStatus.ITERATION_CAP_REACHED
        elif n < 26:
            assert after.residual_sq >= brown_product_projection_floor(n)
            assert trace.status is SolveStatus.ITERATION_CAP_REACHED
        else:
            assert after.residual_sq == np.inf
            assert trace.status is SolveStatus.NUMERICAL_BREAKDOWN

    @pytest.mark.parametrize("method", DISTANCE_METHODS)
    @pytest.mark.parametrize("n", [n for n in BROWN_SWEEP if n >= 27])
    def test_hidden_product_row_leaves_the_tied_affine_rows(self, n, method):
        trace = brown_first_step(n, method)
        first, after = trace.records
        expected = tuple(range(n - 1))
        assert first.set_size == len(expected)
        if method is MethodKind.DB_CNK:
            assert first.selected == expected
            # one block step onto every affine row lands near the root
            assert after.residual_sq < 1e-6
            assert trace.status is SolveStatus.CONVERGED
        else:
            assert set(first.selected) <= set(expected)

    @pytest.mark.parametrize("n", [30, 34])
    @pytest.mark.parametrize("threshold", [Convex(0.5), Scaled(1.0), Scaled(0.5)])
    def test_exact_tie_kept_under_every_threshold(self, n, threshold):
        # eps * ||f||^2 can round above the tied maximum; the clamp keeps
        # every tied row whatever the threshold mode
        problem = BrownProblem(n)
        x0 = 0.5 * np.ones(n)
        g = RowGeometry.from_state(problem.residual(x0), problem.row_sq_norms_at(x0))
        assert len(set(g.ratios[:-1].tolist())) == 1  # the affine rows tie exactly
        trace = brown_first_step(n, MethodKind.DB_CNK, threshold)
        first, after = trace.records
        assert first.selected == tuple(range(n - 1))
        assert after.residual_sq < 1e-6


class TestSolveStatuses:
    def test_cap_reached(self):
        problem = BrownProblem(30)
        config = SolverConfig(method=MethodKind.NRK, seed=0, max_iter=5)
        trace = solve(problem, 0.5 * np.ones(30), config)
        assert trace.status is SolveStatus.ITERATION_CAP_REACHED
        assert trace.total_iterations == 5
        assert trace.records[-1].residual_sq >= config.tol

    def test_zero_gradient_row_breaks_down(self):
        # a zero row with nonzero right-hand side cannot be projected onto
        A = np.array([[1.0, 0.0], [0.0, 0.0]])
        problem = LinearProblem(A, np.array([1.0, 1.0]))
        trace = solve(problem, np.zeros(2), SolverConfig(method=MethodKind.NK, seed=0, max_iter=10))
        assert trace.status is SolveStatus.NUMERICAL_BREAKDOWN

    @pytest.mark.parametrize("method", [MethodKind.NK, MethodKind.NURK], ids=lambda kind: kind.value)
    def test_zero_row_whose_equation_holds_is_passed_over(self, method):
        # the zero row's equation 0 = 0 holds at every x: a step onto it is
        # no step, so the cyclic and uniform draws pass over it
        problem = LinearProblem(np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]), np.array([1.0, 0.0, 1.0]))
        trace = solve(problem, np.zeros(2), SolverConfig(method=method, seed=0, max_iter=50))
        assert trace.status is SolveStatus.CONVERGED
        assert (1,) in [rec.selected for rec in trace.records]
        assert trace.final_x.tolist() == [1.0, 1.0]

    @pytest.mark.parametrize("method", [MethodKind.NK, MethodKind.NURK], ids=lambda kind: kind.value)
    def test_zero_row_whose_equation_fails_breaks_down(self, method):
        problem = LinearProblem(np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]), np.array([1.0, 1.0, 1.0]))
        trace = solve(problem, np.zeros(2), SolverConfig(method=method, seed=0, max_iter=50))
        assert trace.status is SolveStatus.NUMERICAL_BREAKDOWN
        assert trace.total_iterations == 1
        assert trace.records[-1].selected == ()
        # the first row drawn, 0 or 2, was solved, and x stays there
        assert sorted(trace.final_x.tolist()) == [0.0, 1.0]

    @pytest.mark.parametrize("method", NON_HYBRID, ids=lambda kind: kind.value)
    def test_a_system_with_no_unknowns_breaks_down_at_the_start(self, method):
        # every row is empty and no equation holds, so no row has a step
        problem = LinearProblem(np.zeros((3, 0)), np.ones(3))
        trace = solve(problem, np.zeros(0), SolverConfig(method=method, seed=0))
        assert trace.status is SolveStatus.NUMERICAL_BREAKDOWN
        assert trace.total_iterations == 0
        assert trace.records[0].residual_sq == 3.0
        assert trace.final_x.shape == (0,)

    @pytest.mark.parametrize("method", SINGLE_METHODS, ids=lambda kind: kind.value)
    def test_zero_gradient_leaves_the_iterate_and_records_no_row(self, method):
        # the third row gradient comes back zero: the step raises, x stays
        # where it was selected at, and the last record carries no row
        rng = seeded_rng(17)
        problem = LinearProblem(rng.standard_normal((5, 3)), rng.standard_normal(5))
        calls = []

        def vanishing(i, x, memo=None):
            calls.append(i)
            return np.zeros(3) if len(calls) == 3 else problem.A[i]

        problem.row_grad = vanishing
        trace = solve(problem, np.zeros(3), SolverConfig(method=method, seed=0, record_iterates=True))
        assert trace.status is SolveStatus.NUMERICAL_BREAKDOWN
        assert trace.total_iterations == 2
        assert np.array_equal(trace.final_x, trace.iterates[-1])
        assert trace.records[-1].selected == () and trace.records[-1].set_size == 0
        assert [len(rec.selected) for rec in trace.records[:-1]] == [1, 1]

    def test_x0_length_validated(self):
        with pytest.raises(ValueError):
            solve(FIXTURE, np.zeros(3), SolverConfig(method=MethodKind.NK))

    def test_every_breakdown_error_is_a_numerical_breakdown(self):
        for error in (DegenerateState, EmptySet, AllWeightsZero, ZeroGradient, FactorizationFailure):
            assert issubclass(error, NumericalBreakdown), error

    @pytest.mark.parametrize("method", [MethodKind.DR_CNK, MethodKind.DB_CNK])
    def test_a_breakdown_error_ends_the_solve_with_x_kept(self, monkeypatch, method):
        def failing(x, memo=None):
            raise FactorizationFailure("no norms")

        monkeypatch.setattr(FIXTURE, "row_sq_norms_at", failing)
        x0 = np.full(FIXTURE.n, 0.5)
        trace = solve(FIXTURE, x0, SolverConfig(method=method))
        assert trace.status is SolveStatus.NUMERICAL_BREAKDOWN
        assert trace.total_iterations == 0
        assert trace.final_x.tobytes() == x0.tobytes()

    def test_other_errors_propagate_out_of_solve(self, monkeypatch):
        def failing(x, memo=None):
            raise ValueError("not a breakdown")

        monkeypatch.setattr(FIXTURE, "row_sq_norms_at", failing)
        with pytest.raises(ValueError, match="not a breakdown"):
            solve(FIXTURE, np.full(FIXTURE.n, 0.5), SolverConfig(method=MethodKind.DR_CNK))

    def test_residual_overflow_recorded_as_breakdown(self):
        # at this size the product row is genuinely active at the half-ones
        # start and the distance rule's projection overflows the squared
        # residual; the solve must report breakdown instead of raising
        problem = BrownProblem(26)
        trace = solve(problem, 0.5 * np.ones(26), SolverConfig(method=MethodKind.DR_CNK, seed=1))
        assert trace.status is SolveStatus.NUMERICAL_BREAKDOWN
        assert not np.isfinite(trace.records[-1].residual_sq)



class TestFloatRangeLimitations:
    """Known limitations at the top of the float range, pinned as they
    stand (README, numerical notes)."""

    A = np.array([[1e160, 0.0], [0.0, 1.0]])

    @pytest.mark.parametrize(
        "method",
        [MethodKind.NK, MethodKind.NURK, MethodKind.NRK, MethodKind.DR_CNK, MethodKind.DB_CNK, MethodKind.RB_CNK],
        ids=lambda kind: kind.value,
    )
    def test_overflowing_row_norm_converges_quietly(self, method):
        # ||g||^2 = 1e320 overflows in kaczmarz_step's dot before the scaled
        # step takes over, inside the solve's quiet scope
        problem = LinearProblem(self.A, np.ones(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = solve(problem, np.zeros(2), SolverConfig(method=method, seed=0, max_iter=300))
        assert trace.status is SolveStatus.CONVERGED

    def test_overflowing_row_norm_starves_the_distance_weighted_draw(self):
        # the row's distance weight f^2 / inf is 0; once it is the only row
        # with a residual every weight is 0
        problem = LinearProblem(self.A, np.ones(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = solve(problem, np.zeros(2), SolverConfig(method=MethodKind.RD_CNK, seed=0, max_iter=300))
        assert trace.status is SolveStatus.NUMERICAL_BREAKDOWN
        assert trace.total_iterations == 1
        assert trace.records[0].selected == (1,)

    @pytest.mark.parametrize("method", NON_HYBRID, ids=lambda kind: kind.value)
    def test_overflowing_residual_norm_breaks_down_at_the_start(self, method):
        # f(0) = [-1e160, -1] is finite, but ||f||^2 = 1e320 is not, and the
        # stopping rule reads that as a breakdown
        problem = LinearProblem(self.A, np.array([1e160, 1.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = solve(problem, np.zeros(2), SolverConfig(method=method, seed=0, max_iter=300))
        assert trace.status is SolveStatus.NUMERICAL_BREAKDOWN
        assert trace.total_iterations == 0
        assert trace.records[0].residual_sq == np.inf
        assert trace.final_x.tolist() == [0.0, 0.0]


# a caller's error state that differs from numpy's default in every field
CALLER_ERR = {"divide": "raise", "over": "raise", "under": "warn", "invalid": "raise"}


class TestCallerErrorState:
    """``solve`` ignores overflow and invalid operations for its whole loop,
    under one ``np.errstate`` per solve; the caller's error state reads the
    same after the solve, however it ends."""

    def test_a_converged_solve_leaves_the_callers_state(self):
        problem, x0 = resolve_problem("brown:50")
        with np.errstate(**CALLER_ERR):
            trace = solve(problem, x0, SolverConfig(method=MethodKind.DR_CNK, seed=0))
            assert np.geterr() == CALLER_ERR
        assert trace.status is SolveStatus.CONVERGED

    def test_a_residual_overflow_breakdown_leaves_the_callers_state(self):
        # the first distance-rule step overflows the residual (see
        # TestSolveStatuses); under the caller's over="raise" it is still
        # read as a breakdown, not raised
        problem = BrownProblem(26)
        with np.errstate(**CALLER_ERR):
            trace = solve(problem, 0.5 * np.ones(26), SolverConfig(method=MethodKind.DR_CNK, seed=1))
            assert np.geterr() == CALLER_ERR
        assert trace.status is SolveStatus.NUMERICAL_BREAKDOWN
        assert not np.isfinite(trace.records[-1].residual_sq)

    def test_a_raising_residual_leaves_the_callers_state(self):
        problem, x0 = resolve_problem("brown:50")
        evaluate = problem.residual
        calls = []

        def failing(x, memo=None):
            calls.append(1)
            if len(calls) == 3:
                raise ValueError("residual failed")
            return evaluate(x, memo)

        problem.residual = failing
        with np.errstate(**CALLER_ERR):
            with pytest.raises(ValueError, match="residual failed"):
                solve(problem, x0, SolverConfig(method=MethodKind.NRK, seed=0))
            assert np.geterr() == CALLER_ERR
        assert len(calls) == 3

    @pytest.mark.parametrize("method", [MethodKind.NRK, MethodKind.RD_CNK, MethodKind.DB_CNK], ids=lambda kind: kind.value)
    def test_the_residual_runs_quiet_on_overflow_and_invalid_only(self, method):
        problem, x0 = resolve_problem("brown:50")
        evaluate = problem.residual
        seen = []

        def recording(x, memo=None):
            seen.append(np.geterr())
            return evaluate(x, memo)

        problem.residual = recording
        with np.errstate(**CALLER_ERR):
            trace = solve(problem, x0, SolverConfig(method=method, seed=0, max_iter=20))
        assert len(seen) == trace.total_iterations + 1
        assert all(state == {**CALLER_ERR, "over": "ignore", "invalid": "ignore", "under": "ignore"} for state in seen)

    @pytest.mark.parametrize("method", [MethodKind.NRK, MethodKind.DR_CNK, MethodKind.DB_CNK], ids=lambda kind: kind.value)
    def test_the_problem_hooks_run_quiet_too(self, method):
        problem, x0 = resolve_problem("brown:50")
        seen = {}

        def recording(name):
            evaluate = getattr(problem, name)

            def hook(*args):
                seen.setdefault(name, []).append(np.geterr())
                return evaluate(*args)

            return hook

        for name in ("residual", "row_grad", "row_sq_norms_at", "jacobian"):
            setattr(problem, name, recording(name))
        with np.errstate(**CALLER_ERR):
            solve(problem, x0, SolverConfig(method=method, seed=0, max_iter=20))
        assert {"residual", "row_grad" if method is MethodKind.NRK else "row_sq_norms_at"} <= seen.keys()
        quiet = {**CALLER_ERR, "over": "ignore", "invalid": "ignore", "under": "ignore"}
        assert all(state == quiet for states in seen.values() for state in states)

    def test_an_underflowing_glm_margin_does_not_raise_out_of_solve(self):
        # w = 1e3 puts margins far past 745, where the margin's exp(-|z|)
        # underflows to 0; under the caller's under="raise" the solve still
        # ends in a trace
        glm = make_synthetic_glm(60, 6, 3)
        x0 = np.zeros(glm.n)
        x0[glm.p:] = 1e3
        with np.errstate(all="raise"):
            caller = np.geterr()
            trace = solve(glm, x0, SolverConfig(method=MethodKind.DB_CNK, seed=0, max_iter=20))
            assert np.geterr() == caller
        assert (trace.status, trace.total_iterations) == (SolveStatus.ITERATION_CAP_REACHED, 20)

    @pytest.mark.parametrize(
        "method", [MethodKind.NK, MethodKind.NURK, MethodKind.NRK, MethodKind.DR_CNK], ids=lambda kind: kind.value
    )
    def test_an_overflowing_row_norm_converges_under_a_raising_state(self, method):
        # ||g||^2 = 1e320 overflows before kaczmarz_step's scaled form takes
        # over; the caller's over="raise" does not reach the step
        problem = LinearProblem(TestFloatRangeLimitations.A, np.ones(2))
        with np.errstate(over="raise", invalid="raise"):
            caller = np.geterr()
            trace = solve(problem, np.zeros(2), SolverConfig(method=method, seed=0, max_iter=300))
            assert np.geterr() == caller
        assert trace.status is SolveStatus.CONVERGED
        # the solve stops once each row has been projected onto
        rows = [rec.selected[0] for rec in trace.records[:-1]]
        assert sorted(set(rows)) == [0, 1] and rows[-1] not in rows[:-1]
        if method is not MethodKind.NURK:
            assert trace.total_iterations == 2
        assert np.allclose(trace.final_x, [1e-160, 1.0], rtol=1e-15, atol=0.0)

    def test_a_solve_inside_a_residual_gets_its_own_context(self):
        # the nested solve enters and leaves its own quiet scope inside the
        # outer one
        problem, x0 = resolve_problem("brown:8")
        inner, inner_x0 = resolve_problem("brown:4")
        evaluate = problem.residual
        nested = []

        def solving(x, memo=None):
            if not nested:
                nested.append(solve(inner, inner_x0, SolverConfig(method=MethodKind.DR_CNK, seed=0)))
            return evaluate(x, memo)

        problem.residual = solving
        trace = solve(problem, x0, SolverConfig(method=MethodKind.DR_CNK, seed=0, max_iter=5))
        assert trace.total_iterations > 0
        assert nested[0].total_iterations > 0
