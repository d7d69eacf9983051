import numpy as np
import pytest

from capped_kaczmarz.bench import resolve_problem
from capped_kaczmarz.core import Convex, MethodKind, Scaled, SolveStatus, SolverConfig
from capped_kaczmarz.errors import ZeroGradient
from capped_kaczmarz.numerics import row_sq_norms, seeded_rng
from capped_kaczmarz.problems import BrownProblem, LinearProblem
from capped_kaczmarz.selection import (
    RowGeometry,
    build_distance_set,
    build_residual_set,
    compute_delta,
    compute_epsilon,
)
from capped_kaczmarz.solvers import kaczmarz_step, solve
from oracles import block_step


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
        with pytest.raises(ZeroGradient):
            kaczmarz_step(np.array([1.0]), 1.0, np.array([0.0]))


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

    @pytest.mark.parametrize("selector", ["glm:synthetic:60,6,3", "linear:300,40,2"])
    @pytest.mark.parametrize("method", [MethodKind.DB_CNK, MethodKind.RB_CNK])
    def test_solve_block_steps_match_oracle(self, selector, method):
        problem, x0 = resolve_problem(selector)
        config = SolverConfig(method=method, seed=0, max_iter=300, record_iterates=True)
        trace = solve(problem, x0, config)
        for rec, x, x_next in zip(trace.records, trace.iterates, trace.iterates[1:]):
            assert np.allclose(x_next, block_step(x, rec.selected, problem), rtol=1e-10, atol=1e-12), rec.k

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


def brown_product_projection_floor(n):
    """Lower bound on ||f||^2 after projecting the Brown start 0.5 * ones onto
    the product row alone: every coordinate moves past 2^(n-1) / n, so the
    product row's squared residual alone exceeds (2^(n-1) / n)^(2n)."""
    return (2.0 ** (n - 1) / n) ** (2 * n)


FIXTURE = LinearProblem(np.eye(2), np.array([3.0, 4.0]), known_root=np.array([3.0, 4.0]))
SINGLE_METHODS = [MethodKind.NK, MethodKind.NURK, MethodKind.NRK, MethodKind.DR_CNK, MethodKind.RD_CNK]


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

    def test_residual_overflow_recorded_as_breakdown(self):
        # at this size the product row is genuinely active at the half-ones
        # start and the distance rule's projection overflows the squared
        # residual; the solve must report breakdown instead of raising
        problem = BrownProblem(26)
        trace = solve(problem, 0.5 * np.ones(26), SolverConfig(method=MethodKind.DR_CNK, seed=1))
        assert trace.status is SolveStatus.NUMERICAL_BREAKDOWN
        assert not np.isfinite(trace.records[-1].residual_sq)


class TestRecordedIterates:
    def test_iterates_align_with_records(self):
        problem = BrownProblem(8)
        config = SolverConfig(method=MethodKind.RD_CNK, seed=2, record_iterates=True)
        trace = solve(problem, 0.5 * np.ones(8), config)
        assert len(trace.iterates) == len(trace.records)
        x5 = trace.iterates[5]
        r = problem.residual(x5)
        assert trace.records[5].residual_sq == pytest.approx(float(r @ r), rel=1e-15)
        # recomputing the residual set at every recorded iterate reproduces
        # the logged set size, and the drawn row is a member of that set
        for rec, x in zip(trace.records[:-1], trace.iterates[:-1]):
            r = problem.residual(x)
            g = RowGeometry.from_state(r, row_sq_norms(problem.jacobian(x)))
            sel = build_residual_set(g, compute_delta(g, Convex(0.5)))
            assert len(sel) == rec.set_size, rec.k
            (drawn,) = rec.selected
            assert drawn in sel.indices, rec.k

    def test_distance_set_replay_matches(self):
        problem = BrownProblem(8)
        config = SolverConfig(method=MethodKind.DB_CNK, seed=2, record_iterates=True)
        trace = solve(problem, 0.5 * np.ones(8), config)
        for rec, x in zip(trace.records[:-1], trace.iterates[:-1]):
            r = problem.residual(x)
            g = RowGeometry.from_state(r, row_sq_norms(problem.jacobian(x)))
            sel = build_distance_set(g, compute_epsilon(g, Convex(0.5)))
            assert tuple(int(i) for i in sel.indices) == rec.selected
