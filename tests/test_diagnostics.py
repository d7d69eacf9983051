import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from capped_kaczmarz.core import (
    BLOCK_KINDS,
    HYBRID_KINDS,
    Convex,
    MethodKind,
    ProblemInstance,
    Scaled,
    SolveStatus,
    SolverConfig,
)
from capped_kaczmarz.diagnostics import (
    REPORTED_KINDS,
    EtaEstimate,
    build_factor_report,
    check_step_inequalities,
    estimate_eta,
    factor_block,
    factor_dr_cnk,
    factor_nrk,
    factor_rd_cnk,
    pseudoinverse_extremes,
)
from capped_kaczmarz.errors import HypothesisViolated, InvalidEta
from capped_kaczmarz.numerics import seeded_rng
from capped_kaczmarz.problems import BrownProblem, LinearProblem
from capped_kaczmarz.selection import ACTIVE_ABS_FLOOR, RowGeometry
from capped_kaczmarz.solvers import greedy_selection, solve


class Quadratic1D(ProblemInstance):
    """f(x) = x^2 in one unknown; linearization defect has the closed form
    |x1 - x2| / |x1 + x2|."""

    m = 1
    n = 1
    known_root = None

    def residual(self, x, memo=None):
        return np.array([x[0] ** 2])

    def row_grad(self, i, x, memo=None):
        return np.array([2.0 * x[0]])

    def jacobian(self, x, rows=None, memo=None):
        J = np.array([[2.0 * x[0]]])
        return J if rows is None else J[np.asarray(rows, dtype=np.intp)]


@pytest.mark.parametrize("method", sorted(set(MethodKind) - HYBRID_KINDS))
def test_user_subclass_solves_under_the_memo_contract(method):
    # solve hands every evaluation its memo; a subclass that accepts the
    # trailing argument and ignores it still converges (x halves per step)
    trace = solve(Quadratic1D(), np.array([1.0]), SolverConfig(method=method, max_iter=100))
    assert trace.status is SolveStatus.CONVERGED


class SharedExp(ProblemInstance):
    """f(x) = exp(A x) - exp(A x*): every evaluation reads e = exp(A x),
    from the memo when it is handed one.  ``computed`` counts how often e
    is computed.  ``row_sq_norms_at`` is the base class's."""

    m = 6
    n = 3

    def __init__(self):
        rng = seeded_rng(11)
        self.A = 0.5 * rng.standard_normal((self.m, self.n))
        self.known_root = 0.3 * rng.standard_normal(self.n)
        self.target = np.exp(self.A @ self.known_root)
        self.computed = 0

    def _e(self, x, memo):
        values = {} if memo is None else memo.at(x)
        if "e" not in values:
            self.computed += 1
            values["e"] = np.exp(self.A @ x)
        return values["e"]

    def residual(self, x, memo=None):
        return self._e(x, memo) - self.target

    def row_grad(self, i, x, memo=None):
        return self._e(x, memo)[i] * self.A[i]

    def jacobian(self, x, rows=None, memo=None):
        J = self._e(x, memo)[:, None] * self.A
        return J if rows is None else J[np.asarray(rows, dtype=np.intp)]


@pytest.mark.parametrize("method", sorted(REPORTED_KINDS))
def test_default_row_norms_share_the_iterates_memo(method):
    # the residual, the default row norms and the step at one iterate all
    # read the one e that the memo holds for it
    problem = SharedExp()
    trace = solve(problem, np.zeros(problem.n), SolverConfig(method=method, max_iter=40))
    assert trace.total_iterations > 1
    assert problem.computed == len(trace.records)


class TestEstimateEta:
    def test_refuses_a_problem_with_no_rows(self):
        problem = LinearProblem(np.zeros((0, 3)), np.zeros(0))
        with pytest.raises(ValueError, match="no rows"):
            estimate_eta(problem, np.zeros(3), radius=1.0, pairs=10, rng=seeded_rng(0))

    def test_refuses_an_empty_center(self):
        problem = LinearProblem(np.zeros((3, 0)), np.ones(3))
        with pytest.raises(ValueError, match="empty center"):
            estimate_eta(problem, np.zeros(0), radius=1.0, pairs=10, rng=seeded_rng(0))

    def test_linear_problem_exactly_zero(self):
        rng = seeded_rng(0)
        A = rng.standard_normal((8, 5))
        problem = LinearProblem(A, np.zeros(8))
        est = estimate_eta(problem, np.zeros(5), radius=1.0, pairs=2000, rng=seeded_rng(1))
        assert est.eta == 0.0
        assert np.all(est.eta_per_row == 0.0)

    def test_brown_near_root_below_half(self):
        problem = BrownProblem(3)
        est = estimate_eta(problem, np.ones(3), radius=0.05, pairs=10_000, rng=seeded_rng(2))
        assert 0.0 < est.eta < 0.5

    def test_quadratic_far_field_grows_past_half(self):
        problem = Quadratic1D()
        near = estimate_eta(problem, np.array([10.0]), radius=1.0, pairs=5000, rng=seeded_rng(3))
        far = estimate_eta(problem, np.array([10.0]), radius=30.0, pairs=5000, rng=seeded_rng(3))
        assert near.eta < 0.5 < far.eta

    def test_quadratic_matches_closed_form_bound(self):
        # within radius r of center c, the defect ratio is |x1-x2|/|x1+x2|,
        # bounded by 2r / (2c - 2r)
        problem = Quadratic1D()
        c, r = 10.0, 1.0
        est = estimate_eta(problem, np.array([c]), radius=r, pairs=5000, rng=seeded_rng(4))
        assert est.eta <= 2 * r / (2 * c - 2 * r) + 1e-12

    def test_resolution_cut_bounds_the_ratio_through_a_root(self):
        # a pair counts only if |x1^2 - x2^2| > c |2 x1| |x1 - x2|, that is
        # |x1 + x2| > 2c |x1|, so its ratio |x1 - x2| / |x1 + x2| stays below
        # (1 + c) / c: 3 at the cut c = 1/2, which a ball around the root
        # 0 approaches
        est = estimate_eta(Quadratic1D(), np.array([0.0]), radius=1.0, pairs=20_000, rng=seeded_rng(7))
        assert 2.99 < est.eta <= 3.0 + 1e-12

    def test_monotone_in_sample_count(self):
        problem = BrownProblem(4)
        small = estimate_eta(problem, np.ones(4), radius=0.3, pairs=200, rng=seeded_rng(5))
        large = estimate_eta(problem, np.ones(4), radius=0.3, pairs=2000, rng=seeded_rng(5))
        assert large.eta >= small.eta
        assert np.all(large.eta_per_row >= small.eta_per_row)

    def test_flagged_rows_for_constant_row(self):
        # a row with constant residual never produces a valid denominator
        class WithConstantRow(ProblemInstance):
            m = 2
            n = 1
            known_root = None

            def residual(self, x, memo=None):
                return np.array([x[0], 3.0])

            def row_grad(self, i, x, memo=None):
                return np.array([1.0 if i == 0 else 0.0])

            def jacobian(self, x, rows=None, memo=None):
                J = np.array([[1.0], [0.0]])
                return J if rows is None else J[np.asarray(rows, dtype=np.intp)]

        est = estimate_eta(WithConstantRow(), np.zeros(1), radius=1.0, pairs=100, rng=seeded_rng(6))
        assert est.flagged_rows == (1,)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            estimate_eta(BrownProblem(3), np.ones(3), radius=0.0, pairs=10, rng=seeded_rng(0))
        with pytest.raises(ValueError):
            estimate_eta(BrownProblem(3), np.ones(3), radius=1.0, pairs=0, rng=seeded_rng(0))


class TestFactorExpressions:
    def test_perfect_contraction(self):
        assert factor_dr_cnk(1.0, 1.0, 0.0) == 0.0

    def test_arithmetic_example(self):
        rho = factor_dr_cnk(2.0, np.sqrt(0.1), 0.25)
        assert rho == pytest.approx(1.0 - (0.5 / 1.0625) * 0.2, abs=1e-12)
        assert rho == pytest.approx(0.9058823529411765, abs=1e-9)

    def test_eta_validation(self):
        for fn in (lambda e: factor_dr_cnk(1.0, 1.0, e),
                   lambda e: factor_rd_cnk(1.0, 1.0, 1.0, e),
                   lambda e: factor_nrk(1.0, 1.0, 3, e)):
            with pytest.raises(InvalidEta):
                fn(0.5)
            with pytest.raises(InvalidEta):
                fn(-0.1)

    def test_distance_ordering_on_random_states(self):
        # whenever eps * fro >= 1, the capped factor beats the baseline factor
        rng = seeded_rng(7)
        for _ in range(1000):
            m = int(rng.integers(2, 40))
            fro = float(rng.random() * 100 + 1e-3)
            eps = (1.0 + rng.random() * 10) / fro  # eps * fro >= 1
            h2 = float(rng.random() * 2)
            eta = float(rng.random() * 0.499)
            assert factor_dr_cnk(eps, h2, eta) < factor_nrk(h2, fro, m, eta) + 1e-15

    def test_residual_ordering_on_random_states(self):
        # delta >= 1/m plus max_grad <= fro imply the capped factor is smaller
        rng = seeded_rng(8)
        for _ in range(1000):
            m = int(rng.integers(2, 40))
            delta = 1.0 / m + float(rng.random())
            fro = float(rng.random() * 100 + 1.0)
            max_grad = fro * float(rng.random() * 0.99 + 0.005)
            h2 = float(rng.random() * 2)
            eta = float(rng.random() * 0.499)
            assert factor_rd_cnk(delta, h2, max_grad, eta) < factor_nrk(h2, fro, m, eta) + 1e-15


class TestFactorBlock:
    def test_identity_block(self):
        # identity Jacobian block: pseudoinverse margin is 1 at eta = 0
        sigma, h2 = pseudoinverse_extremes(np.eye(3))
        assert (sigma, h2) == (1.0, 1.0)
        margin = h2 * h2 - 2 * 0.0 * sigma * sigma
        assert margin == 1.0
        assert factor_block(margin, 3, 0.2, 1.0, 1.0, 0.0) == pytest.approx(1.0 - 3 * 0.2)

    def test_single_row_pseudoinverse(self):
        sigma, h2 = pseudoinverse_extremes(np.array([[3.0, 4.0]]))
        assert sigma == pytest.approx(0.2)
        assert h2 == pytest.approx(0.2)

    def test_nonpositive_margin_rejected(self):
        with pytest.raises(HypothesisViolated):
            factor_block(0.0, 2, 0.5, 1.0, 1.0, 0.1)
        with pytest.raises(HypothesisViolated):
            factor_block(-1.0, 2, 0.5, 1.0, 1.0, 0.1)

    def test_factor_below_one_whenever_margin_positive(self):
        rng = seeded_rng(9)
        for _ in range(200):
            margin = float(rng.random() * 2 + 1e-6)
            size = int(rng.integers(1, 10))
            eps = float(rng.random() + 1e-6)
            h2 = float(rng.random() + 1e-6)
            ming = float(rng.random() + 1e-6)
            eta = float(rng.random() * 0.499)
            assert factor_block(margin, size, eps, h2, ming, eta) < 1.0


class TestStepInequalityChecks:
    def linear_fixture(self):
        rng = seeded_rng(10)
        A = rng.standard_normal((6, 4))
        x_star = rng.standard_normal(4)
        return LinearProblem(A, A @ x_star, known_root=x_star)

    def pairs(self, n, count, rng):
        return [(rng.standard_normal(n), rng.standard_normal(n)) for _ in range(count)]

    def test_linear_problem_zero_violations(self):
        problem = self.linear_fixture()
        eta = estimate_eta(problem, np.zeros(4), radius=2.0, pairs=500, rng=seeded_rng(11))
        assert eta.eta == 0.0
        pairs = self.pairs(4, 200, seeded_rng(12))
        taus = [np.arange(6), np.array([0, 2, 4]), np.array([1])]
        report = check_step_inequalities(problem, pairs, taus, eta)
        assert report.total_violations == 0
        assert report.single_step_checked == 200 * 6
        assert report.difference_bound_checked == 200 * 3

    def test_brown_with_sufficient_eta_zero_violations(self):
        # the checks flag nothing once eta genuinely upper-bounds the defect
        # ratios realized on the sampled pairs
        problem = BrownProblem(5)
        rng = seeded_rng(14)
        pairs = []
        for _ in range(100):
            a = np.ones(5) + 0.05 * rng.standard_normal(5) / np.sqrt(5)
            b = np.ones(5) + 0.05 * rng.standard_normal(5) / np.sqrt(5)
            pairs.append((a, b))
        root = np.ones(5)
        per_row = np.zeros(5)
        vec_sq = 0.0
        for x1, x2 in pairs:
            f1 = problem.residual(x1)
            J1 = problem.jacobian(x1)
            # row-wise requirement at the (state, root) pairs the step bound uses
            num = np.abs(f1 - J1 @ (x1 - root))
            den = np.abs(f1)
            ok = den > 1e-12
            per_row = np.maximum(per_row, np.where(ok, num / np.where(ok, den, 1.0), 0.0))
            # aggregate requirement of the difference bound
            diff_sq = float(np.sum((f1 - problem.residual(x2)) ** 2))
            lin_sq = float(np.sum((J1 @ (x1 - x2)) ** 2))
            if diff_sq > 0:
                vec_sq = max(vec_sq, lin_sq / diff_sq - 1.0)
        eta = EtaEstimate(
            eta_per_row=per_row * 1.0000001,
            eta=float(np.sqrt(max(vec_sq, 0.0))) * 1.0000001,
            sample_count=len(pairs),
            center=root,
            radius=0.05,
            flagged_rows=(),
        )
        report = check_step_inequalities(problem, pairs, [np.arange(5)], eta)
        assert report.difference_bound_violations == 0
        assert report.single_step_violations == 0

    def test_undersized_eta_detected(self):
        # claiming eta = 0 for a nonlinear problem must surface violations
        problem = BrownProblem(5)
        fake = EtaEstimate(
            eta_per_row=np.zeros(5), eta=0.0, sample_count=1,
            center=np.ones(5), radius=1.0, flagged_rows=(),
        )
        rng = seeded_rng(15)
        pairs = [(2 * rng.random(5), 2 * rng.random(5)) for _ in range(50)]
        report = check_step_inequalities(problem, pairs, [np.arange(5)], fake)
        assert report.total_violations > 0

    def test_single_step_counts_match_the_row_loop(self):
        # the array pass against the per-row loop it replaced, on a Jacobian
        # with a zero row (skipped) and a NaN entry (checked, never violated)
        class Damaged(BrownProblem):
            def jacobian(self, x, rows=None, memo=None):
                J = super().jacobian(x, rows, memo).copy()
                J[1] = 0.0
                J[2, 0] = np.nan
                return J

        problem = Damaged(8)
        root = problem.known_root
        rng = seeded_rng(21)
        eta = EtaEstimate(rng.random(8) * 0.5, 0.5, 1, root, 1.0, ())
        pairs = [(root + 0.3 * rng.standard_normal(8), root) for _ in range(40)]
        checked = violations = 0
        for x1, _ in pairs:
            f1, J1 = problem.residual(x1), problem.jacobian(x1)
            err1 = float(np.sum((x1 - root) ** 2))
            gsq = np.einsum("ij,ij->i", J1, J1)
            for i in range(problem.m):
                if gsq[i] < ACTIVE_ABS_FLOOR:
                    continue
                lhs = float(np.sum((x1 - (f1[i] / gsq[i]) * J1[i] - root) ** 2))
                rhs = err1 - (1.0 - 2.0 * eta.eta_per_row[i]) * f1[i] ** 2 / gsq[i]
                checked += 1
                violations += lhs > rhs + 1e-10 * max(1.0, err1)
        report = check_step_inequalities(problem, pairs, [], eta)
        assert checked == 40 * 7 and violations > 0
        assert (report.single_step_checked, report.single_step_violations) == (checked, violations)

    def test_requires_known_root(self):
        problem = LinearProblem(np.eye(2), np.zeros(2))
        eta = EtaEstimate(np.zeros(2), 0.0, 1, np.zeros(2), 1.0, ())
        with pytest.raises(ValueError):
            check_step_inequalities(problem, [], [], eta)


class TestFactorReport:
    def test_linear_block_bound_holds_per_step(self):
        rng = seeded_rng(16)
        A = rng.standard_normal((10, 6))
        x_star = rng.standard_normal(6)
        problem = LinearProblem(A, A @ x_star, known_root=x_star)
        eta = estimate_eta(problem, np.zeros(6), radius=1.0, pairs=200, rng=seeded_rng(17))
        config = SolverConfig(method=MethodKind.DB_CNK, seed=0, record_iterates=True, max_iter=50)
        trace = solve(problem, np.zeros(6), config)
        report = build_factor_report(problem, trace, eta, Convex(0.5), MethodKind.DB_CNK)
        assert report.rows, "expected at least one diagnostic row"
        for row in report.rows:
            assert row.rho_nrk < 1.0
            if row.hypothesis_ok:
                assert row.rho_method < 1.0
                if row.measured_ratio is not None:
                    assert row.measured_ratio <= row.rho_method + 1e-8

    def test_expected_decrease_meets_bound_on_linear(self):
        # eta = 0 exactly for affine rows, so the expectation bound is rigorous
        rng = seeded_rng(20)
        A = rng.standard_normal((12, 5))
        x_star = rng.standard_normal(5)
        problem = LinearProblem(A, A @ x_star, known_root=x_star)
        eta = estimate_eta(problem, np.zeros(5), radius=1.0, pairs=300, rng=seeded_rng(21))
        assert eta.eta == 0.0
        for method in (MethodKind.DR_CNK, MethodKind.RD_CNK):
            config = SolverConfig(method=method, seed=3, record_iterates=True, max_iter=60, tol=1e-24)
            trace = solve(problem, np.zeros(5), config)
            report = build_factor_report(problem, trace, eta, Convex(0.5), method)
            assert report.rows
            for row in report.rows:
                assert row.expected_ratio is not None
                assert row.expected_ratio <= row.rho_method + 1e-10

    def test_single_sample_orderings_near_root(self):
        problem = BrownProblem(6)
        eta = estimate_eta(problem, np.ones(6), radius=0.05, pairs=3000, rng=seeded_rng(18))
        assert eta.eta < 0.5
        rng = seeded_rng(19)
        x0 = np.ones(6) + 0.04 * rng.standard_normal(6) / np.sqrt(6)
        for method in (MethodKind.DR_CNK, MethodKind.RD_CNK):
            config = SolverConfig(method=method, seed=1, record_iterates=True)
            trace = solve(problem, x0, config)
            report = build_factor_report(problem, trace, eta, Convex(0.5), method)
            for row in report.rows:
                assert row.rho_method < row.rho_nrk

    def test_report_keeps_no_jacobian_per_iterate(self):
        # 470 iterates of brown:40 would hold 470 x 12.8 kB of Jacobians
        # (7.6 MB); streaming holds one at a time
        problem = BrownProblem(40)
        config = SolverConfig(method=MethodKind.DR_CNK, seed=0, record_iterates=True)
        trace = solve(problem, 0.5 * np.ones(40), config)
        assert trace.total_iterations > 400
        eta = EtaEstimate(np.zeros(40), 0.1, 1, np.ones(40), 0.05, ())
        tracemalloc.start()
        try:
            report = build_factor_report(problem, trace, eta, Convex(0.5), MethodKind.DR_CNK)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(report.rows) == trace.total_iterations
        assert peak < 2e6, f"factor report peaked at {peak / 1e6:.1f} MB"

    @staticmethod
    def seeded_linear(seed):
        rng = seeded_rng(seed)
        A = rng.standard_normal((10, 6))
        x_star = rng.standard_normal(6)
        return LinearProblem(A, A @ x_star, known_root=x_star)

    @pytest.mark.parametrize("method", [MethodKind.DR_CNK, MethodKind.RD_CNK])
    @pytest.mark.parametrize("name", ["brown", "linear"])
    def test_expected_ratio_matches_the_member_loop(self, name, method):
        # the array pass against the per-member loop it replaced, bit for bit
        if name == "brown":
            problem, x0 = BrownProblem(8), 0.5 * np.ones(8)
        else:
            problem, x0 = self.seeded_linear(16), np.zeros(6)
        x_star, mode = problem.known_root, Convex(0.5)
        trace = solve(problem, x0, SolverConfig(method=method, seed=0, record_iterates=True, max_iter=60))
        eta = EtaEstimate(np.zeros(problem.m), 0.1, 1, x0, 1.0, ())
        report = build_factor_report(problem, trace, eta, mode, method)
        assert any(row.set_size > 1 for row in report.rows)
        for row, x in zip(report.rows, trace.iterates):
            g = RowGeometry.from_state(problem.residual(x), problem.row_sq_norms_at(x))
            sel = greedy_selection(g, method, mode)
            J = problem.jacobian(x)
            acc = 0.0
            for p_i, j in zip(sel.weights / sel.weights.sum(), sel.indices):
                if p_i == 0.0:
                    continue
                x_next = x - (g.residual[j] / g.grad_sq_norms[j]) * J[j]
                acc += p_i * float(np.sum((x_next - x_star) ** 2))
            assert row.expected_ratio.hex() == (acc / float(np.sum((x - x_star) ** 2))).hex()

    @pytest.mark.parametrize("method", [MethodKind.DR_CNK, MethodKind.RD_CNK, MethodKind.DB_CNK, MethodKind.RB_CNK])
    def test_a_trace_of_another_problem_or_threshold_raises(self, method):
        # the replay checks each recorded set size and selection, so a trace
        # that is not of this problem, method and threshold is refused
        problem = self.seeded_linear(16)
        eta = EtaEstimate(np.zeros(10), 0.0, 1, np.zeros(6), 1.0, ())
        config = SolverConfig(method=method, seed=0, record_iterates=True, max_iter=50)
        trace = solve(problem, np.zeros(6), config)
        assert build_factor_report(problem, trace, eta, Convex(0.5), method).rows
        # the other rule, and the same rule with the other step
        other_kinds = {
            MethodKind.DR_CNK: (MethodKind.RD_CNK, MethodKind.DB_CNK),
            MethodKind.RD_CNK: (MethodKind.DR_CNK, MethodKind.RB_CNK),
            MethodKind.DB_CNK: (MethodKind.RB_CNK, MethodKind.DR_CNK),
            MethodKind.RB_CNK: (MethodKind.DB_CNK, MethodKind.RD_CNK),
        }[method]
        # the records of seed 0 along the iterates of seed 1
        reseeded = solve(problem, np.zeros(6), replace(config, seed=1))
        spliced = replace(trace, iterates=reseeded.iterates)
        mismatched = (
            (self.seeded_linear(17), trace, Convex(0.5), method),
            (problem, trace, Scaled(1.0), method),
            (problem, trace, Convex(0.9), method),
            *((problem, trace, Convex(0.5), kind) for kind in other_kinds),
        )
        if method not in BLOCK_KINDS:
            # a block method draws nothing, so its seeds give one trace
            mismatched += ((problem, spliced, Convex(0.5), method),)
        for other, recorded, mode, kind in mismatched:
            with pytest.raises(ValueError, match=r"^k = \d+: the replayed set"):
                build_factor_report(other, recorded, eta, mode, kind)

    @pytest.mark.parametrize("method", [MethodKind.NK, MethodKind.NRK, *sorted(HYBRID_KINDS)])
    def test_rejects_methods_it_does_not_replay(self, method):
        problem = self.seeded_linear(16)
        eta = EtaEstimate(np.zeros(10), 0.0, 1, np.zeros(6), 1.0, ())
        trace = solve(problem, np.zeros(6), SolverConfig(method=MethodKind.DB_CNK, record_iterates=True))
        with pytest.raises(ValueError, match="factor reports cover"):
            build_factor_report(problem, trace, eta, Convex(0.5), method)

    def test_requires_iterates(self):
        problem = BrownProblem(4)
        trace = solve(problem, 0.5 * np.ones(4), SolverConfig(method=MethodKind.RB_CNK, seed=0))
        eta = EtaEstimate(np.zeros(4), 0.1, 1, np.ones(4), 0.05, ())
        with pytest.raises(ValueError):
            build_factor_report(problem, trace, eta, Convex(0.5), MethodKind.RB_CNK)
