"""Hybrid block scheme on the logistic-regression system."""

import ast
import inspect

import numpy as np
import pytest

import capped_kaczmarz.bench as bench_mod
import capped_kaczmarz.solvers as solvers_mod
from capped_kaczmarz.core import HYBRID_KINDS, Convex, MethodKind, ProblemInstance, SolveStatus, SolverConfig
from capped_kaczmarz.errors import FactorizationFailure
from capped_kaczmarz.numerics import min_norm_least_squares, seeded_rng
from capped_kaczmarz.problems import (
    BrownProblem, GLMProblem, LinearProblem, make_glm, make_synthetic_glm, synthetic_dataset,
)
from capped_kaczmarz.selection import RowGeometry
from capped_kaczmarz.solvers import greedy_selection, hybrid_linear_substep, kaczmarz_step, solve


def newton_root(glm, x0, iterations=60):
    """Oracle: full Newton iteration on the square system."""
    x = x0.copy()
    for _ in range(iterations):
        x = x - np.linalg.solve(glm.jacobian(x), glm.residual(x))
    return x


@pytest.fixture(scope="module")
def small_glm():
    return make_glm(synthetic_dataset(p=4, d=2, seed=8), lam=0.25)


def test_newton_oracle_finds_root(small_glm):
    root = newton_root(small_glm, np.zeros(small_glm.n))
    assert float(np.sum(small_glm.residual(root) ** 2)) < 1e-20


@pytest.mark.parametrize("method", [MethodKind.GLM_HYBRID_DB, MethodKind.GLM_HYBRID_RB])
def test_converges_toward_newton_root(small_glm, method):
    root = newton_root(small_glm, np.zeros(small_glm.n))
    config = SolverConfig(method=method, seed=0, record_iterates=True)
    trace = solve(small_glm, np.zeros(small_glm.n), config)
    assert trace.status is SolveStatus.CONVERGED
    assert trace.records[-1].residual_sq < 1e-6
    # total residual oscillates (tail projections perturb the head rows);
    # the distance to the root is what shrinks every iteration
    errors = np.array([np.sum((x - root) ** 2) for x in trace.iterates])
    assert np.all(np.diff(errors) <= 1e-12)
    assert np.linalg.norm(trace.final_x - root) < 1e-2


def test_linear_substep_annihilates_head_rows(small_glm):
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.standard_normal(small_glm.n)
        x_mid = hybrid_linear_substep(small_glm, x, small_glm.residual(x))
        head = small_glm.residual(x_mid)[: small_glm.d]
        assert np.all(np.abs(head) <= 1e-12)


def tail_selection(glm, x, r, method, mode):
    """The hybrid's selection at ``x``: the tail rows' geometry, through the
    selection every greedy method shares."""
    norms = glm.row_sq_norms_at(x)
    return greedy_selection(RowGeometry.from_state(r[glm.d:], norms[glm.d:]), method, mode)


def test_tail_selection_nonempty_and_global_indices(small_glm):
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = rng.standard_normal(small_glm.n)
        tail = small_glm.residual(x)[small_glm.d :]
        if float(tail @ tail) == 0.0:
            continue
        for method in (MethodKind.GLM_HYBRID_DB, MethodKind.GLM_HYBRID_RB):
            sel = tail_selection(small_glm, x, small_glm.residual(x), method, Convex(0.5))
            global_rows = sel.indices + small_glm.d
            assert len(sel) >= 1
            assert np.all(global_rows >= small_glm.d)
            assert np.all(global_rows < small_glm.m)


@pytest.mark.parametrize("method", [MethodKind.GLM_HYBRID_DB, MethodKind.GLM_HYBRID_RB])
def test_records_replay_head_solve_and_tail_block(small_glm, method):
    config = SolverConfig(method=method, seed=0, record_iterates=True)
    trace = solve(small_glm, np.zeros(small_glm.n), config)
    assert trace.status is SolveStatus.CONVERGED
    for rec, x in zip(trace.records, trace.iterates):
        r = small_glm.residual(x)
        assert rec.residual_sq == float(r @ r)
    # each iteration is the head solve at x, then the tail block at the
    # post-head iterate, replayed here from the recorded iterate
    for rec, x, x_next in zip(trace.records, trace.iterates, trace.iterates[1:]):
        x_mid = hybrid_linear_substep(small_glm, x, small_glm.residual(x))
        r_mid = small_glm.residual(x_mid)
        sel = tail_selection(small_glm, x_mid, r_mid, method, config.threshold)
        rows = sel.indices + small_glm.d
        assert rec.selected == tuple(int(j) for j in rows)
        assert rec.set_size == len(sel)
        J, rhs = small_glm.jacobian(x_mid)[rows], r_mid[rows]
        # a tail block of two or more rows takes its closed-form step, a
        # one-row block the projection onto its row, as the solve does; the
        # projection's step is taken from a zero iterate for the oracle
        if len(rows) > 1:
            step = small_glm.block_step(x_mid, rows, rhs)
            assert np.array_equal(x_next, x_mid - step)
        else:
            f, grad = r_mid[rows[0]], small_glm.row_grad(rows[0], x_mid)
            assert np.array_equal(x_next, kaczmarz_step(x_mid, f, grad))
            step = -kaczmarz_step(np.zeros(small_glm.n), f, grad)
        oracle = np.linalg.lstsq(J, rhs, rcond=None)[0]
        assert np.linalg.norm(step - oracle) <= 1e-10 * np.linalg.norm(oracle)


@pytest.mark.parametrize("method", sorted(HYBRID_KINDS, key=lambda kind: kind.value), ids=lambda kind: kind.value)
def test_hybrid_iterations_take_closed_form_blocks_only(monkeypatch, method):
    # the head and every tail block of two or more rows go to the problem's
    # closed-form block step; none is factored or left to least squares
    glm = make_synthetic_glm(200, 10, 8)
    calls = []
    eigh = np.linalg.eigh

    def counted(G):
        calls.append(G.shape)
        return eigh(G)

    structured = []
    closed_form = glm.block_step

    def logged(x, rows, rhs, memo=None):
        step = closed_form(x, rows, rhs, memo)
        structured.append(("head" if rows[0] < glm.d else "tail", len(rows), step is not None))
        return step

    monkeypatch.setattr(np.linalg, "eigh", counted)
    glm.block_step = logged
    trace = solve(glm, np.zeros(glm.n), SolverConfig(method=method, seed=0, max_iter=7))
    assert trace.status is SolveStatus.ITERATION_CAP_REACHED
    # each iteration is the head block, then its tail block when it has two
    # or more rows, rb-cnk's all-row set at the zero start too; a one-row
    # block is projected onto its row
    sizes = [rec.set_size for rec in trace.records[:-1]]
    head = [("head", glm.d, True)]
    assert structured == [block for k in sizes for block in head + [("tail", k, True)] * (k >= 2)]
    assert calls == []
    if method is MethodKind.GLM_HYBRID_DB:
        # iteration 1's tail set is one row
        assert sizes.count(1) == 1 and len(structured) == 2 * trace.total_iterations - 1 == 13


def test_solve_dispatches_hybrid_kinds(small_glm):
    trace = solve(small_glm, np.zeros(small_glm.n), SolverConfig(method=MethodKind.GLM_HYBRID_RB, seed=3))
    assert trace.status is SolveStatus.CONVERGED


def test_hybrid_requires_glm_problem():
    linear = LinearProblem(np.eye(2), np.zeros(2))
    with pytest.raises(TypeError):
        solve(linear, np.zeros(2), SolverConfig(method=MethodKind.GLM_HYBRID_DB))


HYBRIDS = sorted(HYBRID_KINDS, key=lambda kind: kind.value)


def test_head_rows_are_declared_by_the_problem():
    assert BrownProblem(4).d == 0
    assert LinearProblem(np.eye(3), np.zeros(3)).d == 0
    glm = make_synthetic_glm(p=12, d=3, seed=1)
    assert glm.d == glm.A.shape[0] == 3


class NoHeadRows(ProblemInstance):
    """``x - 1 = 0`` on a bare subclass that leaves ``d`` at its default."""

    m = n = 2

    def residual(self, x, memo=None):
        return x - 1.0

    def row_grad(self, i, x, memo=None):
        return np.eye(2)[i]

    def jacobian(self, x, rows=None, memo=None):
        return np.eye(2) if rows is None else np.eye(2)[rows]


@pytest.mark.parametrize("d", [0, -1, 2], ids=["default", "negative", "every row"])
@pytest.mark.parametrize("method", HYBRIDS, ids=lambda kind: kind.value)
def test_every_hybrid_refuses_a_problem_without_head_rows(method, d):
    # 0 < d < m: a hybrid needs at least one head row and one tail row
    problem = NoHeadRows()
    if d:
        problem.d = d
    with pytest.raises(TypeError, match="head rows"):
        solve(problem, np.zeros(2), SolverConfig(method=method))


@pytest.mark.parametrize("method", HYBRIDS, ids=lambda kind: kind.value)
def test_a_glm_subclass_runs_both_hybrids(method):
    class Subclassed(GLMProblem):
        pass

    glm = make_synthetic_glm(p=30, d=3, seed=4)
    config = SolverConfig(method=method, seed=2, clock=lambda: 0.0)
    mine = solve(Subclassed(glm.A, glm.y, glm.lam), np.zeros(glm.n), config)
    reference = solve(glm, np.zeros(glm.n), config)
    assert mine.status is SolveStatus.CONVERGED
    assert list(mine.records) == list(reference.records)


@pytest.mark.parametrize("method", HYBRIDS, ids=lambda kind: kind.value)
def test_a_problem_that_declares_head_rows_runs_a_hybrid(method):
    # the problem, not its class, decides: a linear system whose first two
    # rows are declared its head solves them exactly at every iteration
    class HeadedLinear(LinearProblem):
        d = 2

    rng = seeded_rng(5)
    A = rng.standard_normal((8, 4))
    x_star = rng.standard_normal(4)
    trace = solve(HeadedLinear(A, A @ x_star), np.zeros(4), SolverConfig(method=method, seed=0))
    assert trace.status is SolveStatus.CONVERGED
    assert all(min(record.selected) >= 2 for record in trace.records if record.selected)


def test_the_solver_layer_imports_no_problem_class():
    assert not hasattr(solvers_mod, "GLMProblem")
    assert not hasattr(bench_mod, "GLMProblem")
    tree = ast.parse(inspect.getsource(solvers_mod))
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert imported <= {"__future__", "core", "errors", "numerics", "selection"}


def test_plain_block_methods_also_run_on_glm():
    glm = make_synthetic_glm(p=30, d=3, seed=4)
    trace = solve(glm, np.zeros(glm.n), SolverConfig(method=MethodKind.DB_CNK, seed=0))
    assert trace.status is SolveStatus.CONVERGED


@pytest.mark.parametrize("method", sorted(HYBRID_KINDS, key=lambda kind: kind.value), ids=lambda kind: kind.value)
def test_failed_tail_block_leaves_the_pre_head_iterate(monkeypatch, small_glm, method):
    # the second tail step fails, a closed-form or least-squares block or a
    # one-row projection; the head solve of that iteration has already gone
    # through, and the solve must drop it too
    tail_steps = []

    def count_tail_step(step):
        tail_steps.append(step)
        if len(tail_steps) == 2:
            raise FactorizationFailure("tail step")

    def failing_block(J, r):
        count_tail_step("block")
        return min_norm_least_squares(J, r)

    def failing_row(x, f_i, grad_i):
        count_tail_step("row")
        return kaczmarz_step(x, f_i, grad_i)

    closed_form = GLMProblem.block_step

    def failing_structured(glm, x, rows, rhs, memo=None):
        # the head block goes through the same hook; only tail blocks count
        if rows[0] >= glm.d:
            count_tail_step("structured")
        return closed_form(glm, x, rows, rhs, memo)

    monkeypatch.setattr(solvers_mod, "min_norm_least_squares", failing_block)
    monkeypatch.setattr(solvers_mod, "kaczmarz_step", failing_row)
    monkeypatch.setattr(GLMProblem, "block_step", failing_structured)
    trace = solve(small_glm, np.zeros(small_glm.n), SolverConfig(method=method, seed=0, record_iterates=True))
    assert trace.status is SolveStatus.NUMERICAL_BREAKDOWN
    assert len(tail_steps) == 2
    assert trace.total_iterations == 1
    assert np.array_equal(trace.final_x, trace.iterates[-1])
    assert trace.records[-1].selected == () and trace.records[-1].set_size == 0
    assert trace.records[0].set_size == len(trace.records[0].selected) >= 1


@pytest.mark.parametrize("method", sorted(HYBRID_KINDS, key=lambda kind: kind.value), ids=lambda kind: kind.value)
def test_exactly_solved_tail_takes_the_head_step_alone(monkeypatch, small_glm, method):
    # at w = 0 every sigmoid is 1/2, so alpha_s = y_s / 2 zeroes every tail row
    glm = small_glm
    tail_root = np.concatenate((glm.y / 2.0, np.zeros(glm.d)))
    assert not glm.residual(tail_root)[glm.d:].any()
    lstsq_calls = []

    def counted(*args):
        lstsq_calls.append(args)
        return min_norm_least_squares(*args)

    monkeypatch.setattr(solvers_mod, "hybrid_linear_substep", lambda problem, x, r, memo: tail_root.copy())
    monkeypatch.setattr(solvers_mod, "min_norm_least_squares", counted)
    trace = solve(glm, np.zeros(glm.n), SolverConfig(method=method, seed=0, max_iter=3))
    assert trace.status is SolveStatus.ITERATION_CAP_REACHED
    assert [(rec.selected, rec.set_size) for rec in trace.records] == [((), 0)] * 4
    assert lstsq_calls == []
    assert np.array_equal(trace.final_x, tail_root)
