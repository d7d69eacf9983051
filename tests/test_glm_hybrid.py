"""Hybrid block scheme on the logistic-regression system."""

import numpy as np
import pytest

from capped_kaczmarz.core import Convex, MethodKind, SolveStatus, SolverConfig
from capped_kaczmarz.numerics import min_norm_least_squares
from capped_kaczmarz.problems import make_glm, make_synthetic_glm, synthetic_dataset
from capped_kaczmarz.selection import SelectionKind
from capped_kaczmarz.solvers import hybrid_linear_substep, hybrid_tail_selection, solve


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


def test_tail_selection_nonempty_and_global_indices(small_glm):
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = rng.standard_normal(small_glm.n)
        tail = small_glm.residual(x)[small_glm.d :]
        if float(tail @ tail) == 0.0:
            continue
        for kind in (SelectionKind.DISTANCE, SelectionKind.RESIDUAL):
            sel, global_rows, _ = hybrid_tail_selection(small_glm, x, small_glm.residual(x), kind, Convex(0.5))
            assert len(sel) >= 1
            assert np.all(global_rows >= small_glm.d)
            assert np.all(global_rows < small_glm.m)


@pytest.mark.parametrize("method", [MethodKind.GLM_HYBRID_DB, MethodKind.GLM_HYBRID_RB])
def test_records_replay_head_solve_and_tail_block(small_glm, method):
    kind = SelectionKind.DISTANCE if method is MethodKind.GLM_HYBRID_DB else SelectionKind.RESIDUAL
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
        sel, rows, J = hybrid_tail_selection(small_glm, x_mid, r_mid, kind, config.threshold)
        assert rec.selected == tuple(int(j) for j in rows)
        assert rec.set_size == len(sel)
        expected = x_mid - min_norm_least_squares(J[rows], r_mid[rows])
        assert np.array_equal(x_next, expected)


def test_solve_dispatches_hybrid_kinds(small_glm):
    trace = solve(small_glm, np.zeros(small_glm.n), SolverConfig(method=MethodKind.GLM_HYBRID_RB, seed=3))
    assert trace.status is SolveStatus.CONVERGED


def test_hybrid_requires_glm_problem():
    from capped_kaczmarz.problems import make_linear

    linear = make_linear(np.eye(2), np.zeros(2))
    with pytest.raises(TypeError):
        solve(linear, np.zeros(2), SolverConfig(method=MethodKind.GLM_HYBRID_DB))


def test_plain_block_methods_also_run_on_glm():
    glm = make_synthetic_glm(p=30, d=3, seed=4)
    trace = solve(glm, np.zeros(glm.n), SolverConfig(method=MethodKind.DB_CNK, seed=0))
    assert trace.status is SolveStatus.CONVERGED
