import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from capped_kaczmarz.core import (
    Convex,
    MethodKind,
    Scaled,
    SolveStatus,
    SolverConfig,
    check_stop,
)
from capped_kaczmarz.problems import LinearProblem
from capped_kaczmarz.solvers import solve


CFG = SolverConfig(method=MethodKind.NK, tol=1e-6, max_iter=200_000)


def test_zero_residual_converges_immediately():
    assert check_stop(0.0, 0, CFG) is SolveStatus.CONVERGED


def test_tolerance_is_strict():
    assert check_stop(1e-6, 5, CFG) is None


def test_cap_reached_at_limit():
    assert check_stop(1.0, 200_000, CFG) is SolveStatus.ITERATION_CAP_REACHED


def test_convergence_beats_cap():
    assert check_stop(0.0, 200_000, CFG) is SolveStatus.CONVERGED


@pytest.mark.parametrize("residual_sq", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("k", [0, 5, 200_000])
def test_non_finite_residual_is_breakdown(residual_sq, k):
    # checked before convergence and the cap, at any iteration count
    assert check_stop(residual_sq, k, CFG) is SolveStatus.NUMERICAL_BREAKDOWN


@given(st.floats(min_value=0, max_value=1e-5), st.floats(min_value=0, max_value=1e-5))
def test_check_stop_monotone_in_residual(r, r_smaller):
    # if the rule converges at r, it converges at every smaller value
    if check_stop(r, 3, CFG) is SolveStatus.CONVERGED and r_smaller <= r:
        assert check_stop(r_smaller, 3, CFG) is SolveStatus.CONVERGED


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(method=MethodKind.NK, tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(method=MethodKind.NK, max_iter=0)
    with pytest.raises(ValueError):
        Convex(1.5)
    with pytest.raises(ValueError):
        Scaled(0.0)
    assert Scaled(1.0).xi == 1.0
    assert Convex(0.0).theta == 0.0


def test_trace_invariants_on_small_solve():
    problem = LinearProblem(np.eye(3), np.array([1.0, 2.0, 3.0]))
    trace = solve(problem, np.zeros(3), SolverConfig(method=MethodKind.NK, seed=0))
    ks = [r.k for r in trace.records]
    assert ks == sorted(ks) and len(set(ks)) == len(ks)
    assert all(r.residual_sq >= 0 for r in trace.records)
    assert np.isfinite(trace.residual_history).all()
    assert trace.status is SolveStatus.CONVERGED
    assert trace.records[-1].residual_sq < 1e-6
    assert trace.total_iterations == trace.records[-1].k
