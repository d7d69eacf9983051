import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from capped_kaczmarz.bench import resolve_problem
from capped_kaczmarz.core import (
    Convex,
    IterationRecord,
    MethodKind,
    Scaled,
    SolveStatus,
    SolverConfig,
    TraceRecords,
    check_stop,
)
from capped_kaczmarz.problems import BrownProblem, LinearProblem
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
    assert np.isfinite(trace.records.residual_sq).all()
    assert trace.status is SolveStatus.CONVERGED
    assert trace.records[-1].residual_sq < 1e-6
    assert trace.total_iterations == trace.records[-1].k


def filled_records(track_error=False):
    """Four records with distinct columns: selections of 1, 0, 3 and 0 rows."""
    records = TraceRecords(track_error=track_error)
    for k, selected in enumerate([(7,), (), (2, 5, 9), ()]):
        records.append(10.0 + k, selected, 2 * k + 1, 0.5 * k, 1.0 / (k + 1) if track_error else None)
    return records


def expected_record(k, track_error=False):
    selected = [(7,), (), (2, 5, 9), ()][k]
    return IterationRecord(k, 10.0 + k, selected, 2 * k + 1, 0.5 * k, 1.0 / (k + 1) if track_error else None)


class TestTraceRecords:
    """The column store reads as a read-only sequence of records."""

    @pytest.mark.parametrize("track_error", [False, True])
    def test_indexing_builds_each_record(self, track_error):
        records = filled_records(track_error)
        assert len(records) == 4
        assert list(records) == [expected_record(k, track_error) for k in range(4)]
        for k in range(4):
            assert records[k] == records[k - 4] == expected_record(k, track_error)
        assert records[-1] == expected_record(3, track_error)

    @pytest.mark.parametrize("index", [4, 100, -5])
    def test_index_past_the_end_raises(self, index):
        records = filled_records()
        with pytest.raises(IndexError):
            records[index]
        with pytest.raises(IndexError):
            records[1:3][index - 2 if index > 0 else index]

    def test_nested_slices_keep_the_original_k(self):
        records = filled_records(track_error=True)
        view = records[1:][1:]
        assert isinstance(view, TraceRecords) and len(view) == 2
        assert [r.k for r in view] == [2, 3]
        assert view[0] == expected_record(2, True)
        assert view[-1] == records[-1]
        assert [r.k for r in records[::-1]] == [3, 2, 1, 0]
        assert [r.k for r in records[::-1][1::2]] == [2, 0]
        assert len(records[3:1]) == 0 and list(records[3:1]) == []

    def test_views_read_their_own_columns(self):
        records = filled_records(track_error=True)
        for view in (records, records[1:3], records[::-1], records[::-2], records[:-1]):
            built = list(view)
            assert list(view.k) == [r.k for r in built]
            assert view.residual_sq.tolist() == [r.residual_sq for r in built]
            assert view.elapsed.tolist() == [r.elapsed for r in built]
            assert view.set_size.tolist() == [r.set_size for r in built]
            assert view.error_sq.tolist() == [r.error_sq for r in built]
        assert filled_records().error_sq is None
        with pytest.raises(TypeError):
            records.residual_sq[0] = 1.0  # the columns are read-only

    def test_a_view_is_not_a_copy(self):
        records = filled_records()
        view = records[:-1]
        records.append(99.0, (4, 4), 2, 9.0)
        # a view keeps its positions; the store grows past them
        assert len(view) == 3 and len(records) == 5
        assert records[-1] == IterationRecord(4, 99.0, (4, 4), 2, 9.0)

    def test_unpacking_a_two_record_trace(self):
        trace = solve(BrownProblem(2), 0.5 * np.ones(2), SolverConfig(method=MethodKind.DR_CNK, max_iter=1, seed=5))
        first, after = trace.records
        assert (first.k, after.k) == (0, 1)
        assert first.selected == (1,) and after.selected == ()
        assert trace.total_iterations == 1
        assert trace.records.residual_sq.tolist() == [first.residual_sq, after.residual_sq]


def test_a_record_costs_at_most_64_bytes():
    # the trace is the heap item that grows with the iteration count; its
    # columns take 40 bytes a single-row record, where a record object, a
    # one-row tuple and a list slot took about 190
    problem, x0 = resolve_problem("brown:50")
    config = SolverConfig(method=MethodKind.NRK, seed=0, clock=lambda: 0.0)
    solve(problem, x0, config)  # first-call allocations stay out of the peak
    tracemalloc.start()
    try:
        trace = solve(problem, x0, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(trace.records) > 4000
    assert peak <= 64 * len(trace.records)
