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
    # an unknown name raises; a known one becomes its member
    with pytest.raises(ValueError):
        SolverConfig(method="bogus")
    assert SolverConfig(method="nk").method is MethodKind.NK
    assert SolverConfig(method=MethodKind.RD_CNK).method is MethodKind.RD_CNK
    # NaN is not a positive tolerance
    with pytest.raises(ValueError):
        SolverConfig(method=MethodKind.NK, tol=float("nan"))
    # the cap is an integer: a float, infinity among them, is refused
    for max_iter in (float("inf"), 10.0):
        with pytest.raises(TypeError):
            SolverConfig(method=MethodKind.NK, max_iter=max_iter)
    assert type(SolverConfig(method=MethodKind.NK, max_iter=np.int64(7)).max_iter) is int
    # a threshold is a mode, never a bare number, whether or not the method reads it
    for method in (MethodKind.NRK, MethodKind.DR_CNK):
        for threshold in (0.5, None):
            with pytest.raises(TypeError):
                SolverConfig(method=method, threshold=threshold)
    # the seed is a non-negative integer: a float is refused, not truncated
    with pytest.raises(TypeError):
        SolverConfig(method=MethodKind.NRK, seed=1.7)
    with pytest.raises(ValueError):
        SolverConfig(method=MethodKind.NRK, seed=-1)
    assert type(SolverConfig(method=MethodKind.NRK, seed=np.int64(3)).seed) is int
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

    @pytest.mark.parametrize(
        "index",
        [
            slice(None),
            slice(None, -1),
            slice(1, None),
            slice(-3, -1),
            slice(1, 3),
            slice(None, None, 2),
            slice(1, None, 2),
            slice(None, None, -1),
            slice(None, None, -2),
            slice(-2, None, -1),
            slice(3, 1),
            slice(10, 20),
            slice(-10, 10),
        ],
    )
    def test_a_slice_iterates_the_records_at_its_positions(self, index):
        records = filled_records(track_error=True)
        sliced = records[index]
        assert not isinstance(sliced, TraceRecords)
        assert list(sliced) == [records[k] for k in range(len(records))[index]]
        assert list(sliced) == []  # one pass

    def test_the_columns_read_the_records(self):
        records = filled_records(track_error=True)
        built = list(records)
        assert list(records.k) == [r.k for r in built]
        assert records.residual_sq.tolist() == [r.residual_sq for r in built]
        assert records.elapsed.tolist() == [r.elapsed for r in built]
        assert records.set_size.tolist() == [r.set_size for r in built]
        assert records.error_sq.tolist() == [r.error_sq for r in built]
        assert filled_records().error_sq is None
        with pytest.raises(TypeError):
            records.residual_sq[0] = 1.0  # the columns are read-only

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


def traced_peak(build):
    """``build()``'s result and the peak heap bytes traced while it ran."""
    tracemalloc.start()
    try:
        result = build()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_single_row_record_costs_at_most_24_bytes():
    # 8 each for the residual and the time, 1 for the set size, 1 for a row
    # below 256 and 2 for the end of its rows once the trace passes 255
    # records: 20 bytes, plus the arrays' growth margin of about 6%
    problem, x0 = resolve_problem("brown:50")
    config = SolverConfig(method=MethodKind.NRK, seed=0, clock=lambda: 0.0)
    solve(problem, x0, config)  # first-call allocations stay out of the peak
    trace, peak = traced_peak(lambda: solve(problem, x0, config))
    assert len(trace.records) > 4000
    assert peak <= 24 * len(trace.records)


def test_a_nine_row_block_record_costs_at_most_34_bytes():
    # 8 + 8 for the floats, 1 for the set size, 9 for the rows and 4 for the
    # end of the rows past 65535 of them: 30 bytes
    selections = [tuple((9 * k + j) % 200 for j in range(9)) for k in range(10_000)]

    def build():
        records = TraceRecords()
        for selected in selections:
            records.append(1.0, selected, 9, 2.0)
        return records

    records, peak = traced_peak(build)
    assert len(records) == 10_000 and records[-1].selected == selections[-1]
    assert peak <= 34 * len(records)


def test_iterating_a_slice_holds_one_record_at_a_time():
    # the factor report and the benchmark iterate records[:-1] once; a list
    # of brown:50 nrk's 4573 records would take about 0.9 MB
    problem, x0 = resolve_problem("brown:50")
    trace = solve(problem, x0, SolverConfig(method=MethodKind.NRK, seed=0, clock=lambda: 0.0))
    assert len(trace.records) > 4000

    def walk():
        count = 0
        for _ in trace.records[:-1]:
            count += 1
        return count

    count, peak = traced_peak(walk)
    assert count == len(trace.records) - 1
    assert peak <= 4096


def integer_codes(records):
    return records._set_size.typecode, records._rows.typecode, records._row_ends.typecode


def every_column(records):
    """Each column's code and bytes, the rows and where they end included."""
    names = ("_residual_sq", "_elapsed", "_error_sq", "_set_size", "_rows", "_row_ends")
    return {name: (column.typecode, column.tobytes()) for name in names if (column := getattr(records, name)) is not None}


class TestIntegerColumnWidth:
    """The integer columns start at one byte and widen to the first code
    that holds a value, reading back the same records."""

    @pytest.mark.parametrize(
        "value, code",
        [(0, "B"), (255, "B"), (256, "H"), (65535, "H"), (65536, "I"), (2**32 - 1, "I"), (2**32, "Q"), (2**64 - 1, "Q")],
    )
    def test_a_set_size_and_a_row_take_the_narrowest_code(self, value, code):
        records = filled_records(track_error=True)
        records.append(1.0, (value,), value, 2.0, 3.0)
        assert integer_codes(records) == (code, code, "B")
        assert records.set_size.format == code
        assert list(records) == [expected_record(k, True) for k in range(4)] + [
            IterationRecord(4, 1.0, (value,), value, 2.0, 3.0)
        ]

    @pytest.mark.parametrize("count, code", [(255, "B"), (256, "H"), (65535, "H"), (65536, "I"), (70_000, "I")])
    def test_the_row_ends_widen_on_their_own(self, count, code):
        selected = tuple(k % 256 for k in range(count))
        records = TraceRecords()
        records.append(1.0, selected, 3, 2.0)
        records.append(4.0, (), 0, 5.0)
        assert integer_codes(records) == ("B", "B", code)
        assert list(records) == [IterationRecord(0, 1.0, selected, 3, 2.0), IterationRecord(1, 4.0, (), 0, 5.0)]

    def test_each_column_widens_only_as_far_as_it_must(self):
        records = TraceRecords()
        records.append(1.0, (300,), 1, 2.0)
        assert integer_codes(records) == ("B", "H", "B")
        records.append(1.0, (70_000,), 2**32, 2.0)
        assert integer_codes(records) == ("Q", "I", "B")
        assert records.set_size.tolist() == [1, 2**32]
        assert [r.selected for r in records] == [(300,), (70_000,)]

    def test_a_selection_whose_last_row_overflows_goes_in_once(self):
        records = filled_records()
        records.append(1.0, (1, 2, 300), 3, 2.0)
        assert records._rows.tolist() == [7, 2, 5, 9, 1, 2, 300]
        assert records._row_ends.tolist() == [1, 1, 4, 4, 7]
        assert records[-1] == IterationRecord(4, 1.0, (1, 2, 300), 3, 2.0)

class TestAppendIsAllOrNothing:
    """A call that raises leaves every column, codes included, as it was,
    and the store takes the next record as if the call never happened."""

    @pytest.mark.parametrize(
        "residual_sq, selected, set_size, elapsed, error_sq, error",
        [
            pytest.param(1.0, (3,), 1, 2.0, None, TypeError, id="tracked-error-missing"),
            pytest.param(1.0, (3,), -1, 2.0, 3.0, OverflowError, id="negative-set-size"),
            pytest.param(1.0, (3,), 2**64, 2.0, 3.0, OverflowError, id="set-size-past-Q"),
            pytest.param(1.0, (3,), 1.5, 2.0, 3.0, TypeError, id="float-set-size"),
            pytest.param(1.0, (3, 300, -1), 3, 2.0, 3.0, OverflowError, id="negative-row"),
            pytest.param(1.0, (3, 300, 2**64), 3, 2.0, 3.0, OverflowError, id="row-past-Q"),
            pytest.param(1.0, (3, 300, "4"), 3, 2.0, 3.0, TypeError, id="str-row"),
            pytest.param("1.0", (3,), 1, 2.0, 3.0, TypeError, id="str-residual"),
            pytest.param(1.0, (3,), 1, None, 3.0, TypeError, id="elapsed-missing"),
            pytest.param(10**400, (3,), 1, 2.0, 3.0, OverflowError, id="residual-past-float"),
            # the floats go in first, so this one fails before the row widens
            pytest.param(1.0, (300,), 1, 2.0, None, TypeError, id="widening-row-then-error-missing"),
        ],
    )
    @pytest.mark.parametrize("widened", [False, True], ids=["narrow", "widened"])
    def test_a_bad_value_changes_nothing(self, residual_sq, selected, set_size, elapsed, error_sq, error, widened):
        records = filled_records(track_error=True)
        if widened:
            records.append(0.0, (70_000,), 2**32, 0.0, 0.0)
        before = every_column(records)
        expected = list(records)
        with pytest.raises(error):
            records.append(residual_sq, selected, set_size, elapsed, error_sq)
        assert every_column(records) == before
        assert list(records) == expected and len(records) == len(expected)
        records.append(1.0, (3,), 1, 2.0, 3.0)
        assert records[-1] == IterationRecord(len(expected), 1.0, (3,), 1, 2.0, 3.0)

    def test_a_held_column_blocks_the_append_and_changes_nothing(self):
        records = filled_records(track_error=True)
        before = every_column(records)
        held = records.error_sq  # an exported buffer pins the array's size
        with pytest.raises(BufferError):
            records.append(1.0, (3,), 1, 2.0, 3.0)
        assert every_column(records) == before
        del held
        records.append(1.0, (3,), 1, 2.0, 3.0)
        assert len(records) == 5
