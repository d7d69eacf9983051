"""The benchmark's per-layer spans still reach the solver.

``benchmark/tracing.py`` times each layer by rebinding, by name, the module
globals through which ``solve`` calls into selection, numerics and the
hybrid head step.  A rename or an inlined call in the package would leave a
span silently empty, so these tiny solves run under its ``instrumented``
block and check that every span the per-layer metrics read is entered.
The benchmark file is executed from source, read only.
"""

import types
from pathlib import Path

import numpy as np
import pytest

import capped_kaczmarz.solvers as solvers_mod
from capped_kaczmarz.core import BLOCK_KINDS, HYBRID_KINDS, MethodKind, SolveStatus, SolverConfig
from capped_kaczmarz.numerics import seeded_rng
from capped_kaczmarz.problems import BrownProblem, GLMProblem, LinearProblem, make_synthetic_glm
from capped_kaczmarz.solvers import solve

TRACING = Path(__file__).resolve().parent.parent / "benchmark" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    # exec rather than import, so nothing (not even bytecode) is written there
    module = types.ModuleType("benchmark_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module


def linear_problem():
    rng = seeded_rng(3)
    A = rng.standard_normal((12, 4))
    return LinearProblem(A, A @ rng.standard_normal(4)), np.zeros(4)


def glm_problem():
    glm = make_synthetic_glm(p=12, d=3, seed=2)
    return glm, np.zeros(glm.n)


def brown_problem():
    # n >= 27: the product row stays out of the first distance-capped set
    return BrownProblem(30), 0.5 * np.ones(30)


SELECTION = {"selection.geometry", "selection.threshold", "selection.set"}
# block steps build only the Jacobian rows they hand to least squares; a
# case whose blocks the problem's hook all solves enters neither
BLOCK = {"problems.row_norms", "problems.jacobian", "numerics.lstsq"}
SINGLE = {"selection.sample", "numerics.draw", "solvers.step"}
CASES = {
    "dr-cnk": (MethodKind.DR_CNK, linear_problem, SELECTION | SINGLE),
    "rd-cnk": (MethodKind.RD_CNK, linear_problem, SELECTION | SINGLE),
    "db-cnk": (MethodKind.DB_CNK, linear_problem, SELECTION | BLOCK),
    "glm-hybrid-db": (MethodKind.GLM_HYBRID_DB, glm_problem, SELECTION | BLOCK | {"solvers.hybrid_head"}),
    "db-cnk-glm": (MethodKind.DB_CNK, glm_problem, SELECTION | BLOCK),
    "dr-cnk-brown": (MethodKind.DR_CNK, brown_problem, SELECTION | SINGLE | {"problems.row_norms", "problems.row_grad"}),
}


@pytest.mark.parametrize("method, build, spans", list(CASES.values()), ids=list(CASES))
def test_spans_are_entered(tracing, method, build, spans):
    problem, x0 = build()
    tracer = tracing.Tracer()
    lstsq_parents = []
    # every block of two or more rows is offered to the problem's hook
    # first; log, with the span it is offered from, whether it declined
    hook = problem.block_step
    offered = []

    def logged_hook(x, rows, rhs, memo=None):
        step = hook(x, rows, rhs, memo)
        offered.append((tracer.parent(), step is None))
        return step

    problem.block_step = logged_hook
    with tracing.instrumented(tracer, [problem]):
        # every least-squares call goes through the one traced name; log the
        # span each call is made from (a declined hybrid head, or the loop)
        traced = solvers_mod.min_norm_least_squares

        def logged(J, rhs):
            lstsq_parents.append(tracer.parent())
            return traced(J, rhs)

        solvers_mod.min_norm_least_squares = logged
        trace = solve(problem, x0, SolverConfig(method=method, seed=1, max_iter=3))
    assert trace.status is SolveStatus.ITERATION_CAP_REACHED
    # a block the hook solves (every GLM block here, and a hybrid's head)
    # builds no Jacobian rows and calls no least squares; each block it
    # declines from the loop goes to both
    generic = [declined for parent, declined in offered if parent is None]
    assert len(generic) == sum(len(rec.selected) > 1 for rec in trace.records[:-1])
    assert not any(declined for parent, declined in offered if parent is not None)
    if isinstance(problem, GLMProblem):
        assert not any(generic)
    if not any(generic):
        spans = spans - {"problems.jacobian", "numerics.lstsq"}
    calls = {name: entry["calls"] for name, entry in tracer.totals().items() if name != "counts"}
    missing = sorted(name for name in spans if not calls.get(name))
    assert not missing, f"{method.value}: spans never entered: {missing}"
    # the selection layers run once per iteration
    assert calls["selection.geometry"] == calls["selection.threshold"] == calls["selection.set"] == 3
    if calls.get("problems.jacobian"):
        counts = tracer.totals()["counts"]
        assert counts["problems.jacobian.rows_used"] > 0
        assert counts["problems.jacobian.rows_built"] == counts["problems.jacobian.rows_used"]
    # the residual is evaluated once per iterate: the hybrids have a second
    # iterate in each iteration, after the head step
    expected = len(trace.records) + (trace.total_iterations if method in HYBRID_KINDS else 0)
    assert calls["problems.residual"] == expected
    # least squares: once per block iteration that goes to it, from the
    # loop; a one-row block is the projection onto that row, one step call
    if method in BLOCK_KINDS | HYBRID_KINDS:
        sizes = [rec.set_size for rec in trace.records[:-1]]
        assert lstsq_parents == [None] * sum(generic)
        assert calls.get("numerics.lstsq", 0) == len(lstsq_parents)
        assert calls.get("problems.jacobian", 0) == sum(generic)
        assert calls.get("solvers.step", 0) == sizes.count(1)
    else:
        assert not lstsq_parents

