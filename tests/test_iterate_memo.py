"""The per-iterate memo changes how often a value is computed, never the value.

``solve`` hands one ``IterateMemo`` to every problem evaluation.  That each
evaluation returns the same bytes with and without it is checked on every
problem of ``tests/test_problem_contract.py``.  The tests here check what
the memo holds and what it is for: one GLM margin per iterate, one Brown
leave-one-out product per capped iteration.
"""

import numpy as np
import pytest

import capped_kaczmarz.problems as problems_mod
from capped_kaczmarz.core import HYBRID_KINDS, IterateMemo, MethodKind, SolveStatus, SolverConfig
from capped_kaczmarz.numerics import seeded_rng
from capped_kaczmarz.problems import BrownProblem, make_synthetic_glm
from capped_kaczmarz.solvers import solve


def test_glm_memo_holds_no_sample_block():
    # the norms and the rows share a curvature vector, not a p x d block
    glm = make_synthetic_glm(200, 10, 8)
    x = seeded_rng(4).standard_normal(glm.n)
    memo = IterateMemo()
    glm.residual(x, memo)
    glm.row_sq_norms_at(x, memo)
    glm.jacobian(x, None, memo)
    glm.jacobian(x, np.array([glm.m - 1, 0, glm.d]), memo)
    glm.row_grad(glm.m - 1, x, memo)
    store = memo.at(x)
    held = [v for value in store.values() for v in (value if isinstance(value, tuple) else (value,))]
    assert held and all(np.shape(v) == (glm.p,) for v in held), {k: np.shape(v) for k, v in store.items()}


def test_memo_holds_one_iterate():
    memo = IterateMemo()
    x, y = np.zeros(3), np.zeros(3)
    memo.at(x)["value"] = 1
    assert memo.at(x) == {"value": 1}
    assert memo.at(y) == {}
    # going back to x does not bring its values back
    assert memo.at(x) == {}


def counting(fn):
    def counted(*args, **kwargs):
        counted.calls += 1
        return fn(*args, **kwargs)

    counted.calls = 0
    return counted


class TestBrownLeaveOneOutReuse:
    """The product row's step reuses the leave-one-out products its norm
    was built from at the same iterate."""

    def solve_counted(self, monkeypatch, method: MethodKind):
        counted = counting(problems_mod._leave_one_out_products)
        monkeypatch.setattr(problems_mod, "_leave_one_out_products", counted)
        problem = BrownProblem(200)
        trace = solve(problem, 0.5 * np.ones(200), SolverConfig(method=method, seed=0))
        assert trace.status is SolveStatus.CONVERGED
        drew_product = sum(rec.selected == (problem.n - 1,) for rec in trace.records)
        return counted.calls, trace.total_iterations, drew_product

    def test_dr_cnk_builds_the_products_once_per_iteration(self, monkeypatch):
        calls, iterations, drew_product = self.solve_counted(monkeypatch, MethodKind.DR_CNK)
        # the norms build them at every iteration; a step on the product row
        # (a third of the iterations) reads them instead of building them again
        assert drew_product > iterations // 10
        assert calls == iterations

    def test_nrk_builds_them_only_for_its_steps(self, monkeypatch):
        calls, _, drew_product = self.solve_counted(monkeypatch, MethodKind.NRK)
        # nrk asks for no norms, so each product-row step builds its own
        assert calls == drew_product > 0


@pytest.mark.parametrize(
    "method",
    [MethodKind.DR_CNK, MethodKind.DB_CNK, MethodKind.RB_CNK, MethodKind.GLM_HYBRID_DB, MethodKind.GLM_HYBRID_RB],
    ids=lambda method: method.value,
)
def test_glm_margin_is_computed_once_per_iterate(monkeypatch, method):
    glm = make_synthetic_glm(200, 10, 8)
    counted = counting(problems_mod._sigmoid_branches)
    monkeypatch.setattr(problems_mod, "_sigmoid_branches", counted)
    trace = solve(glm, np.zeros(glm.n), SolverConfig(method=method, seed=0, max_iter=6))
    assert trace.status is SolveStatus.ITERATION_CAP_REACHED
    iterates = len(trace.records)
    # a hybrid iteration has a second iterate, after its head step
    expected = iterates + trace.total_iterations if method in HYBRID_KINDS else iterates
    assert counted.calls == expected
