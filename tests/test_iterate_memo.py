"""The per-iterate memo changes how often a value is computed, never the value.

``solve`` hands one ``IterateMemo`` to every problem evaluation.  The
property test below checks that each evaluation returns the same bytes with
and without it, in any call order, and that a memo filled at one iterate
gives another iterate's own values.  The count tests check what the memo is
for: one GLM margin per iterate, one Brown leave-one-out product per
capped iteration.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import capped_kaczmarz.problems as problems_mod
from capped_kaczmarz.core import HYBRID_KINDS, IterateMemo, MethodKind, SolveStatus, SolverConfig
from capped_kaczmarz.numerics import seeded_rng
from capped_kaczmarz.problems import BrownProblem, LinearProblem, make_synthetic_glm
from capped_kaczmarz.solvers import solve


def _linear() -> LinearProblem:
    rng = seeded_rng(21)
    return LinearProblem(rng.standard_normal((9, 4)), rng.standard_normal(9))


# name -> (problem, number of head rows); Brown's one tail row is its product row
PROBLEMS = {
    "brown:7": (BrownProblem(7), 6),
    "brown:40": (BrownProblem(40), 39),
    "linear:9,4": (_linear(), 3),
    "glm:60,6,3": (make_synthetic_glm(60, 6, 3), 6),
    "glm:7,3,1": (make_synthetic_glm(7, 3, 1), 3),
}
EVALUATIONS = ("residual", "norms", "jacobian", "rows", "row_grad")


def iterate(name: str, seed: int, scale: float) -> np.ndarray:
    problem = PROBLEMS[name][0]
    rng = seeded_rng(seed)
    if name.startswith("brown"):
        return scale * (0.5 + rng.random(problem.n))
    return scale * rng.standard_normal(problem.n)


def evaluate(problem, what: str, x: np.ndarray, rows: np.ndarray, i: int, memo=None) -> np.ndarray:
    if what == "residual":
        return problem.residual(x, memo)
    if what == "norms":
        return problem.row_sq_norms_at(x, memo)
    if what == "jacobian":
        return problem.jacobian(x, None, memo)
    if what == "rows":
        return problem.jacobian(x, rows, memo)
    return problem.row_grad(i, x, memo)


def assert_same_bytes(got: np.ndarray, want: np.ndarray, what: str) -> None:
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape, what
    assert got.tobytes() == want.tobytes(), what


@st.composite
def cases(draw):
    name = draw(st.sampled_from(sorted(PROBLEMS)))
    problem, d = PROBLEMS[name]
    m = problem.m
    # any order, repeats allowed; the explicit pair puts a head and a tail
    # row in every set
    rows = draw(st.lists(st.integers(0, m - 1), min_size=0, max_size=2 * m))
    rows = np.array(rows + [draw(st.integers(0, d - 1)), draw(st.integers(d, m - 1))], dtype=np.intp)
    rows = rows[draw(st.permutations(range(rows.size)))]
    return {
        "name": name,
        "seeds": draw(st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=2, unique=True)),
        "scale": draw(st.sampled_from((0.1, 1.0, 5.0, 30.0))),
        "rows": rows,
        "i": draw(st.sampled_from((0, d - 1, d, m - 1, draw(st.integers(0, m - 1))))),
        "order": draw(st.permutations(EVALUATIONS)),
    }


@settings(max_examples=150, deadline=None)
@given(cases())
def test_memo_gives_the_memo_free_bytes(case):
    problem = PROBLEMS[case["name"]][0]
    x, y = (iterate(case["name"], seed, case["scale"]) for seed in case["seeds"])
    rows, i = case["rows"], case["i"]
    memo = IterateMemo()
    for what in case["order"]:
        assert_same_bytes(evaluate(problem, what, x, rows, i, memo), evaluate(problem, what, x, rows, i), what)
    # asked twice at the same iterate, the memo still gives the same bytes
    for what in case["order"]:
        assert_same_bytes(evaluate(problem, what, x, rows, i, memo), evaluate(problem, what, x, rows, i), what)
    # a memo filled at x, handed another array, gives that array's values:
    # first a different iterate, then a copy of x and x itself again
    for other in (y, x.copy(), x):
        for what in reversed(case["order"]):
            assert_same_bytes(
                evaluate(problem, what, other, rows, i, memo), evaluate(problem, what, other, rows, i), what
            )


def test_glm_memo_holds_no_sample_block():
    # the norms and the rows share a curvature vector, not a p x d block
    glm = make_synthetic_glm(200, 10, 8)
    x = seeded_rng(4).standard_normal(glm.n)
    memo = IterateMemo()
    for what in EVALUATIONS:
        evaluate(glm, what, x, np.array([glm.m - 1, 0, glm.d]), glm.m - 1, memo)
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
