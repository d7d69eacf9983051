"""The contract of every problem's evaluations, ``block_step`` routes and
recorded steps.

``PROBLEMS`` is the suite's one problem registry.  Each check below is
written once and runs on every problem in it (the memo, the gradients, the
row norms among them), and each route check on every route of a problem's
``block_step`` hook.  A problem with a hook lists it as a :class:`Hook`,
whose routes are generators of row sets; a new hook joins by adding its
problems with a ``Hook`` of its own.  The replay rebuilds each recorded set
and step of every greedy method from the recorded iterates.
"""

import contextlib
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import capped_kaczmarz.solvers as solvers_mod
from capped_kaczmarz.bench import resolve_problem
from capped_kaczmarz.core import HYBRID_KINDS, IterateMemo, MethodKind, SolveStatus, SolverConfig
from capped_kaczmarz.errors import DimensionMismatch
from capped_kaczmarz.numerics import min_norm_least_squares, seeded_rng
from capped_kaczmarz.problems import BrownProblem, GLMProblem, LinearProblem, make_synthetic_glm, synthetic_dataset
from capped_kaczmarz.selection import RowGeometry, SelectionResult
from capped_kaczmarz.solvers import block_projection, greedy_selection, kaczmarz_step, solve
from oracles import central_differences, glm_head

HYBRIDS = tuple(sorted(HYBRID_KINDS, key=lambda kind: kind.value))
BLOCKS = (MethodKind.DB_CNK, MethodKind.RB_CNK)
ALL = BLOCKS + HYBRIDS
SINGLE_ROW = (MethodKind.DR_CNK, MethodKind.RD_CNK)
GREEDY = SINGLE_ROW + BLOCKS


@dataclass(frozen=True)
class Route:
    """One way through a ``block_step`` hook: ``draw(problem, rng)`` gives a
    sorted block that takes it, or None where the problem has none; the
    step is within ``bound`` of ``np.linalg.lstsq``, relative, at each of
    ``scales``; the solves of ``methods`` take the route; ``breaks`` are the
    ways :attr:`Hook.breaking` makes its blocks declined."""

    draw: Callable
    bound: float
    scales: tuple
    methods: tuple
    breaks: tuple


@dataclass(frozen=True)
class Hook:
    """A ``block_step`` hook as the checks see it.  ``route_of(problem,
    rows)`` names a block's route; ``scaled(problem, scale, rng)`` is a copy
    whose blocks are ``scale`` times as large, with starts where that shows;
    ``breaking(problem, rows, how, rng)`` is a copy on which ``rows`` is
    declined the way ``how`` names, with the starts where it is, or None
    where ``rows`` cannot be broken that way; ``head(problem)`` is the head
    rows' Jacobian written out."""

    routes: dict
    route_of: Callable
    scaled: Callable
    breaking: Callable
    head: Callable


def size(rng, low, high):
    """A block size k, ``low <= k < high``: either end, or one between."""
    return rng.choice((low, high - 1, rng.integers(low, high)))


def glm_heads(glm, rng, low, high):
    return np.sort(rng.choice(glm.d, size=size(rng, low, high), replace=False))


def glm_tail(glm, rng, low, high):
    """A sorted block of tail rows (of head rows in :func:`glm_heads`) of a
    :func:`size` in ``[low, high)``, or None where there is none."""
    if low >= high:
        return None
    return glm.d + np.sort(rng.choice(glm.p, size=size(rng, low, high), replace=False))


def glm_mixed(glm, rng):
    return np.concatenate((glm_heads(glm, rng, 1, glm.d + 1), glm_tail(glm, rng, 1, min(glm.p, 20) + 1)))


def glm_route(glm, rows):
    if rows is glm.head_rows:
        return "whole-head-attr"
    if rows[0] >= glm.d:
        return "tail" if len(rows) < glm.d else "tail-woodbury"
    if rows[-1] < glm.d:
        return "whole-head-arange" if len(rows) == glm.d else "head-subset"
    return "mixed"


SIZES = (1e-3, 1.0, 10.0, 1e3)


def glm_scaled(glm, scale, rng):
    """``glm`` with its samples and ``lam`` times ``scale``: the same head,
    and tail parts ``scale`` times as large at the zero start and at starts
    whose w, of size 1 / scale, keep the margins."""
    starts = [size * np.concatenate((rng.standard_normal(glm.p), rng.standard_normal(glm.d) / scale)) for size in SIZES]
    return GLMProblem(scale * glm.A, glm.y, scale * glm.lam), [np.zeros(glm.n)] + starts


# the size of two rows' equal dense parts: past the guard but finite (1e4,
# cond(J_S) >= 1e4 at the zero start's curvature of 1/4), or numerically
# dependent (1e9, where 1 + ||P_h||^2 rounds the unit entries away)
BREAKING_SIZE = {"guard": 1e4, "dependent": 1e9}


def first(indices):
    return indices[0] if indices.size else None


def glm_breaking(glm, rows, how, rng):
    """``how`` is a kind of break and the part of the block it is in, head,
    tail or (for an overflow) both.  ``overflow``: one sample entry of 1e200
    in the block's first head row or first tail sample or both, its other
    index outside the block, so no other part overflows.  ``guard`` and
    ``dependent``: two of the part's rows get equal dense parts of
    :data:`BREAKING_SIZE`.  The starts are the zero one and a random one
    whose w keeps the broken tail rows' curvature finite and nonzero."""
    kind, part = how.split("-")
    A, x = glm.A.copy(), rng.standard_normal(glm.n)
    w = x[glm.p:]
    heads, samples = rows[rows < glm.d], rows[rows >= glm.d] - glm.d
    if kind == "overflow":
        f = first(heads if part != "tail" else np.setdiff1d(np.arange(glm.d), heads))
        s = first(samples if part != "head" else np.setdiff1d(np.arange(glm.p), samples))
        if f is None or s is None:
            return None
        A[f, s] = 1e200
        # no 1e200 w_f in sample s's margin
        w[f] = 0.0
    elif part == "head" and heads.size >= 2:
        A[heads[0]] = A[heads[1]] = BREAKING_SIZE[kind] * A[heads[0]]
    elif part == "tail" and samples.size >= 2:
        a = A[:, samples[0]] = A[:, samples[1]] = BREAKING_SIZE[kind] * A[:, samples[0]]
        # w orthogonal to the two samples keeps their curvature near 1/4,
        # but the same in every bit, as two dependent rows need, only at 0
        if kind == "dependent":
            return GLMProblem(A, glm.y, glm.lam), [np.zeros(glm.n)]
        w -= (a @ w) / (a @ a) * a
    else:
        return None
    return GLMProblem(A, glm.y, glm.lam), [np.zeros(glm.n), x]


HEAD_BREAKS = ("guard-head", "overflow-head", "dependent-head")
TAIL_BREAKS = ("guard-tail", "overflow-tail", "dependent-tail")
MIXED_BREAKS = HEAD_BREAKS + TAIL_BREAKS + ("overflow-both",)
TAIL_SCALES = (1e-3, 1.0, 10.0, 100.0)
GLM = Hook(
    routes={
        # the whole head as the array a hybrid passes, and as a caller's own
        "whole-head-attr": Route(lambda glm, rng: glm.head_rows, 1e-12, (1.0,), HYBRIDS, HEAD_BREAKS),
        "whole-head-arange": Route(lambda glm, rng: np.arange(glm.d), 1e-12, (1.0,), HYBRIDS, HEAD_BREAKS),
        "head-subset": Route(lambda glm, rng: glm_heads(glm, rng, 1, glm.d), 1e-12, (1.0,), BLOCKS, HEAD_BREAKS),
        # k < d tail rows, and k >= d through the Woodbury form (k <= 4d
        # keeps a block at scale 100 within the guard)
        "tail": Route(
            lambda glm, rng: glm_tail(glm, rng, 1, min(glm.d, glm.p + 1)), 1e-10, TAIL_SCALES, ALL, TAIL_BREAKS
        ),
        "tail-woodbury": Route(
            lambda glm, rng: glm_tail(glm, rng, glm.d, min(glm.p, 4 * glm.d) + 1), 1e-10, TAIL_SCALES, ALL, TAIL_BREAKS
        ),
        "mixed": Route(lambda glm, rng: glm_mixed(glm, rng), 1e-12, (1.0,), BLOCKS, MIXED_BREAKS),
    },
    route_of=glm_route,
    scaled=glm_scaled,
    breaking=glm_breaking,
    head=glm_head,
)

PROBLEMS = {
    "brown:2": None,
    "brown:7": None,
    "brown:50": None,
    "linear:9,4,14": None,
    "glm:synthetic:60,6,3": GLM,
    "glm:synthetic:200,10,8": GLM,
    # more features than samples: a head block of k >= p rows takes the
    # Woodbury form
    "glm:synthetic:4,9,2": GLM,
    # the smallest shapes with d < p, d > p and d = p
    "glm:synthetic:7,3,1": GLM,
    "glm:synthetic:5,8,1": GLM,
    "glm:synthetic:4,4,2": GLM,
}
HOOKED = [selector for selector, hook in PROBLEMS.items() if hook]
# the row sets each route check draws, from seeded_rng(0 .. DRAWS - 1)
DRAWS = 6


def problem_at(selector):
    return resolve_problem(selector)[0]


# the cells whose solves are replayed, each with every greedy method that
# applies: the hybrids need head rows
REPLAYED = [
    pytest.param(selector, method, id=f"{selector}-{method.value}")
    for selector in ("brown:7", "brown:50", "linear:9,4,14", "glm:synthetic:60,6,3", "glm:synthetic:200,10,8")
    for method in GREEDY + (HYBRIDS if problem_at(selector).d else ())
]

ROUTED = [
    pytest.param(selector, name, id=f"{selector}-{name}")
    for selector in HOOKED
    for name, route in PROBLEMS[selector].routes.items()
    if route.draw(problem_at(selector), seeded_rng(0)) is not None
]


def draws(problem, route):
    return [route.draw(problem, seeded_rng(seed)) for seed in range(DRAWS)]


def starts(problem, rng, per_scale=3):
    """The zero start and ``per_scale`` random points of each growing size;
    at 30 most GLM margins exceed 40 in magnitude, where a margin that
    rounds differently from the full matvec shows in the last bits."""
    scales = np.repeat((0.1, 1.0, 5.0, 30.0), per_scale)
    return [np.zeros(problem.n)] + [scale * rng.standard_normal(problem.n) for scale in scales]


def index_sets(problem, rng) -> list[np.ndarray]:
    """Head-only (sorted, unsorted and repeated), tail-only, mixed,
    unsorted, single-row, repeated, empty and all-rows index sets, with the
    head rows ``:d``, or on a problem with none the last row alone as tail."""
    m, d = problem.m, problem.d or problem.m - 1
    head = np.arange(d)
    tail = np.arange(d, m)
    return [
        head,
        rng.permutation(head),
        np.array([d - 1, 0, d - 1]),
        np.array([0]),
        np.array([], dtype=np.intp),
        tail,
        np.array([0, m - 1]),
        rng.permutation(m)[: max(2, m // 3)],
        np.array([m - 1, d, 0, m // 2]),
        # tail rows first, then head rows, neither sorted
        np.array([m - 1, d - 1, d, 0]),
        np.concatenate((rng.permutation(tail)[:3], rng.permutation(head))),
        np.array([m - 1]),
        np.array([d]),
        np.array([m // 2, m // 2]),
        np.arange(m),
        rng.permutation(m),
    ]


EVALUATIONS = ("residual", "norms", "jacobian", "rows", "row_grad")


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
def memo_cases(draw, problem):
    """Two iterate seeds, a scale, rows in any order with repeats, a row for
    ``row_grad`` and an order of the evaluations.  The head rows are ``:d``,
    or on a problem with none every row but the last (Brown's product row)."""
    m, d = problem.m, problem.d or problem.m - 1
    # any order, repeats allowed; the explicit pair puts a head and a tail
    # row in every set
    rows = draw(st.lists(st.integers(0, m - 1), min_size=0, max_size=2 * m))
    rows = np.array(rows + [draw(st.integers(0, d - 1)), draw(st.integers(d, m - 1))], dtype=np.intp)
    rows = rows[draw(st.permutations(range(rows.size)))]
    return {
        "seeds": draw(st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=2, unique=True)),
        "scale": draw(st.sampled_from((0.1, 1.0, 5.0, 30.0))),
        "rows": rows,
        "i": draw(st.sampled_from((0, d - 1, d, m - 1, draw(st.integers(0, m - 1))))),
        "order": draw(st.permutations(EVALUATIONS)),
    }


@pytest.mark.parametrize("selector", PROBLEMS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_memo_gives_the_memo_free_bytes(selector, data):
    problem = problem_at(selector)
    case = data.draw(memo_cases(problem))
    x, y = (case["scale"] * seeded_rng(seed).standard_normal(problem.n) for seed in case["seeds"])
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


# (rtol, atol) of the central differences, by the kind of problem
DIFFERENCE_TOLERANCE = {
    "brown": (1e-6, 1e-8),
    "linear": (1e-6, 1e-8),
    "glm": (1e-5, 1e-7),
}


@pytest.mark.parametrize("selector", PROBLEMS)
def test_jacobian_matches_central_differences(selector):
    problem = problem_at(selector)
    rtol, atol = DIFFERENCE_TOLERANCE[selector.split(":")[0]]
    for x in starts(problem, seeded_rng(15)):
        assert np.allclose(problem.jacobian(x), central_differences(problem, x), rtol=rtol, atol=atol), x


@pytest.mark.parametrize("selector", PROBLEMS)
def test_row_norms_are_the_jacobian_row_sums(selector):
    # bit for bit on every row of a problem without head rows and on the
    # GLM head rows; a GLM tail norm, 1 + c^2 ||a_s||^2, rounds differently
    # from summing the built row's squares, by a few units in the last
    # place at most
    problem = problem_at(selector)
    exact = problem.d or problem.m
    for x in starts(problem, seeded_rng(16), per_scale=10):
        J = problem.jacobian(x)
        from_rows = np.einsum("ij,ij->i", J, J)
        norms = problem.row_sq_norms_at(x)
        assert norms[:exact].tobytes() == from_rows[:exact].tobytes()
        assert np.all(np.abs(norms - from_rows) <= 1e-15 * from_rows)


def assert_row_grad_is_the_jacobian_row(problem, x):
    """``row_grad(i, x)`` is ``jacobian(x, [i])[0]`` and ``jacobian(x)[i]``
    bit for bit (with a memo, the memo check gives the same bytes)."""
    full = problem.jacobian(x)
    for i in range(problem.m):
        want = full[i].tobytes()
        assert problem.row_grad(i, x).tobytes() == problem.jacobian(x, [i])[0].tobytes() == want, (i, x)


@pytest.mark.parametrize("selector", PROBLEMS)
def test_row_grad_is_the_jacobian_row_bit_for_bit(selector):
    problem = problem_at(selector)
    for x in starts(problem, seeded_rng(14)):
        assert_row_grad_is_the_jacobian_row(problem, x)


def test_glm_row_grad_is_the_jacobian_row_at_special_margins():
    # one feature of value 1 makes the margin of sample s exactly y_s * w,
    # so the special margins, |z| > 40 and NaN included, are hit as given
    glm = GLMProblem(np.ones((1, 2)), np.array([1.0, -1.0]), 0.5)
    rng = seeded_rng(14)
    special = [0.0, -0.0, 1e-300, 41.0, -41.0, 745.0, -745.0, 800.0, -800.0, np.inf, -np.inf, np.nan, -np.nan]
    for w in np.concatenate((special, 40.0 * rng.standard_normal(1500), np.ldexp(1.0, rng.integers(-1074, 1000, 300)))):
        assert_row_grad_is_the_jacobian_row(glm, np.array([0.3, -0.7, w]))


@pytest.mark.parametrize("selector", PROBLEMS)
def test_jacobian_rows_are_the_jacobian_s_rows_bit_for_bit(selector):
    problem, hook = problem_at(selector), PROBLEMS[selector]
    rng = seeded_rng(11)
    for x in starts(problem, rng):
        full = problem.jacobian(x)
        for rows in index_sets(problem, rng):
            got = problem.jacobian(x, rows)
            assert got.shape == (len(rows), problem.n)
            assert got.tobytes() == full[rows].tobytes(), rows
        if hook:
            assert full[: problem.d].tobytes() == hook.head(problem).tobytes()


@pytest.mark.parametrize("selector", PROBLEMS)
def test_rows_that_are_not_integer_rows_of_the_system_are_refused(selector):
    # numpy would read a negative row from the end, a float below m as a
    # row, and True as row 1, or as a new axis in row_grad
    problem, hook = problem_at(selector), PROBLEMS[selector]
    m = problem.m
    x = 0.5 + seeded_rng(13).random(problem.n)
    for i in (-1, m, 1.5, m - 0.5, float(m - 1), np.float64(1.0), np.array(1.0), True, False, np.True_):
        with pytest.raises(IndexError):
            problem.row_grad(i, x)
    for i in (np.int64(m - 1), np.int32(0), np.uint8(1), np.array(1)):
        assert problem.row_grad(i, x).tobytes() == problem.row_grad(int(i), x).tobytes()
    for rows in ([-1], [m], [0, -1, 2], [m - 1, m, 0]):
        with pytest.raises(IndexError):
            problem.jacobian(x, rows)
    for rows in (np.array([1.9]), [1.0, 3.0], np.array([True, False]), [False]):
        with pytest.raises(IndexError, match="integers"):
            problem.jacobian(x, rows)
    # an empty row list is still rows
    for rows in ([], np.array([], dtype=float), np.array([1, m - 1], dtype=np.uint8), (0, m - 1)):
        assert problem.jacobian(x, rows).tobytes() == problem.jacobian(x)[[*rows]].tobytes()
    if hook:
        r = problem.residual(x)
        for rows in (np.array([1.5, 3.7]), [1.0, 8.0], np.array([1.0, 3.0, 7.0, 9.0]), np.array([True, True])):
            with pytest.raises(IndexError, match="integers"):
                problem.block_step(x, rows, r[: len(rows)])


# the forms a caller may pass block rows in: a list, or an integer array
# of numpy's index type or of another
ROW_FORMS = {
    "list": list,
    "intp": np.array,
    "int32": partial(np.array, dtype=np.int32),
    "int16": partial(np.array, dtype=np.int16),
}


@pytest.mark.parametrize("form", ROW_FORMS)
@pytest.mark.parametrize("selector", HOOKED)
def test_block_rows_must_be_strictly_increasing_rows_of_the_system(selector, form):
    problem, as_rows = problem_at(selector), ROW_FORMS[form]
    m, d = problem.m, problem.d
    x = np.zeros(problem.n)
    for rows in ([-1, 0], [-3, d], [d, m], [d, m + 5]):
        with pytest.raises(IndexError):
            problem.block_step(x, as_rows(rows), np.ones(2))
    for rows in ([1, 0], [0, 0], [0, 2, 1], [2, -1], [d, d - 1], [d + 1, d], [d, d], [d, d + 2, d + 1]):
        with pytest.raises(ValueError):
            problem.block_step(x, as_rows(rows), np.ones(len(rows)))


def evaluations(problem, hook, x):
    """Every array the problem's evaluations return at ``x`` without a memo,
    the hook's steps on one block of each route included."""
    rng = seeded_rng(17)
    r = problem.residual(x)
    out = [r, problem.row_sq_norms_at(x), problem.jacobian(x)]
    out += [problem.row_grad(i, x) for i in range(problem.m)]
    out += [problem.jacobian(x, rows) for rows in index_sets(problem, rng)]
    for route in hook.routes.values() if hook else ():
        rows = route.draw(problem, rng)
        if rows is not None:
            out.append(problem.block_step(x, rows, r[rows]))
    return [a for a in out if a is not None]


@pytest.mark.parametrize("selector", PROBLEMS)
def test_no_evaluation_hands_out_a_writable_alias(selector):
    # a write into a returned array either raises (a read-only view of the
    # problem's data) or changes no later evaluation
    problem, hook = problem_at(selector), PROBLEMS[selector]
    x = seeded_rng(18).standard_normal(problem.n)
    before = [a.tobytes() for a in evaluations(problem, hook, x)]
    for a in evaluations(problem, hook, x):
        if a.flags.writeable:
            a[...] = 7.0
        else:
            with pytest.raises(ValueError):
                a[...] = 7.0
    assert [a.tobytes() for a in evaluations(problem, hook, x)] == before


def test_a_write_into_the_caller_s_arrays_changes_no_evaluation():
    # a problem keeps read-only copies of the arrays it is built from, its
    # known root included, which a solve's error column reads
    dataset = synthetic_dataset(60, 6, 3)
    A, b, root = np.eye(2), np.ones(2), np.array([1.0, 2.0])
    samples, labels = dataset.to_dense(), dataset.labels.copy()
    built = [(LinearProblem(A, b), None), (GLMProblem(samples, labels), GLM)]
    rooted = LinearProblem(np.eye(2), root.copy(), known_root=root)
    config = SolverConfig(method="nrk", record_error=True)
    xs = [seeded_rng(19).standard_normal(problem.n) for problem, _ in built]
    before = [[a.tobytes() for a in evaluations(problem, hook, x)] for (problem, hook), x in zip(built, xs)]
    errors = solve(rooted, np.zeros(2), config).records.error_sq.tolist()
    A[0, 0] = 3.0
    b[1] = 5.0
    root[0] = 5.0
    samples[0, 0] += 1.0
    labels *= -1.0
    after = [[a.tobytes() for a in evaluations(problem, hook, x)] for (problem, hook), x in zip(built, xs)]
    assert after == before
    assert solve(rooted, np.zeros(2), config).records.error_sq.tolist() == errors
    (linear, _), (glm, _) = built
    for kept in (linear.A, linear.b, glm.A, glm.y, rooted.known_root, BrownProblem(4).known_root):
        with pytest.raises(ValueError):
            kept[0] = 7.0
    # a root is n finite entries, neither broadcast nor left to fail in a solve
    for root in ([1.0], [1.0, 2.0, 3.0], [[1.0, 2.0]], [np.nan, 2.0], [1.0, np.inf]):
        with pytest.raises(DimensionMismatch):
            LinearProblem(np.eye(2), np.ones(2), known_root=root)


def replay(problem, hook, method, mode, x, rec):
    """The iterate after a solve's step from ``x``, checked against record
    ``rec``, and the routes its blocks took.  A hybrid first steps onto its
    head, given as ``head_rows`` and as a fresh ``arange(d)``, which must
    give the same bytes, and selects among its tail rows at the post-head
    iterate, where a tail that is exactly solved records no row.  A block
    method records the whole replayed set, a single-row method its size and
    the drawn row, a member.  One row takes its projection, a block the
    hook's step on a hooked problem and least squares on any other."""
    routes = []
    lo = 0
    if method in HYBRID_KINDS:
        heads = (problem.head_rows, np.arange(problem.d))
        steps = [problem.block_step(x, rows, problem.residual(x)[: problem.d]) for rows in heads]
        assert steps[0].tobytes() == steps[1].tobytes()
        x = x - steps[0]
        routes += [hook.route_of(problem, rows) for rows in heads]
        lo = problem.d
    r = problem.residual(x)
    g = RowGeometry.from_state(r[lo:], problem.row_sq_norms_at(x)[lo:])
    if g.residual_sq == 0.0:
        assert (rec.selected, rec.set_size) == ((), 0), rec.k
        return x, routes
    chosen = greedy_selection(g, method, mode).indices + lo
    assert rec.set_size == len(chosen), rec.k
    if method in SINGLE_ROW:
        (drawn,) = rec.selected
        assert drawn in chosen, rec.k
    else:
        assert rec.selected == tuple(chosen.tolist()), rec.k
    if len(rec.selected) == 1:
        (i,) = rec.selected
        return kaczmarz_step(x, r[i], problem.row_grad(i, x)), routes
    rows = np.array(rec.selected, dtype=np.intp)
    if hook:
        routes.append(hook.route_of(problem, rows))
        step = problem.block_step(x, rows, r[rows])
        assert step is not None, rec.k
    else:
        step = min_norm_least_squares(problem.jacobian(x, rows), r[rows])
    return x - step, routes


@pytest.mark.parametrize("selector, method", REPLAYED)
def test_replayed_steps_are_the_solve_steps(selector, method):
    # every record's ||f||^2, set and step replay bit for bit, and every
    # route that lists the method is taken
    problem, x0 = resolve_problem(selector)
    hook = PROBLEMS[selector]
    config = SolverConfig(method=method, seed=0, max_iter=300, record_iterates=True)
    trace = solve(problem, x0, config)
    assert len(trace.iterates) == len(trace.records)
    for rec, x in zip(trace.records, trace.iterates):
        r = problem.residual(x)
        assert rec.residual_sq == float(r.dot(r)), rec.k
    taken = set()
    for rec, x, x_next in zip(trace.records, trace.iterates, trace.iterates[1:]):
        stepped, routes = replay(problem, hook, method, config.threshold, x, rec)
        assert stepped.tobytes() == x_next.tobytes(), rec.k
        taken.update(routes)
    if hook:
        assert taken >= {name for name, route in hook.routes.items() if method in route.methods}


@pytest.mark.parametrize("selector, route", ROUTED)
def test_step_is_within_its_bound_of_lstsq(selector, route):
    # each row form gives the same bytes; head_rows as a list gives arange(d)
    problem, hook = problem_at(selector), PROBLEMS[selector]
    spec = hook.routes[route]
    rng = seeded_rng(41)
    for scale in spec.scales:
        scaled, xs = hook.scaled(problem, scale, rng)
        for x in xs:
            r = scaled.residual(x)
            for rows in draws(scaled, spec):
                assert hook.route_of(scaled, rows) == route
                for rhs in (r[rows], rng.standard_normal(len(rows))):
                    step = scaled.block_step(x, rows, rhs)
                    assert step is not None, (scale, rows)
                    oracle = np.linalg.lstsq(scaled.jacobian(x, rows), rhs, rcond=None)[0]
                    assert np.linalg.norm(step - oracle) <= spec.bound * np.linalg.norm(oracle), (scale, rows)
                    for as_rows in ROW_FORMS.values():
                        assert scaled.block_step(x, as_rows(rows.tolist()), rhs).tobytes() == step.tobytes()


# a caller that turns warnings into errors, and one whose error state raises
STRICT = [
    pytest.param(contextlib.nullcontext, marks=pytest.mark.filterwarnings("error"), id="warnings-error"),
    pytest.param(lambda: np.errstate(over="raise", invalid="raise", divide="raise"), id="errstate-raise"),
]


def non_finite_rhs(k):
    """An inf, a -inf or a NaN at each of k positions, and inf and -inf at
    the two ends."""
    cases = np.ones((3 * k + 1, k))
    for j, bad in enumerate((np.inf, -np.inf, np.nan)):
        cases[j * k + np.arange(k), np.arange(k)] = bad
    cases[-1, 0], cases[-1, -1] = np.inf, -np.inf
    return cases


@pytest.mark.parametrize("strict", STRICT)
@pytest.mark.parametrize("selector, route", ROUTED)
def test_a_broken_block_is_declined_quietly(selector, route, strict):
    # a non-finite rhs is declined before any arithmetic, so with no
    # underflow either; a block past the guard, an overflowing one and a
    # dependent one by the guard, and one past the guard then goes to least
    # squares on its Jacobian rows, bit for bit.  The rhs give the two
    # broken rows of a head part equal and opposite values.
    problem, hook = problem_at(selector), PROBLEMS[selector]
    spec = hook.routes[route]
    broken = set()
    for seed, rows in enumerate(draws(problem, spec)):
        for x in (np.zeros(problem.n), seeded_rng(49).standard_normal(problem.n)):
            for rhs in non_finite_rhs(len(rows)):
                with strict(), np.errstate(under="raise"):
                    assert problem.block_step(x, rows, rhs) is None, (rows, rhs)
        for how in spec.breaks:
            made = hook.breaking(problem, rows, how, seeded_rng(47))
            if made is None:
                continue
            variant, xs = made
            block = spec.draw(variant, seeded_rng(seed))
            rng = seeded_rng(seed)
            k = len(block)
            for x in xs:
                J = variant.jacobian(x, block)
                if how.startswith("dependent"):  # two equal rows of the Gram matrix
                    assert len({row.tobytes() for row in J @ J.T}) < k
                for rhs in (np.resize([1.0, 1.0, 0.0], k), np.resize([1.0, -1.0, 0.5], k), rng.standard_normal(k)):
                    with strict():
                        assert variant.block_step(x, block, rhs) is None, (how, block, x)
                        if how.startswith("guard"):
                            solved = x - min_norm_least_squares(J, rhs)
                            assert block_projection(variant, x, block, rhs, None).tobytes() == solved.tobytes()
            broken.add(how)
    assert broken == set(spec.breaks)


@pytest.mark.parametrize("selector", [selector for selector in HOOKED if PROBLEMS[selector] is GLM])
def test_only_a_whole_head_block_builds_the_head_inverse(selector):
    glm = problem_at(selector)
    x = seeded_rng(5).standard_normal(glm.n)
    r = glm.residual(x)
    for rows in (route.draw(glm, seeded_rng(6)) for name, route in GLM.routes.items() if "whole" not in name):
        if rows is not None:
            glm.block_step(x, rows, r[rows])
    assert "_head_inverse" not in vars(glm)
    glm.block_step(x, np.arange(glm.d), r[: glm.d])
    assert glm._head_inverse.shape == (glm.d, glm.d)


def test_every_head_step_gets_the_problem_s_one_head_array():
    # the head rows 0..d-1 are built once, read-only, and a hybrid hands
    # that array to every head step
    glm = make_synthetic_glm(60, 6, 3)
    head, closed_form, passed = glm.head_rows, glm.block_step, []
    assert head is glm.head_rows and head.tolist() == list(range(glm.d)) and not head.flags.writeable

    def spy(x, rows, rhs, memo=None):
        passed.append(rows)
        return closed_form(x, rows, rhs, memo)

    glm.block_step = spy
    trace = solve(glm, np.zeros(glm.n), SolverConfig(method=MethodKind.GLM_HYBRID_DB, seed=0, max_iter=5))
    heads = [rows for rows in passed if rows[0] < glm.d and len(rows) == glm.d]
    assert trace.total_iterations == len(heads) == 5
    assert all(rows is head for rows in heads)


def test_an_overflowing_feature_leaves_the_head_gram_uninverted():
    # one sample entry of 1e200 overflows its head row's squared norm to
    # inf, past the guard: no inverse is formed, a head block with that row
    # is declined, and one without it is still solved
    base = make_synthetic_glm(60, 6, 3)
    A = base.A.copy()
    A[2, 5] = 1e200
    traces = [
        solve(GLMProblem(A, base.y), np.zeros(base.n), SolverConfig(method=method, seed=0, max_iter=50))
        for method in (MethodKind.GLM_HYBRID_DB, MethodKind.RB_CNK)
    ]
    assert [(trace.status, trace.total_iterations) for trace in traces] == [
        (SolveStatus.ITERATION_CAP_REACHED, 50), (SolveStatus.NUMERICAL_BREAKDOWN, 3)
    ]
    glm = GLMProblem(A, base.y)
    x = seeded_rng(3).standard_normal(glm.n)
    rhs = seeded_rng(4).standard_normal(glm.d)
    assert glm.block_step(x, np.arange(glm.d), rhs) is None
    assert glm._head_inverse is None
    rows = np.array([0, 3, 5])
    step = glm.block_step(x, rows, rhs[rows])
    oracle = np.linalg.lstsq(glm_head(glm)[rows], rhs[rows], rcond=None)[0]
    assert np.linalg.norm(step - oracle) <= 1e-12 * np.linalg.norm(oracle)


def test_a_solve_takes_least_squares_on_a_block_past_the_guard():
    # samples times 1e3 at the zero start: every curvature is 1/4, so
    # db-cnk's first set, every tail row, has 1 + ||B||_F^2 far above 1e6
    base = make_synthetic_glm(200, 10, 8)
    glm = GLMProblem(1e3 * base.A, base.y, base.lam)
    x0 = np.zeros(glm.n)
    r = glm.residual(x0)
    trace = solve(glm, x0, SolverConfig(method=MethodKind.DB_CNK, seed=0, max_iter=1))
    rows = np.array(trace.records[0].selected, dtype=np.intp)
    assert rows.size >= 2 and rows[0] >= glm.d
    J = glm.jacobian(x0, rows)
    assert 1.0 + (np.sum(J * J) - rows.size) > 1e6
    assert glm.block_step(x0, rows, r[rows]) is None
    assert trace.final_x.tobytes() == (x0 - min_norm_least_squares(J, r[rows])).tobytes()


def test_a_non_finite_rhs_in_a_hybrid_breaks_down(monkeypatch):
    # a NaN in the post-head residual reaches the tail block through a
    # fixed selection; the closed-form step takes the head and declines
    # that block, and least squares rejects it, so the iteration is
    # dropped as a breakdown
    glm = make_synthetic_glm(60, 6, 3)
    residual, closed_form = glm.residual, glm.block_step
    declined = []

    def poisoned(x, memo=None):
        r = residual(x, memo)
        if len(declined) == 1:  # after the head step
            r = r.copy()
            r[glm.d + 1] = np.nan
        return r

    def logged(x, rows, rhs, memo=None):
        step = closed_form(x, rows, rhs, memo)
        declined.append(step is None)
        return step

    fixed = SelectionResult(indices=np.array([0, 1, 2]), threshold=0.0, weights=np.ones(3))
    monkeypatch.setattr(solvers_mod, "greedy_selection", lambda g, kind, mode: fixed)
    glm.residual, glm.block_step = poisoned, logged
    x0 = np.zeros(glm.n)
    trace = solve(glm, x0, SolverConfig(method=MethodKind.GLM_HYBRID_DB, seed=0, max_iter=5))
    assert trace.status is SolveStatus.NUMERICAL_BREAKDOWN
    assert declined == [False, True]
    assert trace.total_iterations == 0
    assert trace.final_x.tobytes() == x0.tobytes()
