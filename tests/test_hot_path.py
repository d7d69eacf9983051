"""The per-iteration path calls numpy's ufunc methods directly.

In numpy 2.x, ``ndarray.sum/prod/all/any`` and ``max/min(initial=...)``
reach their ufunc through the Python wrappers in ``numpy/_core/_methods.py``,
the functions ``np.sum``, ``np.partition`` and the like through those in
``numpy/_core/fromnumeric.py``, and ``np.einsum`` its C routine ``c_einsum``
through the one in ``numpy/_core/einsumfunc.py``: one more Python call per
reduction, which the single-row iterations cannot hide behind flops.  The
package calls ``np.add.reduce``, ``np.multiply.reduce``,
``np.logical_and.reduce``, ``ndarray.partition``, ``c_einsum`` and the like
instead, which are the calls those wrappers make, so the bits are the same.
The guard below fails if a wrapper in any of the three files is called from
a package frame during a solve; numpy's own internals (``linalg``) may
still use them.
The bit-identity tests pin the rewritten Brown kernels against the array
method forms they replaced, ``c_einsum`` against ``np.einsum``, and
``ndarray.dot``, which the per-iteration vector dots call in place of ``@``
to skip the matmul ufunc's dispatch, against ``@``.  A per-iteration count
pins the ufunc reductions a Brown solve makes and its one ``np.errstate``
(the quiet scope entered once around the whole loop), so a reduction or an
errstate put back on the loop fails a test; there a capped draw
accumulates its weights only from a set of two or more rows.  On the
GLM, every numpy function and method that a steady ``db-cnk`` or
``glm-hybrid-db`` iteration calls is pinned per route (a one-row step, a
block of head rows, of tail rows or of both, the hybrid's head), so a
wrapper, a reduction or a scalar read put back on the block path fails.  The residual
rule's all-zero weight test is pinned against the ``np.logical_or.reduce``
it replaced.

Four more checks watch the files of ``numpy/linalg``: building a GLM
calls none of them; once a hybrid's first head block has built the inverse
of the head's Gram matrix, a whole-head block step calls none either; a
block of head and tail rows calls none, nor ``problem.jacobian``; and each
block iteration of a linear ``db-cnk`` solve calls ``lstsq`` once and
``eigh`` never.  The LAPACK gufuncs that the GLM's block steps call in
place of ``np.linalg.solve`` and ``np.linalg.inv`` are pinned against
those functions byte for byte.
"""

import itertools
import os
import sys
from collections import Counter

import numpy as np
import pytest
from numpy._core import _methods, einsumfunc, fromnumeric
from numpy._core.multiarray import c_einsum

import capped_kaczmarz
from capped_kaczmarz.bench import resolve_problem
from capped_kaczmarz.core import MethodKind, SolverConfig, TraceRecords
from capped_kaczmarz.errors import AllWeightsZero
from capped_kaczmarz.numerics import seeded_rng
from capped_kaczmarz.problems import BrownProblem, _lapack_inv, _lapack_solve1, _leave_one_out_products
from capped_kaczmarz.selection import RowGeometry, build_residual_set
from capped_kaczmarz.solvers import block_projection, solve

PACKAGE_DIR = os.path.dirname(os.path.abspath(capped_kaczmarz.__file__))
WRAPPER_FILES = {_methods.__file__, einsumfunc.__file__, fromnumeric.__file__}


def wrapper_calls_from_package(run):
    """``run()``'s result, and ``(wrapper, caller, line)`` for every
    ``_methods.py``, ``einsumfunc.py`` or ``fromnumeric.py`` function that a
    package frame calls while it runs."""
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename in WRAPPER_FILES:
            caller = frame.f_back
            if caller is not None and os.path.dirname(os.path.abspath(caller.f_code.co_filename)) == PACKAGE_DIR:
                calls.append((frame.f_code.co_name, caller.f_code.co_name, caller.f_lineno))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(previous)
    return result, calls


def test_the_guard_reports_a_wrapper_call_from_a_package_frame():
    # code compiled under a package file name runs in a frame the guard
    # counts as the package's; a call from this test module is not counted
    x = np.ones(3)
    for expression, wrapper in (("x.sum()", "_sum"), ("np.sum(x)", "sum"), ("np.einsum('i,i->', x, x)", "einsum")):
        code = compile(expression, os.path.join(PACKAGE_DIR, "solvers.py"), "eval")
        _, calls = wrapper_calls_from_package(lambda: eval(code, {"np": np, "x": x}))
        # a fromnumeric function's dispatcher is reported too
        assert wrapper in [name for name, _, _ in calls], expression
        assert wrapper_calls_from_package(lambda: eval(expression, {"np": np, "x": x})) == (3.0, [])


def assert_no_wrapper_call(selector, method, **config):
    problem, x0 = resolve_problem(selector)
    config = SolverConfig(method=method, seed=0, max_iter=300, **config)
    trace, calls = wrapper_calls_from_package(lambda: solve(problem, x0, config))
    assert trace.total_iterations > 0
    assert calls == []


@pytest.mark.parametrize(
    "selector, method",
    [
        ("brown:50", MethodKind.NRK),
        ("brown:50", MethodKind.DR_CNK),
        ("brown:50", MethodKind.RD_CNK),
        # the distance rule's blow-up: the median path at every iteration
        ("brown:20", MethodKind.DR_CNK),
        ("glm:synthetic:60,6,3", MethodKind.DB_CNK),
        ("glm:synthetic:60,6,3", MethodKind.RB_CNK),
        ("glm:synthetic:60,6,3", MethodKind.GLM_HYBRID_DB),
        ("linear:300,40,2", MethodKind.DR_CNK),
        ("linear:300,40,2", MethodKind.DB_CNK),
    ],
)
def test_no_numpy_method_wrapper_on_the_solve_path(selector, method):
    assert_no_wrapper_call(selector, method)


def test_no_numpy_method_wrapper_when_the_error_is_recorded():
    assert_no_wrapper_call("linear:300,40,2", MethodKind.DR_CNK, record_error=True)


LINALG_DIR = os.path.dirname(os.path.abspath(np.linalg.__file__))


def linalg_calls(run):
    """``run()``'s result, and the name of every function in a
    ``numpy/linalg`` file that is called while it runs."""
    calls = []

    def profile(frame, event, arg):
        if event == "call" and os.path.dirname(os.path.abspath(frame.f_code.co_filename)) == LINALG_DIR:
            calls.append(frame.f_code.co_name)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(previous)
    return result, calls


def test_building_a_glm_calls_no_linalg():
    # the head's Gram inverse waits for the first whole-head block, so the
    # set-up of a problem factors nothing
    (problem, _), calls = linalg_calls(lambda: resolve_problem("glm:synthetic:200,10,8"))
    assert problem.d == 10
    assert calls == []


def test_a_whole_head_step_after_the_first_iteration_calls_no_linalg():
    # the first hybrid iteration builds the head's Gram inverse; every
    # later whole-head block is one product with the inverse
    glm, x0 = resolve_problem("glm:synthetic:200,10,8")
    head = np.arange(glm.d)
    _, first = linalg_calls(lambda: solve(glm, x0, SolverConfig(method=MethodKind.GLM_HYBRID_DB, seed=0, max_iter=1)))
    assert "inv" in first
    x = seeded_rng(5).standard_normal(glm.n)
    rhs = glm.residual(x)[: glm.d]
    step, calls = linalg_calls(lambda: glm.block_step(x, head, rhs))
    assert step is not None
    assert calls == []


def test_a_mixed_block_step_calls_no_jacobian_and_no_linalg(monkeypatch):
    # a block of head and tail rows takes its Gram system from the head and
    # tail parts, through the LAPACK gufunc, with no Jacobian rows
    glm, _ = resolve_problem("glm:synthetic:200,10,8")

    def no_jacobian(*args, **kwargs):
        raise AssertionError("a mixed block built Jacobian rows")

    monkeypatch.setattr(glm, "jacobian", no_jacobian)
    x = seeded_rng(6).standard_normal(glm.n)
    rows = np.array([1, 4, glm.d, glm.d + 7, glm.m - 1])
    rhs = glm.residual(x)[rows]
    x_next, calls = linalg_calls(lambda: block_projection(glm, x, rows, rhs, None))
    assert np.logical_and.reduce(np.isfinite(x_next)) and not np.array_equal(x_next, x)
    assert calls == []


@pytest.mark.parametrize("selector", ["glm:synthetic:60,6,3", "glm:synthetic:200,10,8"])
def test_lapack_gufuncs_match_np_linalg_on_glm_grams(selector):
    # the block steps call solve1 (tail and head-subset Grams) and inv
    # (mixed Grams) directly; np.linalg.solve and np.linalg.inv return the
    # same gufuncs' results through their wrappers
    glm, _ = resolve_problem(selector)
    rng = seeded_rng(12)
    for scale in (1e-3, 1.0, 1e3):
        x = scale * rng.standard_normal(glm.n)
        for k in (2, 3, 9, 14):
            for pool in (np.arange(glm.d, glm.m), np.arange(glm.m)):
                rows = np.sort(rng.choice(pool, size=k, replace=False))
                J = glm.jacobian(x, rows)
                gram = J @ J.T
                for rhs in (glm.residual(x)[rows], rng.standard_normal(k)):
                    assert _lapack_solve1(gram, rhs).tobytes() == np.linalg.solve(gram, rhs).tobytes(), (scale, k)
                assert _lapack_inv(gram).tobytes() == np.linalg.inv(gram).tobytes(), (scale, k)


ERRSTATE_ENTER = np.errstate.__enter__.__code__
RECORD_APPEND = TraceRecords.append.__code__
SOLVE = solve.__code__


NUMPY_DIR = os.path.dirname(os.path.abspath(np.__file__))


def test_linear_block_iterations_call_one_lstsq_and_no_eigh():
    # linear:300,40,2 db-cnk takes a block of two or more rows at every
    # iteration, and each goes to least squares: one gelsd through
    # np.linalg.lstsq, with no Gram eigendecomposition before it.  Watched
    # as linalg_calls does, split at each record that solve appends
    problem, x0 = resolve_problem("linear:300,40,2")
    calls = [[]]

    def profile(frame, event, arg):
        if event == "call":
            if frame.f_code is RECORD_APPEND and frame.f_back.f_code is SOLVE:
                calls.append([])
            elif os.path.dirname(os.path.abspath(frame.f_code.co_filename)) == LINALG_DIR:
                calls[-1].append(frame.f_code.co_name)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        trace = solve(problem, x0, SolverConfig(method=MethodKind.DB_CNK, seed=0))
    finally:
        sys.setprofile(previous)
    # after its last record the solve only leaves its quiet scope, and the
    # stopping record takes no step
    assert calls.pop() == calls.pop() == []
    sizes = [rec.set_size for rec in trace.records[:-1]]
    assert len(sizes) > 20 and min(sizes) > 1
    assert [(names.count("lstsq"), names.count("eigh")) for names in calls] == [(1, 0)] * len(sizes)


def numpy_calls_per_record(selector, method, max_iter):
    """The problem, the trace, and per record one ``Counter`` of the numpy
    calls that package frames make, from the previous record's append by
    ``solve`` to this one's (an append that widens a column calls itself
    again); record 0's count includes the set-up of the solve.  Counted are
    numpy's C functions and methods (a ufunc's ``reduce`` keyed
    ``"add.reduce"``, an array's ``item`` as ``"item"``) and its Python
    functions (keyed ``"py:<name>"``), and every entry of ``np.errstate``
    (``"errstate"``).  The profiler sees no ufunc call and no operator, so
    those are not counted."""
    problem, x0 = resolve_problem(selector)
    config = SolverConfig(method=method, seed=0, max_iter=max_iter)
    counts = [Counter()]

    def from_package(frame) -> bool:
        return frame is not None and os.path.dirname(os.path.abspath(frame.f_code.co_filename)) == PACKAGE_DIR

    def profile(frame, event, arg):
        if event == "call":
            if frame.f_code is RECORD_APPEND and frame.f_back.f_code is SOLVE:
                counts.append(Counter())
            elif frame.f_code is ERRSTATE_ENTER:
                counts[-1]["errstate"] += 1
            elif frame.f_code.co_filename.startswith(NUMPY_DIR) and from_package(frame.f_back):
                counts[-1][f"py:{frame.f_code.co_name}"] += 1
        elif event == "c_call" and from_package(frame):
            owner = getattr(arg, "__self__", None)
            if isinstance(owner, np.ufunc):
                counts[-1][f"{owner.__name__}.{arg.__name__}"] += 1
            elif isinstance(owner, np.ndarray) or (getattr(arg, "__module__", None) or "").startswith("numpy"):
                counts[-1][arg.__name__] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        trace = solve(problem, x0, config)
    finally:
        sys.setprofile(previous)
    # the solve's quiet scope closes after its last record
    assert counts.pop() == Counter({"py:__exit__": 1})
    return problem, trace, counts


def calls_per_record(selector, method, max_iter):
    """The trace, and per record the ufunc ``reduce`` and ``accumulate``
    calls and the ``np.errstate`` entries of :func:`numpy_calls_per_record`."""
    _, trace, counts = numpy_calls_per_record(selector, method, max_iter)
    kept = [
        Counter({key: n for key, n in count.items() if key == "errstate" or key.endswith((".reduce", ".accumulate"))})
        for count in counts
    ]
    return trace, kept


# the Brown residual sums and multiplies x; a geometry sums f_i^2, the
# Convex distance threshold sums the norms (active_fro_sq) and the Brown
# norms accumulate the leave-one-out products; the residual rule reads no
# norm sum and tests its weights by argmax.  nrk's draw accumulates its
# weights; a capped draw does so only from a set of two or more rows
RESIDUAL = Counter({"add.reduce": 1, "multiply.reduce": 1})
DRAW = Counter({"add.accumulate": 1})
GREEDY = RESIDUAL + Counter({"add.reduce": 1, "multiply.accumulate": 2})
PRODUCT_ROW_GRAD = Counter({"multiply.accumulate": 2})


def patterns(counters) -> set:
    return {tuple(sorted(counter.items())) for counter in counters}


@pytest.mark.parametrize(
    "method, first, steady",
    [
        pytest.param(MethodKind.NRK, RESIDUAL + DRAW, None, id="nrk"),
        pytest.param(
            MethodKind.DR_CNK,
            GREEDY + Counter({"add.reduce": 2, "logical_and.reduce": 1}),
            [GREEDY + Counter({"add.reduce": 1})],
            id="dr-cnk",
        ),
        pytest.param(
            MethodKind.RD_CNK, GREEDY + Counter({"add.reduce": 1, "logical_and.reduce": 1}), [GREEDY], id="rd-cnk"
        ),
    ],
)
def test_per_iteration_reductions_and_one_errstate_per_solve(method, first, steady):
    # brown:50 from 0.5 * ones: k = 0 takes the median path (its
    # active_residual_sq sum and logical_and), every later geometry the
    # all-active one; nrk draws the product row now and then
    if steady is None:
        steady = [first, first + PRODUCT_ROW_GRAD]
    trace, counts = calls_per_record("brown:50", method, max_iter=300)
    assert trace.total_iterations == 300 and len(counts) == 301
    # one np.errstate per solve, entered once around the whole loop, and
    # none inside it
    assert counts[0].pop("errstate") == 1
    if method is not MethodKind.NRK:
        # the one-row draw spends its uniform without the prefix sum; both
        # set sizes occur on this run
        sizes = trace.records.set_size
        assert {size > 1 for size in sizes[:-1]} == {False, True}
        for count, size in zip(counts, sizes):
            assert count.pop("add.accumulate", 0) == (size > 1)
    assert counts[0] == first
    assert patterns(counts[1:-1]) == patterns(steady)
    # the capped iterate stops after its residual
    assert counts[-1] == RESIDUAL


# every GLM iteration: the residual and its margin (one putmask), ||f||^2,
# the geometry (two asarray, the sum of f_i^2, three argmax, one argmin and
# two reads), the Convex distance threshold (the norm sum and one read) and
# the set (one nonzero and one read)
GLM_ITERATION = Counter(
    {"empty": 2, "py:putmask": 1, "dot": 1, "asarray": 2, "add.reduce": 2, "argmax": 3, "argmin": 1, "item": 4, "nonzero": 1}
)
# a one-row step: the drawn row and its weight read, and the row's ||g||^2;
# a tail row's gradient is built in a zeroed array
SINGLE = Counter({"item": 2, "dot": 1})
TAIL_GRADIENT = Counter({"zeros": 1})
# a block: block_step reads its row bounds as Python ints, tests its rows
# and its rhs and step by count_nonzero, and the record lists its rows
BLOCK = Counter({"asarray": 1, "item": 2, "count_nonzero": 3, "tolist": 1})
# a block of one kind: the dense parts, the guard, I + Gram and the step
ONE_KIND = Counter({"take": 1, "c_einsum": 1, "reshape": 1, "zeros": 1})
# a block of both kinds: the parts and the cross block, the Gram and the
# step, the certificate, and its quiet scope
MIXED = Counter(
    {"searchsorted": 1, "take": 4, "empty": 2, "reshape": 1, "c_einsum": 2, "py:__init__": 1, "errstate": 1, "py:__exit__": 1}
)
# a hybrid's head: the whole head's step tests its rhs and its step, and
# the post-head iterate has a residual of its own
HYBRID_HEAD = Counter({"count_nonzero": 2, "empty": 1, "py:putmask": 1})


def glm_route(problem, selected) -> str:
    if len(selected) == 1:
        return "tail row" if selected[0] >= problem.d else "head row"
    if selected[0] >= problem.d:
        return "tail"
    return "head" if selected[-1] < problem.d else "mixed"


@pytest.mark.parametrize(
    "method, expected",
    [
        pytest.param(
            MethodKind.DB_CNK,
            {
                "head row": GLM_ITERATION + SINGLE,
                "tail row": GLM_ITERATION + SINGLE + TAIL_GRADIENT,
                "head": GLM_ITERATION + BLOCK + ONE_KIND,
                "tail": GLM_ITERATION + BLOCK + ONE_KIND,
                "mixed": GLM_ITERATION + BLOCK + MIXED,
            },
            id="db-cnk",
        ),
        pytest.param(
            MethodKind.GLM_HYBRID_DB,
            {
                "tail row": GLM_ITERATION + HYBRID_HEAD + SINGLE + TAIL_GRADIENT,
                "tail": GLM_ITERATION + HYBRID_HEAD + BLOCK + ONE_KIND,
            },
            id="glm-hybrid-db",
        ),
    ],
)
def test_glm_iteration_numpy_calls(method, expected):
    # glm:synthetic:60,6,3 from zero: every steady iteration makes exactly
    # the numpy calls of its route, so a wrapper, a reduction or a scalar
    # read put back on the block path fails here
    problem, trace, counts = numpy_calls_per_record("glm:synthetic:60,6,3", method, max_iter=60)
    assert trace.total_iterations == 60
    routes = Counter()
    for record, count in zip(trace.records[1:-1], counts[1:-1]):
        route = glm_route(problem, record.selected)
        routes[route] += 1
        assert count == expected[route], (record.k, route)
    # db-cnk takes all five routes here, and the hybrid both of its own
    assert set(routes) == set(expected)


WEIGHT_VALUES = (0.0, -0.0, np.nan, np.inf, 1.0, 5e-324, -np.inf)


def residual_rule_weights_geometry(ratios: np.ndarray) -> RowGeometry:
    """A geometry whose residual set at ``delta = 0`` is every row, with
    ``ratios`` as its distance ratios; ``-inf`` marks an inactive row."""
    m = ratios.size
    return RowGeometry(
        residual=np.ones(m),
        grad_sq_norms=np.ones(m),
        residual_sq=float(m),
        every_row_active=-np.inf not in ratios,
        active_residual_sq=float(m),
        res_sq=np.ones(m),
        ratios=ratios,
        top_ratio_row=int(ratios.argmax()),
        top_residual_row=0,
    )


def test_residual_set_weight_test_is_logical_or():
    # the all-zero test reads the largest weight where it reduced with
    # logical_or; on weights >= 0 or NaN, the clamped -inf of inactive rows
    # included, the two agree
    for m in (1, 2, 3):
        for values in itertools.product(WEIGHT_VALUES, repeat=m):
            ratios = np.array(values)
            expected = np.maximum(ratios, 0.0) if -np.inf in ratios else ratios
            g = residual_rule_weights_geometry(ratios)
            if np.logical_or.reduce(expected):
                assert build_residual_set(g, 0.0).weights.tobytes() == expected.tobytes(), values
            else:
                with pytest.raises(AllWeightsZero):
                    build_residual_set(g, 0.0)


def two_cumprod_products(x: np.ndarray) -> np.ndarray:
    """The leave-one-out products as the package built them before, from a
    prefix and a suffix ``cumprod``, the suffix written through a reversed
    view: the oracle of the one-accumulate form."""
    out = np.empty(x.shape)
    suffix = np.empty(x.shape)
    out[0] = 1.0
    suffix[-1] = 1.0
    x[:-1].cumprod(out=out[1:])
    x[:0:-1].cumprod(out=suffix[-2::-1])
    out *= suffix
    return out


def brown_vectors(n: int) -> list[np.ndarray]:
    """Iterates near the Brown root, Gaussian ones (negative entries), ones
    with zeros of both signs, and ones whose entries or products are
    subnormal."""
    rng = np.random.Generator(np.random.PCG64(n))
    near = 0.5 + rng.random(n)
    gaussian = rng.standard_normal(n)
    zeros = rng.standard_normal(n)
    zeros[rng.integers(n, size=max(1, n // 4))] = 0.0
    zeros[-1] = -0.0
    subnormal = rng.standard_normal(n)
    subnormal[0] = 5e-324
    subnormal[n // 2] = -3e-310
    tiny = np.full(n, 1e-160) * np.sign(rng.standard_normal(n))
    return [near, gaussian, zeros, subnormal, tiny]


@pytest.mark.parametrize("n", [2, 3, 8, 50, 200])
def test_leave_one_out_products_match_the_two_cumprod_form(n):
    with np.errstate(all="ignore"):
        for x in brown_vectors(n):
            got = _leave_one_out_products(x)
            assert np.array_equal(got.view(np.int64), two_cumprod_products(x).view(np.int64))


@pytest.mark.parametrize("n", [2, 3, 8, 50, 200])
def test_brown_residual_matches_the_array_method_form(n):
    problem = BrownProblem(n)
    with np.errstate(all="ignore"):
        for x in brown_vectors(n):
            expected = x + (x.sum() - (n + 1.0))
            expected[n - 1] = x.prod() - 1.0
            assert np.array_equal(problem.residual(x).view(np.int64), expected.view(np.int64))


def same_bits(a, b) -> bool:
    return np.float64(a).view(np.int64) == np.float64(b).view(np.int64)


@pytest.mark.parametrize("n", [2, 3, 8, 50, 200])
def test_c_einsum_matches_np_einsum_on_brown_products(n):
    # BrownProblem.row_sq_norms_at squares the product row's gradient so
    with np.errstate(all="ignore"):
        for x in brown_vectors(n):
            products = _leave_one_out_products(x)
            assert same_bits(c_einsum("i,i->", products, products), np.einsum("i,i->", products, products))


@pytest.mark.parametrize("selector", ["glm:synthetic:60,6,3", "glm:synthetic:200,10,8"])
def test_c_einsum_matches_np_einsum_on_glm_blocks(selector):
    # the block guard takes ||B||_F^2 of head and tail blocks so
    glm, _ = resolve_problem(selector)
    rng = seeded_rng(11)
    blocks = [glm._head_jac[:, : glm.p], glm._head_jac[:, : glm.p].take([0, glm.d - 1], axis=0)]
    with np.errstate(all="ignore"):
        for scale in (1e-3, 1.0, 1e3, 1e200):
            c = glm._margin_at(scale * rng.standard_normal(glm.n), None)[1]
            units = np.sort(rng.choice(glm.p, size=glm.d + 3, replace=False))
            blocks.append(c.take(units)[:, None] * glm._samples.take(units, axis=0) * scale)
        for B in blocks:
            assert same_bits(c_einsum("ij,ij->", B, B), np.einsum("ij,ij->", B, B))


def dot_vectors(n: int) -> list[np.ndarray]:
    """Gaussian vectors, contiguous, strided and a matrix column, and ones
    whose entries are subnormal, whose squares underflow or whose squares
    overflow.

    None has a negative stride: ``ndarray.dot`` copies such an operand and
    sums the copy through BLAS, as it sums a contiguous vector, where ``@``
    sums it in order, so there the last bits can differ from ``@`` (and
    match the contiguous copy's).  The package's problems hand the solve
    none, unless a ``LinearProblem`` is built on a column-reversed matrix."""
    rng = np.random.Generator(np.random.PCG64(1000 + n))
    wide = rng.standard_normal(3 * n)
    column = rng.standard_normal((n, 5))[:, 2]
    subnormal = rng.standard_normal(n) * 5e-320
    tiny = rng.standard_normal(n) * 1e-160
    huge = rng.standard_normal(n) * 1e160
    mixed = rng.standard_normal(n)
    mixed[::3] *= 1e200
    return [wide[:n], wide[::3], wide[1::3], column, subnormal, tiny, huge, mixed]


@pytest.mark.parametrize("n", [1, 2, 7, 50, 200, 2001])
def test_ndarray_dot_matches_matmul_bit_for_bit(n):
    vectors = dot_vectors(n)
    with np.errstate(all="ignore"):
        for a in vectors:
            for b in (a, vectors[1], vectors[-1]):
                assert np.float64(a.dot(b)).view(np.int64) == np.float64(a @ b).view(np.int64)
