"""The contract every solve keeps, whatever the problem and the method.

Over badly scaled linear systems (rows scaled across 1e+-150, zero rows,
repeated rows), Brown problems of dimension up to 8 and small synthetic
GLMs, with every method that applies:

* ``solve`` returns: a numerical failure ends the solve with a status, and
  only argument errors raise;
* no ``RuntimeWarning`` escapes it;
* a ``converged`` status means the last ||f||^2 is below ``tol``;
* any status but a breakdown leaves a finite ``final_x``;
* every set size lies in [0, m] and every selected row in [0, m).

Scales past 1e+-150 reach the README's float-range limitations, pinned in
``tests/test_solvers.py::TestFloatRangeLimitations``, and stay out here.
"""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from capped_kaczmarz.core import HYBRID_KINDS, Convex, MethodKind, Scaled, SolverConfig, SolveStatus
from capped_kaczmarz.numerics import seeded_rng
from capped_kaczmarz.problems import BrownProblem, LinearProblem, make_synthetic_glm
from capped_kaczmarz.solvers import solve

NON_HYBRID = [kind for kind in MethodKind if kind not in HYBRID_KINDS]
MAX_ITER = 300

thresholds = st.one_of(
    st.builds(Convex, st.floats(min_value=0.0, max_value=1.0)),
    st.builds(Scaled, st.floats(min_value=1e-3, max_value=1.0)),
)


def check_contract(problem, x0, methods, threshold, seed):
    for method in methods:
        config = SolverConfig(method=method, threshold=threshold, max_iter=MAX_ITER, seed=seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            trace = solve(problem, x0, config)
        records = trace.records
        assert 0 <= trace.total_iterations <= MAX_ITER
        if trace.status is SolveStatus.CONVERGED:
            assert records[-1].residual_sq < config.tol
        if trace.status is not SolveStatus.NUMERICAL_BREAKDOWN:
            assert np.isfinite(trace.final_x).all()
        assert all(0 <= size <= problem.m for size in records.set_size.tolist())
        assert all(0 <= row < problem.m for record in records for row in record.selected)


@st.composite
def scaled_linear_systems(draw):
    """A small system ``A x = b`` whose rows are scaled by 10^e, e in
    [-150, 150], some of them zero and some repeated, with a consistent or
    a perturbed right-hand side."""
    m = draw(st.integers(min_value=1, max_value=8))
    n = draw(st.integers(min_value=1, max_value=5))
    rng = seeded_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    A = rng.standard_normal((m, n))
    for i in range(m):
        kind = draw(st.sampled_from(["scaled", "scaled", "zero", "repeat"]))
        if kind == "zero":
            A[i] = 0.0
        elif kind == "repeat" and i > 0:
            A[i] = A[draw(st.integers(min_value=0, max_value=i - 1))]
    scales = 10.0 ** np.array(draw(st.lists(st.integers(-150, 150), min_size=m, max_size=m)), dtype=float)
    A *= scales[:, None]
    b = A @ rng.standard_normal(n)
    if draw(st.booleans()):
        b += scales * rng.standard_normal(m)
    x0 = np.zeros(n) if draw(st.booleans()) else rng.standard_normal(n)
    return LinearProblem(A, b), x0


@settings(max_examples=150, deadline=None)
@given(scaled_linear_systems(), thresholds, st.integers(min_value=0, max_value=2**32 - 1))
def test_scaled_linear_systems(system, threshold, seed):
    problem, x0 = system
    check_contract(problem, x0, NON_HYBRID, threshold, seed)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=8), thresholds, st.integers(min_value=0, max_value=2**32 - 1))
def test_brown(n, threshold, seed):
    check_contract(BrownProblem(n), 0.5 * np.ones(n), NON_HYBRID, threshold, seed)


@settings(max_examples=10, deadline=None)
@given(
    st.integers(min_value=2, max_value=30),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=2**16),
    thresholds,
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_synthetic_glms(p, d, data_seed, threshold, seed):
    problem = make_synthetic_glm(p, d, data_seed)
    check_contract(problem, np.zeros(problem.n), list(MethodKind), threshold, seed)
