"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the measured
values.

Criterion 1 checks ``dr-cnk`` on ``brown:50`` against the maximum-distance
rule itself rather than against an iteration range.  The distance rule and
the residual rule must part at k = 1: every affine Brown row has
``||grad f_i||^2 = n + 3``, and after the first projection the product row's
distance ratio ``f_i^2 / ||grad f_i||^2`` (about 0.0106) is the only one at
or above ``eps_1 * ||f||^2`` (about 0.0075; each remaining affine row gives
about 0.0044), so the distance set is the product row alone while the
residual set is the 48 affine rows that were not drawn.  A range whose
``dr-cnk`` counts equal the ``rd-cnk`` counts therefore cannot come from the
distance rule.  Each replayed iterate from k = 1 on is compared with an
independent textbook oracle built from the full Jacobian.  The k = 0 outcome
rests on the product-row eligibility cutoff (``ACTIVE_REL_EPS`` times the
median squared row norm): at ``0.5 * ones`` the product row's squared
gradient norm (about 1.6e-28) falls below it, so the set is the 49 affine
rows, where the textbook rule would keep the product row alone and the step
would overflow.
"""

import itertools
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

from capped_kaczmarz.bench import BenchSpec, emit_csv, run_bench, trace_filename
from capped_kaczmarz.core import Convex, MethodKind, SolveStatus, SolverConfig
from capped_kaczmarz.diagnostics import build_factor_report, estimate_eta
from capped_kaczmarz.errors import ParseError
from capped_kaczmarz.numerics import min_norm_least_squares, row_sq_norms, seeded_rng
from capped_kaczmarz.problems import (
    BrownProblem,
    LinearProblem,
    make_glm,
    make_synthetic_glm,
    parse_libsvm,
    synthetic_dataset,
)
from capped_kaczmarz.selection import (
    ACTIVE_REL_EPS,
    RowGeometry,
    build_distance_set,
    build_residual_set,
    compute_delta,
    compute_epsilon,
)
from capped_kaczmarz.solvers import hybrid_linear_substep, kaczmarz_step, solve
from oracles import block_step, serialize_libsvm

DATA = Path(__file__).parent / "data"


def report(number: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")


def counting_clock():
    counter = itertools.count()
    return lambda: next(counter) * 0.001


def test_criterion_01_brown50_single_sample_iteration_counts():
    started = time.perf_counter()
    spec = BenchSpec(
        problem="brown:50",
        methods=(MethodKind.DR_CNK, MethodKind.RD_CNK, MethodKind.NRK),
        runs=10,
        seed=0,
    )
    summaries = {s.method: s for s in run_bench(spec).summaries}
    elapsed = time.perf_counter() - started
    dr, rd, nrk = (
        summaries[m].mean_iterations for m in (MethodKind.DR_CNK, MethodKind.RD_CNK, MethodKind.NRK)
    )

    # replay every dr-cnk run and hold each recorded set to the distance rule
    problem, x0 = BrownProblem(50), 0.5 * np.ones(50)

    def oracle(x):
        return distance_reference_set(problem.residual(x), problem.jacobian(x))

    product = problem.n - 1
    affine = set(range(product))
    norms0 = (problem.jacobian(x0) ** 2).sum(axis=1)
    mismatches = []
    checked = 0
    for seed, iterations in zip(itertools.count(spec.seed), summaries[MethodKind.DR_CNK].iterations):
        config = SolverConfig(method=MethodKind.DR_CNK, seed=seed, record_iterates=True)
        trace = solve(problem, x0, config)
        assert trace.status is SolveStatus.CONVERGED
        assert trace.total_iterations == iterations
        first = trace.records[0]
        assert first.set_size == len(affine) and set(first.selected) <= affine
        assert oracle(trace.iterates[1]) == {product}
        for rec, x in zip(trace.records[1:-1], trace.iterates[1:-1]):
            expected = oracle(x)
            if rec.set_size != len(expected) or rec.selected[0] not in expected:
                mismatches.append((seed, rec.k, rec.set_size, len(expected)))
            checked += 1

    ok = (
        not mismatches
        and dr <= 950
        and 600 <= rd <= 950
        and 3500 <= nrk <= 6200
        and elapsed < 60
    )
    report(
        1,
        ok,
        f"mean IT dr-cnk={dr:.1f} rd-cnk={rd:.1f} nrk={nrk:.1f}, {elapsed:.1f}s total; "
        f"{checked - len(mismatches)}/{checked} dr-cnk sets at k >= 1 equal the distance-rule oracle",
    )
    assert 600 <= rd <= 950
    assert 3500 <= nrk <= 6200
    assert elapsed < 60
    # k = 0 rests on the eligibility cutoff: the textbook rule would keep the
    # product row alone, but its gradient is below the cutoff
    assert oracle(x0) == {product}
    assert norms0[product] < ACTIVE_REL_EPS * np.median(norms0)
    assert not mismatches, (
        "dr-cnk departs from the maximum-distance rule at "
        f"{len(mismatches)} of {checked} iterates with k >= 1; first "
        "(seed, k, recorded set size, oracle set size): "
        f"{mismatches[:5]}; see module docstring"
    )
    assert dr <= 950


@pytest.mark.parametrize("n", [50, 100, 200])
def test_criterion_02_block_methods_converge_instantly(n):
    problem = BrownProblem(n)
    x0 = 0.5 * np.ones(n)
    details = []
    ok = True
    for method in (MethodKind.DB_CNK, MethodKind.RB_CNK):
        trace = solve(problem, x0, SolverConfig(method=method, seed=1))
        converged = trace.status is SolveStatus.CONVERGED
        it = trace.total_iterations
        set0 = trace.records[0].set_size
        exact = " (exact match: IT=1)" if it == 1 else ""
        details.append(f"{method.value}: IT={it}, |set@k=0|={set0}{exact}")
        ok = ok and converged and it <= 3
        assert converged
        assert it <= 3
    report(2, ok, f"brown n={n}: " + "; ".join(details))


def test_criterion_03_speedup_trend_on_brown200():
    spec = BenchSpec(
        problem="brown:200",
        methods=(MethodKind.NRK, MethodKind.DR_CNK),
        runs=10,
        seed=100,
    )
    summaries = {s.method: s for s in run_bench(spec).summaries}
    it_ratio = summaries[MethodKind.NRK].mean_iterations / summaries[MethodKind.DR_CNK].mean_iterations
    wall_ratio = summaries[MethodKind.NRK].mean_seconds / summaries[MethodKind.DR_CNK].mean_seconds
    ok = it_ratio >= 10 and wall_ratio >= 3
    report(3, ok, f"IT ratio nrk/dr-cnk={it_ratio:.1f} (>=10), wall ratio={wall_ratio:.1f} (>=3)")
    assert it_ratio >= 10
    assert wall_ratio >= 3


def distance_reference_set(f, J):
    """Independent textbook maximum-distance selection: the greedy threshold
    with theta = 1/2 from a residual and its full Jacobian, every row
    eligible."""
    norms = (J * J).sum(axis=1)
    fsq = float(f @ f)
    fro = float((J * J).sum())
    eps = 0.5 * ((f * f / norms).max() / fsq + 1.0 / fro)
    return set(np.flatnonzero(f * f >= eps * fsq * norms).tolist())


def grk_reference_set(A, b, x):
    """Independent textbook greedy row selection for linear systems."""
    return distance_reference_set(b - A @ x, A)


def grmk_reference_set(A, b, x):
    """Independent textbook greedy residual selection for linear systems."""
    r = b - A @ x
    rsq = float(r @ r)
    delta = 0.5 * ((r * r).max() / rsq + 1.0 / A.shape[0])
    return set(np.flatnonzero(r * r >= delta * rsq).tolist())


def test_criterion_04_linear_reduction_matches_reference_selections():
    rng = np.random.default_rng(2024)
    checked = 0
    for trial in range(50):
        A = rng.standard_normal((100, 50))
        x_star = rng.standard_normal(50)
        b = A @ x_star
        problem = LinearProblem(A, b, known_root=x_star)
        norms = row_sq_norms(A)
        for method, mine, oracle in (
            (MethodKind.DR_CNK, "distance", grk_reference_set),
            (MethodKind.RD_CNK, "residual", grmk_reference_set),
        ):
            config = SolverConfig(
                method=method, seed=trial, tol=1e-30, max_iter=100, record_iterates=True
            )
            trace = solve(problem, np.zeros(50), config)
            assert trace.total_iterations == 100
            for x in trace.iterates[:-1]:
                g = RowGeometry.from_state(problem.residual(x), norms)
                if mine == "distance":
                    sel = build_distance_set(g, compute_epsilon(g, Convex(0.5)))
                else:
                    sel = build_residual_set(g, compute_delta(g, Convex(0.5)))
                assert set(sel.indices.tolist()) == oracle(A, b, x)
                checked += 1
    report(4, True, f"{checked} greedy sets equal the independent references exactly")


def test_criterion_05_selection_invariants_on_random_states():
    rng = seeded_rng(777)
    checked = 0
    for _ in range(1000):
        m = int(rng.integers(1, 40))
        residual = rng.standard_normal(m) * 10.0 ** rng.integers(-3, 4)
        if not np.any(residual):
            residual[0] = 1.0
        grad_sq = np.exp(rng.normal(0.0, 3.0, size=m))
        g = RowGeometry.from_state(residual, grad_sq)
        theta = float(rng.random())
        eps = compute_epsilon(g, Convex(theta))
        delta = compute_delta(g, Convex(theta))
        assert eps * g.active_fro_sq >= 1.0 - 1e-12
        assert 1.0 / m - 1e-15 <= delta <= 1.0 + 1e-15

        dist = build_distance_set(g, eps)
        resid = build_residual_set(g, delta)
        assert len(dist) >= 1 and len(resid) >= 1
        ratios = np.where(g.active, residual**2 / np.where(g.active, grad_sq, 1.0), -1.0)
        assert int(np.argmax(ratios)) in dist.indices
        assert int(np.argmax(residual**2)) in resid.indices
        for sel in (dist, resid):
            normalized = sel.weights / sel.weights.sum()
            assert abs(normalized.sum() - 1.0) <= 1e-12
            assert np.all(normalized >= 0.0)

        c = 2.0 ** int(rng.integers(-30, 31))
        scaled = RowGeometry.from_state(c * residual, c * c * grad_sq)
        dist_scaled = build_distance_set(scaled, compute_epsilon(scaled, Convex(theta)))
        resid_scaled = build_residual_set(scaled, compute_delta(scaled, Convex(theta)))
        assert dist_scaled.indices.tolist() == dist.indices.tolist()
        assert resid_scaled.indices.tolist() == resid.indices.tolist()
        checked += 1
    report(5, True, f"threshold and set invariants held on {checked} random states")


def central_difference_rows(problem, x, step=1e-6):
    grads = np.zeros((problem.m, problem.n))
    for j in range(problem.n):
        forward, backward = x.copy(), x.copy()
        forward[j] += step
        backward[j] -= step
        grads[:, j] = (problem.residual(forward) - problem.residual(backward)) / (2 * step)
    return grads


def test_criterion_06_gradient_correctness():
    brown = BrownProblem(12)
    rng = seeded_rng(6)
    for _ in range(20):
        x = 0.5 + rng.random(12)
        J = brown.jacobian(x)
        fd = central_difference_rows(brown, x)
        assert np.allclose(J, fd, rtol=1e-5, atol=1e-8)

    glm = make_glm(synthetic_dataset(p=12, d=4, seed=60), lam=1.0 / 12)
    for _ in range(20):
        x = rng.standard_normal(glm.n)
        J = glm.jacobian(x)
        fd = central_difference_rows(glm, x)
        assert np.allclose(J, fd, rtol=1e-5, atol=1e-7)

    A = seeded_rng(61).standard_normal((20, 10))
    linear = LinearProblem(A, np.zeros(20))
    est = estimate_eta(linear, np.zeros(10), radius=2.0, pairs=10_000, rng=seeded_rng(62))
    assert est.eta == 0.0
    report(6, True, "Jacobian rows match central differences; linear eta estimate is exactly 0")


def svd_pinv_solve(J, rhs):
    U, s, Vt = np.linalg.svd(J, full_matrices=False)
    cutoff = max(J.shape) * np.finfo(float).eps * (s[0] if s.size else 0.0)
    inv = np.where(s > cutoff, 1.0 / np.where(s > cutoff, s, 1.0), 0.0)
    return Vt.T @ (inv * (U.T @ rhs))


def test_criterion_07_block_kernel_matches_svd_oracle():
    rng = np.random.default_rng(7)
    for trial in range(200):
        m = int(rng.integers(1, 51))
        n = int(rng.integers(1, 51))
        J = rng.standard_normal((m, n))
        if trial % 4 == 0 and min(m, n) > 1:
            J[:, -1] = 2.0 * J[:, 0]  # exact rank deficiency
        if trial % 7 == 0 and m > 1:
            J[-1] = J[0]
        rhs = rng.standard_normal(m)
        mine = min_norm_least_squares(J, rhs)
        oracle = svd_pinv_solve(J, rhs)
        scale = max(1.0, float(np.linalg.norm(oracle)))
        assert np.linalg.norm(mine - oracle) <= 1e-8 * scale

    brown = BrownProblem(9)
    for trial in range(25):
        x = 0.5 + rng.random(9)
        i = int(rng.integers(9))
        single = kaczmarz_step(x, brown.residual(x)[i], brown.row_grad(i, x))
        blocked = block_step(x, [i], brown)
        assert np.allclose(single, blocked, rtol=1e-12, atol=1e-12)
    report(7, True, "least-squares kernel matches the SVD oracle; singleton blocks equal row steps")


def test_criterion_08_glm_end_to_end():
    pairs = (
        (MethodKind.DR_CNK, MethodKind.GLM_HYBRID_DB),
        (MethodKind.RD_CNK, MethodKind.GLM_HYBRID_RB),
    )
    glm = make_synthetic_glm(p=200, d=10, seed=8)
    x0 = np.zeros(glm.n)
    iteration_counts: dict[MethodKind, list[int]] = {m: [] for pair in pairs for m in pair}
    for seed in range(10):
        for method in iteration_counts:
            trace = solve(glm, x0, SolverConfig(method=method, seed=seed))
            assert trace.status is SolveStatus.CONVERGED, f"{method} seed {seed}: {trace.status}"
            assert trace.records[-1].residual_sq < 1e-6
            iteration_counts[method].append(trace.total_iterations)

    medians = {m: statistics.median(its) for m, its in iteration_counts.items()}
    for single, block in pairs:
        assert medians[block] <= medians[single], (single, block, medians)

    trace = solve(
        glm, x0, SolverConfig(method=MethodKind.GLM_HYBRID_DB, seed=0, record_iterates=True)
    )
    for x in trace.iterates[:-1]:
        mid = hybrid_linear_substep(glm, x, glm.residual(x))
        head = glm.residual(mid)[: glm.d]
        assert np.all(np.abs(head) <= 1e-12)
    report(
        8,
        True,
        "all four methods converged on the synthetic dataset; median IT "
        + ", ".join(f"{m.value}={medians[m]:.0f}" for m in iteration_counts)
        + "; head rows exactly annihilated after each linear sub-step",
    )


def test_criterion_09_theory_diagnostics_near_root():
    problem = BrownProblem(10)
    root = problem.known_root
    eta = estimate_eta(problem, root, radius=0.05, pairs=10_000, rng=seeded_rng(90))
    assert eta.eta < 0.5, f"eta estimate {eta.eta} not below 1/2"
    x0 = root + 0.04 * seeded_rng(91).standard_normal(10) / np.sqrt(10)

    ordering_checked = 0
    for method in (MethodKind.DR_CNK, MethodKind.RD_CNK):
        config = SolverConfig(method=method, seed=92, record_iterates=True, record_error=True)
        trace = solve(problem, x0, config)
        rep = build_factor_report(problem, trace, eta, Convex(0.5), method)
        for row in rep.rows:
            assert row.rho_method < row.rho_nrk
            ordering_checked += 1

    margin_rows = 0
    for method in (MethodKind.DB_CNK, MethodKind.RB_CNK):
        config = SolverConfig(method=method, seed=93, record_iterates=True, record_error=True)
        trace = solve(problem, x0, config)
        rep = build_factor_report(problem, trace, eta, Convex(0.5), method)
        for row in rep.rows:
            if row.hypothesis_ok:
                margin_rows += 1
                assert row.rho_method < 1.0
                if row.measured_ratio is not None:
                    assert row.measured_ratio <= row.rho_method + 1e-8
    report(
        9,
        True,
        f"eta={eta.eta:.3f} < 1/2; factor orderings held at {ordering_checked} iterations; "
        f"block one-step bounds held at {margin_rows} positive-margin iterations",
    )


def test_criterion_10_reproducibility_and_formats(tmp_path):
    # identical seeds -> byte-identical trace CSVs
    payloads = []
    for attempt in range(2):
        out = tmp_path / f"rep{attempt}"
        spec = BenchSpec(
            problem="brown:50",
            methods=(MethodKind.DR_CNK,),
            runs=2,
            seed=7,
            out_dir=out,
            clock=counting_clock(),
        )
        run_bench(spec)
        payloads.append(
            [(out / trace_filename("brown:50", MethodKind.DR_CNK, r)).read_bytes() for r in range(2)]
        )
    assert payloads[0] == payloads[1]

    # parser round trip and malformed input
    text = "+1 1:0.5 3:-1.25\n-1 2:3.75\n"
    dataset = parse_libsvm(text)
    again = parse_libsvm(serialize_libsvm(dataset))
    assert again.samples == dataset.samples
    assert again.labels.tolist() == dataset.labels.tolist()
    for bad in ("1 2:abc\n", "+1 3:1 2:1\n", "oops 1:1\n"):
        with pytest.raises(ParseError):
            parse_libsvm(bad)

    # golden trace file
    problem = LinearProblem(
        np.eye(4), np.array([1.0, 2.0, 3.0, 4.0]), known_root=np.array([1.0, 2.0, 3.0, 4.0])
    )
    config = SolverConfig(method=MethodKind.NK, seed=123, record_error=True, clock=counting_clock())
    trace = solve(problem, np.zeros(4), config)
    golden = (DATA / "golden_trace.csv").read_text(encoding="utf-8")
    assert emit_csv(trace) == golden
    report(10, True, "byte-identical traces, parser round-trip, golden CSV all verified")
