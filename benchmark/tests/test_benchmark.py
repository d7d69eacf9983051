"""Tests of the benchmark itself: runs, correctness checks and tracing.

    python3 -m pytest benchmark/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import capped_kaczmarz.selection as selection_mod
import capped_kaczmarz.solvers as solvers_mod
from capped_kaczmarz import MethodKind, SolverConfig, solve
from capped_kaczmarz.bench import resolve_problem
from capped_kaczmarz.selection import RowGeometry

import harness
from checks import BrownCheck, GLMCheck, LinearCheck, make_check
from tracing import Tracer, instrumented
from workloads import TOL, WORKLOADS

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


def run_cli(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmark/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_short_run_completes(workload):
    proc = run_cli(ROOT, "--workload", workload, "--seed", "1", "--seconds", "0.01", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    # one round under tracemalloc, one untraced and one traced
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 3 * len(WORKLOADS[workload].cells) * WORKLOADS[workload].seeds_per_cell
    assert {k: v["unit"] for k, v in result["metrics"].items()} == harness.PER_LAYER_UNITS
    assert result["metrics"]["problems.residual.calls"]["value"] > 0
    assert result["metrics"]["solvers.loop.self_s"]["value"] > 0


def test_untraced_short_run_reports_end_to_end_metrics():
    result = harness.run(WORKLOADS["linear-dense"], 0, 0.01, trace=False, log=lambda line: None)
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == harness.END_TO_END_UNITS
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["benchmark"]
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER_UNITS


def test_run_outside_a_checkout_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmark", ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = run_cli(tmp_path, "--workload", "glm-block", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def solved(selector: str, method: str) -> np.ndarray:
    problem, x0 = resolve_problem(selector)
    trace = solve(problem, x0, SolverConfig(method=MethodKind(method), tol=TOL, seed=0))
    return trace.final_x


@pytest.mark.parametrize(
    "selector, method, coordinate, shift",
    [
        ("brown:50", "dr-cnk", 0, 1e-2),
        ("linear:2000,200,3", "db-cnk", 0, 1e-2),
        # the GLM check reads w = x[p:], the last d entries
        ("glm:synthetic:200,10,8", "glm-hybrid-db", 200, 1e-1),
    ],
)
def test_check_accepts_the_solution_and_rejects_a_perturbed_one(selector, method, coordinate, shift):
    check = make_check(selector, TOL)
    x = solved(selector, method)
    assert check(x) is None
    x[coordinate] += shift
    assert check(x) is not None


def test_brown_check_root_and_start():
    check = BrownCheck(50, TOL)
    assert check(np.ones(50)) is None
    assert check(0.5 * np.ones(50)) is not None


def test_linear_check_error_bound_rejects_a_wrong_solution_with_small_residual():
    check = LinearCheck(40, 5, 3, TOL)
    assert check(check.x_star) is None
    # a tiny residual whose error breaks the sigma_min bound cannot exist, so
    # the bound is tested on a check whose x* is deliberately wrong
    check.x_star = check.x_star + 1e-3
    assert check(np.linalg.lstsq(check.A, check.b, rcond=None)[0]) is not None


def test_glm_gradient_matches_finite_differences_of_the_objective():
    check = GLMCheck(30, 4, 8, TOL)
    w = np.random.default_rng(0).standard_normal(4)
    h = 1e-6
    numeric = [
        (check.objective(w + h * e) - check.objective(w - h * e)) / (2 * h) for e in np.eye(4)
    ]
    np.testing.assert_allclose(check.gradient(w), numeric, rtol=1e-6, atol=1e-9)


def test_span_self_time_excludes_children():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda: None)

    def body():
        inner()
        inner()

    tracer.cell = "c"
    tracer.wrap("outer", body)()
    totals = tracer.totals()
    # outer runs from tick 0 to 5; each inner call spans one tick
    assert totals["outer"] == {"calls": 1, "self_s": 3.0, "total_s": 5.0}
    assert totals["inner"] == {"calls": 2, "self_s": 2.0, "total_s": 2.0}


def test_traced_solve_matches_untraced_and_restores_the_package():
    problem, x0 = resolve_problem("glm:synthetic:200,10,8")
    config = SolverConfig(method=MethodKind.GLM_HYBRID_DB, tol=TOL, seed=0)
    plain = solve(problem, x0, config)
    before = dict(vars(solvers_mod)), selection_mod.draw_weighted_index, RowGeometry.__dict__["from_state"]
    tracer = Tracer()
    with instrumented(tracer, [problem]):
        traced = solve(problem, x0, config)
    assert traced.total_iterations == plain.total_iterations
    np.testing.assert_array_equal(traced.final_x, plain.final_x)
    layers = tracer.totals()
    assert layers["problems.residual"]["calls"] > 0 and layers["solvers.hybrid_head"]["calls"] > 0
    after = dict(vars(solvers_mod)), selection_mod.draw_weighted_index, RowGeometry.__dict__["from_state"]
    assert after == before
    assert not {"residual", "jacobian", "row_grad", "row_sq_norms_at"} & set(vars(problem))
