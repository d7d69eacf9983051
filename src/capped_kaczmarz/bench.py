"""Benchmark harness: multi-run averaging, summary tables, trace CSVs.

A bench cell is one (problem, method, run) solve with its own seed and
trace.  Cells run one after another, so wall-clock comparisons are
undistorted.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .core import (
    HYBRID_KINDS, MethodKind, ProblemInstance, SolveStatus, SolveTrace, SolverConfig, ThresholdMode,
)
from .errors import CappedKaczmarzError
from .diagnostics import REPORTED_KINDS, build_factor_report, estimate_eta
from .numerics import seeded_rng
from .problems import BrownProblem, GLMProblem, LinearProblem, load_libsvm, make_glm, make_synthetic_glm
from .solvers import solve

TRACE_COLUMNS = ("k", "residual_sq", "elapsed_s", "selected_size")


class BenchSpecError(CappedKaczmarzError):
    """Invalid benchmark specification (bad selector, empty method list...)."""


@dataclass(frozen=True)
class BenchSpec:
    """One benchmark invocation: a problem selector, methods, run count."""

    problem: str
    methods: tuple[MethodKind, ...]
    runs: int = 10
    seed: int = SolverConfig.seed
    threshold: ThresholdMode = SolverConfig.threshold
    tol: float = SolverConfig.tol
    max_iter: int = SolverConfig.max_iter
    out_dir: Path | None = None
    track_error: bool = False
    diagnostics: bool = False
    clock: Callable[[], float] = SolverConfig.clock

    def __post_init__(self):
        if self.runs < 1:
            raise BenchSpecError("runs must be at least 1")
        if not self.methods:
            raise BenchSpecError("method list must be nonempty")
        # a method's summary, runs and trace files are keyed by the method
        repeated = sorted({m.value for m in self.methods if self.methods.count(m) > 1})
        if repeated:
            raise BenchSpecError(f"method listed more than once: {', '.join(repeated)}")


def resolve_problem(selector: str) -> tuple[ProblemInstance, np.ndarray]:
    """Build the problem and its conventional start point from a selector.

    ``brown:n`` starts at 0.5 * ones; ``glm:...`` and ``linear:...`` start
    at zero.  ``linear:m,n,seed`` draws a consistent Gaussian system.
    """
    kind, _, rest = selector.partition(":")
    try:
        if kind == "brown":
            n = int(rest)
            return BrownProblem(n), 0.5 * np.ones(n)
        if kind == "glm":
            if rest.startswith("synthetic:"):
                p, d, seed = (int(tok) for tok in rest.removeprefix("synthetic:").split(","))
                glm = make_synthetic_glm(p, d, seed)
                return glm, np.zeros(glm.n)
            glm = make_glm(load_libsvm(rest))
            return glm, np.zeros(glm.n)
        if kind == "linear":
            m, n, seed = (int(tok) for tok in rest.split(","))
            rng = seeded_rng(seed)
            A = rng.standard_normal((m, n))
            x_star = rng.standard_normal(n)
            return LinearProblem(A, A @ x_star, known_root=x_star), np.zeros(n)
    except (ValueError, OSError) as exc:
        raise BenchSpecError(f"cannot resolve problem {selector!r}: {exc}") from exc
    raise BenchSpecError(f"unknown problem selector {selector!r}")


@dataclass
class RunResult:
    method: MethodKind
    run: int
    seed: int
    seconds: float
    trace: SolveTrace


@dataclass
class MethodSummary:
    method: MethodKind
    iterations: list[int]
    seconds: list[float]
    statuses: dict[str, int]

    @property
    def mean_iterations(self) -> float:
        return sum(self.iterations) / len(self.iterations)

    @property
    def mean_seconds(self) -> float:
        return sum(self.seconds) / len(self.seconds)

    @property
    def zero_variance(self) -> bool:
        return len(set(self.iterations)) == 1


@dataclass
class BenchReport:
    problem: str
    runs: int
    seed: int
    summaries: list[MethodSummary]
    results: list[RunResult] = field(default_factory=list)

    @property
    def any_breakdown(self) -> bool:
        return any(r.trace.status is SolveStatus.NUMERICAL_BREAKDOWN for r in self.results)


def _run_cell(problem, x0, spec: BenchSpec, method: MethodKind, run: int) -> RunResult:
    config = SolverConfig(
        method=method,
        threshold=spec.threshold,
        tol=spec.tol,
        max_iter=spec.max_iter,
        seed=spec.seed + run,
        record_error=spec.track_error,
        # the factor report replays run 0's iterates instead of solving again
        record_iterates=spec.diagnostics and run == 0 and method in REPORTED_KINDS,
        clock=spec.clock,
    )
    started = spec.clock()
    trace = solve(problem, x0, config)
    seconds = spec.clock() - started
    return RunResult(method=method, run=run, seed=config.seed, seconds=seconds, trace=trace)


def run_bench(spec: BenchSpec) -> BenchReport:
    """Execute every (method, run) cell, assemble summaries, write outputs.

    Per-run numerical breakdown is recorded in the report, never fatal to
    the batch.  A hybrid method on a non-GLM problem is a specification
    error, raised before any cell runs.  Timing covers the solve only
    (problem construction and file IO excluded).
    """
    problem, x0 = resolve_problem(spec.problem)
    hybrids = [m.value for m in spec.methods if m in HYBRID_KINDS]
    if hybrids and not isinstance(problem, GLMProblem):
        raise BenchSpecError(f"{', '.join(hybrids)} need a glm problem, not {spec.problem!r}")
    results = [_run_cell(problem, x0, spec, method, run) for method in spec.methods for run in range(spec.runs)]

    summaries = []
    for method in spec.methods:
        mine = [r for r in results if r.method is method]
        summaries.append(
            MethodSummary(
                method=method,
                iterations=[r.trace.total_iterations for r in mine],
                seconds=[r.seconds for r in mine],
                statuses=dict(Counter(r.trace.status.value for r in mine)),
            )
        )
    report = BenchReport(
        problem=spec.problem, runs=spec.runs, seed=spec.seed, summaries=summaries, results=results
    )
    if spec.out_dir is not None:
        write_outputs(spec, report, problem)
    return report


def emit_csv(trace: SolveTrace) -> str:
    """Render a trace as CSV: ``k,residual_sq,elapsed_s,selected_size`` plus
    ``error_sq`` when tracked.  Floats use shortest round-trip formatting;
    LF line endings.  Reads the trace's columns, building no record."""
    records = trace.records
    rows = zip(records.k, records.residual_sq, records.elapsed, records.set_size)
    if records.error_sq is None:
        lines = [",".join(TRACE_COLUMNS)]
        lines += [f"{k},{res!r},{t!r},{size}" for k, res, t, size in rows]
    else:
        lines = [",".join(TRACE_COLUMNS + ("error_sq",))]
        lines += [f"{k},{res!r},{t!r},{size},{err!r}" for (k, res, t, size), err in zip(rows, records.error_sq)]
    return "\n".join(lines) + "\n"


def emit_table(report: BenchReport) -> str:
    """Plain-text summary, one row per method.  A trailing ``*`` marks
    methods whose iteration count had zero variance across runs."""
    header = f"{'method':<16}{'runs':>5}{'mean IT':>12}{'mean CPU s':>12}{'converged':>10}{'breakdown':>10}"
    lines = [f"problem: {report.problem}  (runs={report.runs}, base seed={report.seed})", header]
    starred = False
    for s in report.summaries:
        conv = s.statuses.get(SolveStatus.CONVERGED.value, 0)
        broke = s.statuses.get(SolveStatus.NUMERICAL_BREAKDOWN.value, 0)
        star = "*" if s.zero_variance else " "
        starred = starred or s.zero_variance
        lines.append(
            f"{s.method.value:<16}{len(s.iterations):>5}{s.mean_iterations:>12.1f}"
            f"{s.mean_seconds:>12.4f}{conv:>10}{broke:>10} {star}"
        )
    if starred:
        lines.append("* identical iteration count in every run (zero variance)")
    return "\n".join(lines) + "\n"


def report_to_json(report: BenchReport) -> dict:
    return {
        "problem": report.problem,
        "runs": report.runs,
        "base_seed": report.seed,
        "methods": [
            {
                "method": s.method.value,
                "iterations": s.iterations,
                "seconds": s.seconds,
                "mean_iterations": s.mean_iterations,
                "mean_seconds": s.mean_seconds,
                "statuses": s.statuses,
                "zero_variance": s.zero_variance,
            }
            for s in report.summaries
        ],
    }


def trace_filename(problem: str, method: MethodKind, run: int) -> str:
    return f"trace_{problem}_{method.value}_{run}.csv"


def write_outputs(spec: BenchSpec, report: BenchReport, problem) -> None:
    out = Path(spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "summary.json").write_text(
        json.dumps(report_to_json(report), indent=2) + "\n", encoding="utf-8"
    )
    (out / "summary.txt").write_text(emit_table(report), encoding="utf-8", newline="\n")
    for result in report.results:
        name = trace_filename(spec.problem, result.method, result.run)
        (out / name).write_text(emit_csv(result.trace), encoding="utf-8", newline="\n")
    if spec.diagnostics:
        _write_diagnostics(spec, report, problem, out)


def _write_diagnostics(spec: BenchSpec, report: BenchReport, problem, out: Path) -> None:
    """Factor reports along every run whose trace recorded its iterates
    (run 0 of each greedy method, see ``_run_cell``); needs a known root to
    anchor the eta-estimation ball, otherwise a note is emitted instead."""
    if problem.known_root is None:
        (out / "diagnostics.json").write_text(
            json.dumps({"note": "no known root; eta estimation skipped"}) + "\n",
            encoding="utf-8",
        )
        return
    eta = estimate_eta(problem, problem.known_root, 0.05, 2000, seeded_rng(spec.seed))
    payload = {"eta": eta.eta, "radius": eta.radius, "methods": {}}
    for result in report.results:
        if result.trace.iterates is None:
            continue
        try:
            rep = build_factor_report(problem, result.trace, eta, spec.threshold, result.method)
            payload["methods"][result.method.value] = rep.to_jsonable()
        except CappedKaczmarzError as exc:
            payload["methods"][result.method.value] = {"error": str(exc)}
    (out / "diagnostics.json").write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
