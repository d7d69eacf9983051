"""Set-up, timed rounds, correctness checks and metrics of one benchmark run.

A round solves every (cell, solve seed) of the workload once, checks each
result, then renders the round's traces the way ``bench run --out`` does.
A run builds the workload's problems, makes one round under ``tracemalloc``
for the peak heap (it also warms the caches), then makes whole rounds until
``--seconds`` have passed.  Each untraced timed round first builds the
problems afresh in a timed block of back-to-back builds, for the set-up
time.  With ``--trace 1`` each untraced round is followed by a traced one,
with a span around every call from ``solve`` into the other layers, so both
kinds see the same drift in machine speed.  Times are reported in the
reference seconds of ``calibration.py``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import statistics
import time
import tracemalloc
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from capped_kaczmarz import MethodKind, SolveStatus, SolverConfig, SolveTrace, solve
from capped_kaczmarz.bench import BenchReport, MethodSummary, emit_csv, emit_table, report_to_json, resolve_problem

from calibration import FORMAT_REFERENCE_S, Calibrator, scale
from checks import make_check
from tracing import LOOP, Tracer, instrumented
from workloads import TOL, WORKLOADS, Cell, Workload

SETUP_BLOCK_S = 0.05  # a set-up block repeats the build until this many wall seconds have passed
WRITE_REPEATS = 5

END_TO_END_UNITS = {
    "solve_s": "s",
    "iterations": "count",
    "setup_s": "s",
    "write_s": "s",
    "peak_mb": "MB",
}

PER_LAYER_UNITS = {
    "problems.residual.calls": "count",
    "problems.residual.busy_s": "s",
    "problems.residual.per_iter": "calls/iter",
    "problems.row_norms.busy_s": "s",
    "problems.row_grad.busy_s": "s",
    "problems.jacobian.calls": "count",
    "problems.jacobian.busy_s": "s",
    "problems.jacobian.rows_used": "ratio",
    "selection.calls": "count",
    "selection.geometry.busy_s": "s",
    "selection.threshold.busy_s": "s",
    "selection.set.busy_s": "s",
    "selection.sample.busy_s": "s",
    "selection.set_size.mean": "rows",
    "numerics.lstsq.calls": "count",
    "numerics.lstsq.busy_s": "s",
    "numerics.lstsq.rows.mean": "rows",
    "numerics.row_norms.busy_s": "s",
    "numerics.draw.busy_s": "s",
    "solvers.step.busy_s": "s",
    "solvers.hybrid_head.busy_s": "s",
    "solvers.loop.self_s": "s",
    "solvers.us_per_iter": "us",
    "bench.emit_csv.busy_s": "s",
    "bench.csv_bytes": "bytes",
    "trace.overhead": "ratio",
}

# per-layer metric -> span whose self time it reports
_BUSY_SPANS = {
    "problems.residual.busy_s": ("problems.residual",),
    "problems.row_norms.busy_s": ("problems.row_norms",),
    "problems.row_grad.busy_s": ("problems.row_grad",),
    "problems.jacobian.busy_s": ("problems.jacobian",),
    "selection.geometry.busy_s": ("selection.geometry",),
    "selection.threshold.busy_s": ("selection.threshold",),
    "selection.set.busy_s": ("selection.set",),
    "selection.sample.busy_s": ("selection.sample",),
    "numerics.lstsq.busy_s": ("numerics.lstsq",),
    "numerics.row_norms.busy_s": ("numerics.row_norms",),
    "numerics.draw.busy_s": ("numerics.draw",),
    "solvers.step.busy_s": ("solvers.step",),
    "solvers.hybrid_head.busy_s": ("solvers.hybrid_head",),
    "solvers.loop.self_s": (LOOP,),
    "bench.emit_csv.busy_s": ("bench.emit_csv",),
}


@dataclass
class Solve:
    cell: Cell
    seed: int
    seconds: float  # wall seconds inside solve
    trace: SolveTrace | None = None  # dropped once the round is written
    iterations: int = 0
    error: str | None = None  # why the output is wrong
    failure: str | None = None  # why the solve did not converge


@dataclass
class Round:
    solves: list[Solve]
    kernels: list[float]  # seconds of the kernel runs before the first solve and after each
    setup_s: float = 0.0  # reference seconds of one build of the round's problems
    write_s: tuple[float, ...] = ()  # reference seconds of each rendering
    csv_bytes: int = 0
    tracer: Tracer | None = None

    @property
    def iterations(self) -> int:
        return sum(s.iterations for s in self.solves)

    @property
    def scale(self) -> float:
        """Wall seconds to reference seconds for the round's solves."""
        return scale(self.kernels)

    def cell_seconds(self) -> dict[str, float]:
        """Reference seconds per cell, summed over the solve seeds."""
        factor = self.scale
        out: dict[str, float] = Counter()
        for s in self.solves:
            out[s.cell.name] += s.seconds * factor
        return out

    def iteration_key(self) -> list[tuple[str, int, int]]:
        return [(s.cell.name, s.seed, s.iterations) for s in self.solves]


def verify(solve_: Solve, problem, check) -> None:
    """Fill ``failure`` or ``error`` for one finished solve."""
    trace = solve_.trace
    if trace.status is not SolveStatus.CONVERGED:
        solve_.failure = f"{solve_.cell.name} seed {solve_.seed}: status {trace.status.value}"
        return
    sizes = [rec.set_size for rec in trace.records[:-1]]
    if sizes and not 1 <= min(sizes) <= max(sizes) <= problem.m:
        solve_.error = f"{solve_.cell.name} seed {solve_.seed}: set size outside [1, {problem.m}]"
        return
    solve_.error = check(trace.final_x)


def bench_report(selector: str, solves: list[Solve]) -> BenchReport:
    """The ``bench run`` summary of one problem's solves."""
    mine = [s for s in solves if s.cell.selector == selector]
    summaries = []
    for method in dict.fromkeys(s.cell.method for s in mine):
        runs = [s for s in mine if s.cell.method == method]
        summaries.append(
            MethodSummary(
                method=MethodKind(method),
                iterations=[s.iterations for s in runs],
                seconds=[s.seconds for s in runs],
                statuses=dict(Counter(s.trace.status.value for s in runs)),
            )
        )
    seeds = sorted({s.seed for s in mine})
    return BenchReport(problem=selector, runs=len(seeds), seed=seeds[0], summaries=summaries)


class Bench:
    """One workload at one base seed: its problems, checks and rounds."""

    def __init__(self, workload: Workload, base_seed: int):
        self.workload = workload
        self.seeds = workload.solve_seeds(base_seed)
        self.calibrator = Calibrator()
        self.built: dict = {}
        self.checks = {selector: make_check(selector, TOL) for selector in workload.selectors}

    def set_up(self) -> float:
        """Resolve every selector back to back for ``SETUP_BLOCK_S``; keep
        the last set and return the wall seconds one set took."""
        builds = 0
        started = time.perf_counter()
        while not builds or time.perf_counter() - started < SETUP_BLOCK_S:
            self.built = {selector: resolve_problem(selector) for selector in self.workload.selectors}
            builds += 1
        return (time.perf_counter() - started) / builds

    def solve_round(self, tracer: Tracer | None = None) -> Round:
        solve_fn = solve if tracer is None else tracer.wrap(LOOP, solve)
        solves, kernels = [], [self.calibrator.seconds()]
        for cell in self.workload.cells:
            problem, x0 = self.built[cell.selector]
            for seed in self.seeds:
                config = SolverConfig(method=MethodKind(cell.method), tol=TOL, seed=seed)
                if tracer is not None:
                    tracer.cell = cell.name
                started = time.perf_counter()
                try:
                    trace = solve_fn(problem, x0, config)
                except Exception as exc:  # a crash is one failed solve, not a failed run
                    solves.append(Solve(cell, seed, 0.0, failure=f"{cell.name} seed {seed}: {exc!r}"))
                    kernels.append(self.calibrator.seconds())
                    continue
                seconds = time.perf_counter() - started
                kernels.append(self.calibrator.seconds())
                s = Solve(cell, seed, seconds, trace, trace.total_iterations)
                verify(s, problem, self.checks[cell.selector])
                solves.append(s)
        return Round(solves, kernels)

    def write_round(self, round_: Round, emit=emit_csv) -> None:
        """Render the round's traces and summaries as ``bench run --out``
        would (in memory) ``WRITE_REPEATS`` times, keep the times,
        then drop the traces."""
        done = [s for s in round_.solves if s.trace is not None]
        times, kernels = [], [self.calibrator.format_seconds()]
        for _ in range(WRITE_REPEATS):
            started = time.perf_counter()
            csv_bytes = sum(len(emit(s.trace)) for s in done)
            for selector in {s.cell.selector for s in done}:
                report = bench_report(selector, done)
                emit_table(report)
                json.dumps(report_to_json(report), indent=2)
            times.append(time.perf_counter() - started)
            kernels.append(self.calibrator.format_seconds())
        factor = scale(kernels, FORMAT_REFERENCE_S)
        round_.write_s = tuple(t * factor for t in times)
        round_.csv_bytes = csv_bytes
        for s in round_.solves:
            s.trace = None

    def plain_round(self) -> Round:
        setup_wall = self.set_up()
        round_ = self.solve_round()  # its first kernel run follows the set-up block
        round_.setup_s = setup_wall * round_.scale
        self.write_round(round_)
        return round_

    def traced_round(self) -> Round:
        tracer = Tracer()
        with instrumented(tracer, [problem for problem, _ in self.built.values()]):
            round_ = self.solve_round(tracer)
        tracer.cell = "write"
        self.write_round(round_, emit=tracer.wrap("bench.emit_csv", emit_csv))
        round_.tracer = tracer
        return round_

    def timed_rounds(self, seconds: float, traced: bool = False) -> tuple[list[Round], list[Round]]:
        """Whole untraced rounds until ``seconds`` have passed (at least
        one); with ``traced``, each is followed by a traced round."""
        plain, traced_rounds = [], []
        deadline = time.perf_counter() + seconds
        while not plain or time.perf_counter() < deadline:
            plain.append(self.plain_round())
            if traced:
                traced_rounds.append(self.traced_round())
        return plain, traced_rounds


def solve_seconds(rounds: list[Round]) -> float:
    """Sum over cells of the cell's median reference seconds per round."""
    per_cell = [r.cell_seconds() for r in rounds]
    return sum(statistics.median(c[name] for c in per_cell) for name in per_cell[0])


def layer_metrics(round_: Round) -> dict[str, float]:
    """Per-layer figures of one traced round; times in reference seconds."""
    layers = round_.tracer.totals()
    counts = layers["counts"]

    def calls(name: str) -> int:
        return layers.get(name, {}).get("calls", 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out = {
        metric: round_.scale * sum(layers.get(name, {}).get("self_s", 0.0) for name in names)
        for metric, names in _BUSY_SPANS.items()
    }
    out.update(
        {
            "problems.residual.calls": calls("problems.residual"),
            "problems.residual.per_iter": ratio(calls("problems.residual"), round_.iterations),
            "problems.jacobian.calls": calls("problems.jacobian"),
            "problems.jacobian.rows_used": ratio(
                counts.get("problems.jacobian.rows_used", 0.0), counts.get("problems.jacobian.rows_built", 0.0)
            ),
            "selection.calls": calls("selection.set"),
            "selection.set_size.mean": ratio(counts.get("selection.set_size", 0.0), calls("selection.set")),
            "numerics.lstsq.calls": calls("numerics.lstsq"),
            "numerics.lstsq.rows.mean": ratio(counts.get("numerics.lstsq.rows", 0.0), calls("numerics.lstsq")),
            "bench.csv_bytes": round_.csv_bytes,
        }
    )
    out["bench.emit_csv.busy_s"] /= WRITE_REPEATS  # the round's traces are rendered that many times
    return out


def _cell_line(cell: Cell, iterations: int, plain: list[Round], traced: list[Round]) -> str:
    """One log line per cell: iterations, times and, when traced, where the
    solve's time went and how often it evaluated the residual."""
    ref_s = statistics.median(r.cell_seconds()[cell.name] for r in plain)
    wall_s = statistics.median(sum(s.seconds for s in r.solves if s.cell == cell) for r in plain)
    line = f"# cell {cell.name}: iterations {iterations}, solve_s {ref_s:.4f} (wall {wall_s:.4f})"
    if traced:
        layers = traced[-1].tracer.totals(cells={cell.name})
        loop = layers[LOOP]["total_s"]
        spans = sorted((n for n in layers if n != "counts"), key=lambda n: -layers[n]["self_s"])
        residual_calls = layers.get("problems.residual", {}).get("calls", 0)
        line += f" | residual calls/iter {residual_calls / max(iterations, 1):.3f} | self time: " + ", ".join(
            f"{name} {layers[name]['self_s'] / loop:.1%}" for name in spans
        )
    return line


def run(workload: Workload, base_seed: int, seconds: float, trace: bool, log=print) -> dict:
    """One benchmark run; returns the result object that is printed last."""
    bench = Bench(workload, base_seed)
    bench.set_up()

    tracemalloc.start()
    try:
        peak_round = bench.solve_round()
        peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    bench.write_round(peak_round)

    plain, traced = bench.timed_rounds(seconds, traced=trace)
    rounds = [peak_round] + plain + traced

    solves = [s for r in rounds for s in r.solves]
    errors = [s.error for s in solves if s.error]
    failures = [s.failure for s in solves if s.failure]
    if any(r.iteration_key() != peak_round.iteration_key() for r in rounds):
        errors.append("iteration counts differ between rounds of the same seeds")
    for message in (errors + failures)[:20]:
        log(f"# problem: {message}")

    untraced_s = solve_seconds(plain)
    iterations = peak_round.iterations
    for cell in workload.cells:
        cell_iterations = sum(s.iterations for s in peak_round.solves if s.cell == cell)
        log(_cell_line(cell, cell_iterations, plain, traced))
    log(
        f"# rounds: {len(plain)} untraced, {len(traced)} traced; solve seeds {list(bench.seeds)};"
        f" reference seconds per wall second {statistics.median(r.scale for r in plain):.3f}"
    )

    if trace:
        per_round = [layer_metrics(r) for r in traced]
        metrics = {name: statistics.median(m[name] for m in per_round) for name in per_round[0]}
        metrics["solvers.us_per_iter"] = 1e6 * untraced_s / max(iterations, 1)
        # each traced round against the untraced round just before it
        metrics["trace.overhead"] = statistics.median(
            sum(t.cell_seconds().values()) / sum(p.cell_seconds().values()) for p, t in zip(plain, traced)
        ) - 1.0
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "solve_s": untraced_s,
            "iterations": iterations,
            "setup_s": statistics.median(r.setup_s for r in plain),
            "write_s": statistics.median(t for r in plain for t in r.write_s),
            "peak_mb": peak_mb,
        }
        units = END_TO_END_UNITS
    return {
        "correct": not errors,
        "attempted": len(solves),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def _openblas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, when numpy bundles one."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.machine()


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy < 1.26 has no dict form
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
    }


def _non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _positive(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError("must be > 0")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Solver benchmark: one workload, one run.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=_non_negative, default=0, help="base seed of the solve seeds")
    parser.add_argument("--seconds", type=_positive, default=20.0, help="length of the timed rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics")
    args = parser.parse_args(argv)
    print("# environment " + json.dumps(environment()), flush=True)
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0
