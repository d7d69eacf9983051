import itertools
import json
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from capped_kaczmarz import bench, cli
from capped_kaczmarz.bench import (
    BenchReport,
    BenchSpec,
    BenchSpecError,
    MethodSummary,
    emit_csv,
    emit_table,
    resolve_problem,
    run_bench,
    trace_filename,
)
from capped_kaczmarz.core import Convex, MethodKind, SolveStatus, SolverConfig
from capped_kaczmarz.diagnostics import build_factor_report, estimate_eta
from capped_kaczmarz.numerics import seeded_rng
from capped_kaczmarz.problems import BrownProblem, GLMProblem, LinearProblem
from capped_kaczmarz.solvers import solve

DATA = Path(__file__).parent / "data"


def counting_clock():
    counter = itertools.count()
    return lambda: next(counter) * 0.001


class TestSpecValidation:
    def test_empty_methods_rejected(self):
        with pytest.raises(BenchSpecError):
            BenchSpec(problem="brown:10", methods=())

    def test_zero_runs_rejected(self):
        with pytest.raises(BenchSpecError):
            BenchSpec(problem="brown:10", methods=(MethodKind.NK,), runs=0)

    def test_repeated_method_rejected(self):
        with pytest.raises(BenchSpecError, match="nrk"):
            BenchSpec(problem="brown:10", methods=(MethodKind.NRK, MethodKind.NK, MethodKind.NRK))


class TestResolveProblem:
    def test_brown_selector(self):
        problem, x0 = resolve_problem("brown:12")
        assert isinstance(problem, BrownProblem) and problem.n == 12
        assert np.all(x0 == 0.5)

    def test_synthetic_glm_selector(self):
        problem, x0 = resolve_problem("glm:synthetic:8,3,5")
        assert isinstance(problem, GLMProblem)
        assert problem.p == 8 and problem.d == 3
        assert np.all(x0 == 0.0)

    def test_glm_file_selector(self, tmp_path):
        path = tmp_path / "tiny.libsvm"
        path.write_text("+1 1:1 2:0.5\n-1 2:-1\n+1 1:0.25\n", encoding="utf-8")
        problem, x0 = resolve_problem(f"glm:{path}")
        assert isinstance(problem, GLMProblem)
        assert problem.p == 3 and problem.d == 2

    def test_linear_selector_is_consistent(self):
        problem, x0 = resolve_problem("linear:10,4,9")
        assert isinstance(problem, LinearProblem)
        assert problem.known_root is not None
        r = problem.residual(problem.known_root)
        assert float(r @ r) < 1e-20

    def test_unknown_selector(self):
        with pytest.raises(BenchSpecError):
            resolve_problem("mystery:3")

    def test_missing_file(self):
        with pytest.raises(BenchSpecError):
            resolve_problem("glm:/nonexistent/file.libsvm")


class TestRunBench:
    def test_single_run_mean_is_run_value(self):
        spec = BenchSpec(problem="linear:6,3,1", methods=(MethodKind.NRK,), runs=1, seed=4)
        report = run_bench(spec)
        summary = report.summaries[0]
        assert summary.mean_iterations == summary.iterations[0]
        assert len(report.results) == 1

    def test_mean_is_exact_rational(self):
        spec = BenchSpec(problem="brown:10", methods=(MethodKind.NRK,), runs=3, seed=0)
        report = run_bench(spec)
        s = report.summaries[0]
        assert s.mean_iterations == float(Fraction(sum(s.iterations), len(s.iterations)))

    def test_seeds_vary_per_run(self):
        spec = BenchSpec(problem="linear:8,4,2", methods=(MethodKind.NURK,), runs=3, seed=10)
        report = run_bench(spec)
        assert [r.seed for r in report.results] == [10, 11, 12]

    def test_outputs_written(self, tmp_path):
        spec = BenchSpec(
            problem="brown:10",
            methods=(MethodKind.RB_CNK,),
            runs=2,
            seed=0,
            out_dir=tmp_path,
            track_error=True,
        )
        report = run_bench(spec)
        assert (tmp_path / "summary.json").exists()
        assert (tmp_path / "summary.txt").exists()
        for run in range(2):
            assert (tmp_path / trace_filename("brown:10", MethodKind.RB_CNK, run)).exists()
        payload = json.loads((tmp_path / "summary.json").read_text())
        assert payload["methods"][0]["method"] == "rb-cnk"
        assert payload["methods"][0]["iterations"] == report.summaries[0].iterations

    def test_track_error_without_a_known_root_writes_no_error_column(self, tmp_path):
        # a GLM has no known root: the error is not tracked, and nothing says so
        spec = BenchSpec(
            problem="glm:synthetic:12,3,1",
            methods=(MethodKind.DR_CNK,),
            runs=1,
            out_dir=tmp_path,
            track_error=True,
        )
        report = run_bench(spec)
        assert report.results[0].trace.records.error_sq is None
        csv = (tmp_path / trace_filename(spec.problem, MethodKind.DR_CNK, 0)).read_text()
        assert csv.splitlines()[0] == ",".join(bench.TRACE_COLUMNS)

    def test_diagnostics_output(self, tmp_path):
        spec = BenchSpec(
            problem="brown:30",
            methods=(MethodKind.DR_CNK,),
            runs=1,
            seed=0,
            out_dir=tmp_path,
            diagnostics=True,
        )
        run_bench(spec)
        payload = json.loads((tmp_path / "diagnostics.json").read_text())
        assert payload["eta"] < 0.5
        assert "dr-cnk" in payload["methods"]

    def test_diagnostics_report_on_run_zero_without_solving_again(self, tmp_path, monkeypatch):
        calls = []

        def counting_solve(problem, x0, config):
            calls.append((config.method, config.seed))
            return solve(problem, x0, config)

        monkeypatch.setattr(bench, "solve", counting_solve)
        methods = (MethodKind.NRK, MethodKind.DR_CNK, MethodKind.DB_CNK)
        spec = BenchSpec(
            problem="linear:12,6,3", methods=methods, runs=2, seed=4, out_dir=tmp_path, diagnostics=True
        )
        report = run_bench(spec)
        assert sorted(calls) == sorted((m, seed) for m in methods for seed in (4, 5))
        # only the greedy methods' run 0 carries iterates
        assert [(r.method, r.run) for r in report.results if r.trace.iterates is not None] == [
            (MethodKind.DR_CNK, 0), (MethodKind.DB_CNK, 0)
        ]
        payload = json.loads((tmp_path / "diagnostics.json").read_text())
        assert list(payload["methods"]) == ["dr-cnk", "db-cnk"]
        # the same report as from a separate solve of run 0 that records iterates
        problem, x0 = resolve_problem(spec.problem)
        eta = estimate_eta(problem, problem.known_root, 0.05, 2000, seeded_rng(spec.seed))
        for method in (MethodKind.DR_CNK, MethodKind.DB_CNK):
            config = SolverConfig(method=method, seed=spec.seed, record_iterates=True)
            fresh = build_factor_report(problem, solve(problem, x0, config), eta, spec.threshold, method)
            assert payload["methods"][method.value] == json.loads(json.dumps(fresh.to_jsonable()))

    def test_diagnostics_note_without_a_known_root(self, tmp_path):
        spec = BenchSpec(
            problem="glm:synthetic:20,3,1",
            methods=(MethodKind.DR_CNK,),
            runs=1,
            seed=0,
            out_dir=tmp_path,
            diagnostics=True,
        )
        run_bench(spec)
        payload = json.loads((tmp_path / "diagnostics.json").read_text())
        assert payload == {"note": "no known root; eta estimation skipped"}
        assert (tmp_path / "summary.json").exists()

    def test_diagnostics_record_a_failed_report_and_go_on(self, tmp_path, monkeypatch):
        # an eta estimate of 0.6 is outside [0, 1/2): every report raises
        # InvalidEta, which is written in the method's place
        estimate = bench.estimate_eta
        monkeypatch.setattr(bench, "estimate_eta", lambda *args: replace(estimate(*args), eta=0.6))
        methods = (MethodKind.DR_CNK, MethodKind.DB_CNK)
        spec = BenchSpec(problem="linear:12,6,3", methods=methods, runs=1, seed=4, out_dir=tmp_path, diagnostics=True)
        run_bench(spec)
        payload = json.loads((tmp_path / "diagnostics.json").read_text())
        assert payload["eta"] == 0.6
        assert list(payload["methods"]) == ["dr-cnk", "db-cnk"]
        for report in payload["methods"].values():
            assert list(report) == ["error"] and "0.6" in report["error"]


class TestEmitCsv:
    def test_golden_file(self):
        clock = counting_clock()
        problem = LinearProblem(
            np.eye(4), np.array([1.0, 2.0, 3.0, 4.0]), known_root=np.array([1.0, 2.0, 3.0, 4.0])
        )
        config = SolverConfig(method=MethodKind.NK, seed=123, record_error=True, clock=clock)
        trace = solve(problem, np.zeros(4), config)
        golden = (DATA / "golden_trace.csv").read_text(encoding="utf-8")
        assert emit_csv(trace) == golden

    @pytest.mark.slow
    def test_round_trip_preserves_floats(self):
        problem = BrownProblem(10)
        config = SolverConfig(method=MethodKind.DR_CNK, seed=5)
        trace = solve(problem, 0.5 * np.ones(10), config)
        # at n = 10 the product row passes the eligibility cutoff: the first
        # step projects onto it alone, every coordinate moves past 2^9 / 10,
        # and the run never recovers, so the trace spans the whole cap
        assert trace.records[0].selected == (9,)
        assert trace.records[1].residual_sq >= (2.0**9 / 10) ** 20
        assert trace.status is SolveStatus.ITERATION_CAP_REACHED
        assert trace.total_iterations == config.max_iter
        text = emit_csv(trace)
        lines = text.strip().split("\n")
        assert lines[0] == "k,residual_sq,elapsed_s,selected_size"
        for line, rec in zip(lines[1:], trace.records):
            k, rsq, elapsed, size = line.split(",")
            assert int(k) == rec.k
            assert float(rsq) == rec.residual_sq  # exact round trip
            assert float(elapsed) == rec.elapsed
            assert int(size) == rec.set_size

    @pytest.mark.parametrize(
        "selector, method, record_error, status",
        [
            ("linear:12,6,3", MethodKind.NRK, True, SolveStatus.CONVERGED),
            ("brown:12", MethodKind.RB_CNK, False, SolveStatus.CONVERGED),
            ("brown:26", MethodKind.DR_CNK, False, SolveStatus.NUMERICAL_BREAKDOWN),
        ],
        ids=["error_sq", "block", "breakdown"],
    )
    def test_columns_give_the_record_formatters_bytes(self, selector, method, record_error, status):
        problem, x0 = resolve_problem(selector)
        config = SolverConfig(method=method, seed=1, record_error=record_error, clock=counting_clock())
        trace = solve(problem, x0, config)
        assert trace.status is status
        records = list(trace.records)
        if method is MethodKind.RB_CNK:
            assert max(len(rec.selected) for rec in records) > 1
        if status is SolveStatus.NUMERICAL_BREAKDOWN:
            assert not np.isfinite(records[-1].residual_sq)
        # the formatter that rendered one record object at a time
        with_error = any(rec.error_sq is not None for rec in records)
        assert with_error is record_error
        lines = [",".join(bench.TRACE_COLUMNS + (("error_sq",) if with_error else ()))]
        for rec in records:
            row = [str(rec.k), repr(rec.residual_sq), repr(rec.elapsed), str(rec.set_size)]
            if with_error:
                row.append("" if rec.error_sq is None else repr(rec.error_sq))
            lines.append(",".join(row))
        assert emit_csv(trace) == "\n".join(lines) + "\n"

    def test_lf_endings_and_header(self):
        problem = LinearProblem(np.eye(2), np.array([1.0, 1.0]))
        trace = solve(problem, np.zeros(2), SolverConfig(method=MethodKind.NK, seed=0))
        text = emit_csv(trace)
        assert "\r" not in text
        assert text.endswith("\n")

    def test_byte_identical_across_reruns(self, tmp_path):
        outputs = []
        for attempt in range(2):
            out = tmp_path / f"attempt{attempt}"
            spec = BenchSpec(
                problem="brown:15",
                methods=(MethodKind.DR_CNK,),
                runs=2,
                seed=7,
                out_dir=out,
                clock=counting_clock(),
            )
            run_bench(spec)
            outputs.append(
                [(out / trace_filename("brown:15", MethodKind.DR_CNK, r)).read_bytes() for r in range(2)]
            )
        assert outputs[0] == outputs[1]
        assert outputs[0][0] != outputs[0][1]  # different runs differ (seeded apart)


class TestEmitTable:
    def test_zero_variance_marker(self):
        summary = MethodSummary(
            method=MethodKind.DB_CNK, iterations=[1, 1, 1], seconds=[0.1, 0.1, 0.1],
            statuses={"converged": 3},
        )
        report = BenchReport(problem="brown:50", runs=3, seed=0, summaries=[summary])
        text = emit_table(report)
        assert "db-cnk" in text
        assert "zero variance" in text

    def test_error_column_nonincreasing_for_consistent_linear(self):
        spec = BenchSpec(
            problem="linear:12,6,3",
            methods=(MethodKind.NRK, MethodKind.DB_CNK),
            runs=2,
            seed=1,
            track_error=True,
        )
        report = run_bench(spec)
        for result in report.results:
            errors = [r.error_sq for r in result.trace.records]
            assert all(e is not None for e in errors)
            for before, after in zip(errors, errors[1:]):
                assert after <= before + 1e-9 * max(1.0, before)


class TestCli:
    def test_run_happy_path(self, tmp_path, capsys):
        code = cli.main(
            [
                "run", "--problem", "brown:10", "--methods", "db-cnk,rb-cnk",
                "--runs", "2", "--seed", "3", "--out", str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "db-cnk" in out and "rb-cnk" in out
        assert (tmp_path / "summary.json").exists()

    def test_run_glm_synthetic_converges_every_method(self, tmp_path, capsys):
        # the convergence histories of the single-sample and hybrid block
        # methods on a synthetic logistic-regression system
        methods = ["dr-cnk", "rd-cnk", "glm-hybrid-db", "glm-hybrid-rb"]
        code = cli.main(
            [
                "run", "--problem", "glm:synthetic:30,3,8", "--methods", ",".join(methods),
                "--runs", "1", "--seed", "8", "--out", str(tmp_path),
            ]
        )
        assert code == 0
        payload = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
        assert [entry["method"] for entry in payload["methods"]] == methods
        for entry in payload["methods"]:
            assert entry["statuses"] == {"converged": 1}, entry["method"]

    def test_env_var_overrides_out(self, tmp_path, monkeypatch, capsys):
        override = tmp_path / "env_out"
        monkeypatch.setenv("BENCH_OUT", str(override))
        code = cli.main(["run", "--problem", "brown:10", "--methods", "nk", "--runs", "1"])
        assert code == 0
        assert (override / "summary.json").exists()

    def test_unknown_method_exits_one(self, capsys):
        assert cli.main(["run", "--problem", "brown:10", "--methods", "bogus"]) == 1

    def test_repeated_method_exits_one_before_any_cell(self, tmp_path, monkeypatch, capsys):
        # each method's summary row and trace files are keyed by the method,
        # so a repeat would merge its runs and overwrite its traces
        monkeypatch.setattr(bench, "solve", lambda *args: pytest.fail("a cell ran"))
        code = cli.main(
            ["run", "--problem", "brown:6", "--methods", "nrk,nrk", "--runs", "2", "--out", str(tmp_path)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "nrk" in err
        assert list(tmp_path.iterdir()) == []

    def test_unresolvable_problem_exits_one(self, capsys):
        assert cli.main(["run", "--problem", "nope:1", "--methods", "nk"]) == 1

    def test_missing_argument_exits_one(self, capsys):
        assert cli.main(["run", "--methods", "nk"]) == 1

    def test_breakdown_maps_to_exit_two(self, monkeypatch, capsys):
        summary = MethodSummary(
            method=MethodKind.NK, iterations=[3], seconds=[0.0],
            statuses={"numerical_breakdown": 1},
        )
        report = BenchReport(problem="brown:10", runs=1, seed=0, summaries=[summary])
        fake = type(
            "R", (), {"summaries": [summary], "any_breakdown": True, "problem": "brown:10",
                      "runs": 1, "seed": 0, "results": []},
        )()
        monkeypatch.setattr(cli, "run_bench", lambda spec: fake)
        assert cli.main(["run", "--problem", "brown:10", "--methods", "nk"]) == 2

    def test_parse_libsvm_info(self, tmp_path, capsys):
        path = tmp_path / "toy.libsvm"
        path.write_text("+1 1:0.5\n-1 1:1.5\n", encoding="utf-8")
        assert cli.main(["parse-libsvm", str(path), "--info"]) == 0
        out = capsys.readouterr().out
        assert "samples (p):  2" in out
        assert "+1 x 1" in out

    def test_parse_libsvm_malformed_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.libsvm"
        path.write_text("+1 2:abc\n", encoding="utf-8")
        assert cli.main(["parse-libsvm", str(path)]) == 1
        assert "line 1" in capsys.readouterr().err

    def test_parse_libsvm_missing_file_exits_one(self, tmp_path, capsys):
        path = tmp_path / "missing.libsvm"
        assert cli.main(["parse-libsvm", str(path), "--info"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "missing.libsvm" in err

    def test_glm_with_no_features_exits_one(self, tmp_path, capsys):
        code = cli.main(
            ["run", "--problem", "glm:synthetic:10,0,1", "--methods", "glm-hybrid-db", "--out", str(tmp_path)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "no features" in err
        assert list(tmp_path.iterdir()) == []

    def test_hybrid_on_non_glm_problem_exits_one_before_any_cell(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(bench, "solve", lambda *args: pytest.fail("a cell ran"))
        code = cli.main(
            ["run", "--problem", "brown:10", "--methods", "nrk,glm-hybrid-db", "--out", str(tmp_path)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "glm-hybrid-db" in err
        assert list(tmp_path.iterdir()) == []

    def test_defaults_come_from_the_spec_and_the_config(self, monkeypatch):
        specs = []
        monkeypatch.setattr(cli, "run_bench", lambda spec: specs.append(spec) or run_bench(replace(spec, runs=1)))
        assert cli.main(["run", "--problem", "brown:5", "--methods", "dr-cnk"]) == 0
        spec = specs[0]
        config = SolverConfig(method=MethodKind.DR_CNK)
        assert spec.runs == BenchSpec.runs
        assert (spec.seed, spec.tol, spec.max_iter) == (config.seed, config.tol, config.max_iter)
        assert spec.threshold == config.threshold == Convex(0.5)
        assert spec.clock is config.clock

    def test_xi_mode_accepted(self, capsys):
        assert cli.main(["run", "--problem", "brown:10", "--methods", "rb-cnk",
                         "--runs", "1", "--xi", "0.9"]) == 0
