"""Command-line entry point.

Subcommands::

    bench run --problem brown:50 --methods nrk,dr-cnk --runs 10 --seed 7 \
        --tol 1e-6 --max-iter 200000 --theta 0.5 --out results/ \
        [--track-error] [--diagnostics]
    bench parse-libsvm <path> --info

Exit codes: 0 full success, 1 specification errors, 2 any per-run
numerical breakdown.  BENCH_OUT overrides --out.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .bench import BenchSpec, BenchSpecError, emit_table, run_bench
from .core import Convex, MethodKind, Scaled
from .errors import CappedKaczmarzError
from .problems import load_libsvm


class _Parser(argparse.ArgumentParser):
    """Argument errors are specification errors: exit 1, not argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise BenchSpecError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="bench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a benchmark specification")
    run.add_argument("--problem", required=True,
                     help="brown:n | glm:path | glm:synthetic:p,d,seed | linear:m,n,seed")
    run.add_argument("--methods", required=True,
                     help="comma-separated method names, e.g. nrk,dr-cnk,db-cnk")
    run.add_argument("--runs", type=int, default=10)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--tol", type=float, default=1e-6)
    run.add_argument("--max-iter", type=int, default=200_000)
    group = run.add_mutually_exclusive_group()
    group.add_argument("--theta", type=float, default=None,
                       help="convex-blend threshold parameter in [0, 1] (default 0.5)")
    group.add_argument("--xi", type=float, default=None,
                       help="scaled threshold parameter in (0, 1]")
    run.add_argument("--out", type=Path, default=None, help="output directory")
    run.add_argument("--track-error", action="store_true")
    run.add_argument("--diagnostics", action="store_true")

    info = sub.add_parser("parse-libsvm", help="parse a dataset file")
    info.add_argument("path", type=Path)
    info.add_argument("--info", action="store_true", help="print dataset statistics")
    return parser


def _parse_methods(raw: str) -> tuple[MethodKind, ...]:
    methods = []
    for token in raw.split(","):
        token = token.strip().lower()
        if not token:
            continue
        try:
            methods.append(MethodKind(token))
        except ValueError:
            valid = ", ".join(k.value for k in MethodKind)
            raise BenchSpecError(f"unknown method {token!r}; valid: {valid}") from None
    return tuple(methods)


def _run_command(args) -> int:
    if args.xi is not None:
        threshold = Scaled(args.xi)
    else:
        threshold = Convex(0.5 if args.theta is None else args.theta)
    out_dir = args.out
    env_out = os.environ.get("BENCH_OUT")
    if env_out:
        out_dir = Path(env_out)
    spec = BenchSpec(
        problem=args.problem,
        methods=_parse_methods(args.methods),
        runs=args.runs,
        seed=args.seed,
        threshold=threshold,
        tol=args.tol,
        max_iter=args.max_iter,
        out_dir=out_dir,
        track_error=args.track_error,
        diagnostics=args.diagnostics,
    )
    report = run_bench(spec)
    sys.stdout.write(emit_table(report))
    if out_dir is not None:
        print(f"outputs written to {out_dir}")
    return 2 if report.any_breakdown else 0


def _parse_libsvm_command(args) -> int:
    dataset = load_libsvm(args.path)
    print(f"samples (p):  {dataset.p}")
    print(f"features (d): {dataset.d}")
    if args.info and dataset.p:
        positive = int((dataset.labels > 0).sum())
        print(f"labels:       +1 x {positive}, -1 x {dataset.p - positive}")
        print(f"density:      {dataset.density:.4f}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return _run_command(args)
        return _parse_libsvm_command(args)
    except (CappedKaczmarzError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
