#!/usr/bin/env python3
"""Reproduce the iteration/time comparison tables on the Brown family.

Runs every method over a range of sizes and prints two aligned tables
(mean iterations, mean seconds).  Trace CSVs land under --out when given.

    python scripts/run_brown_tables.py --sizes 50,100,200 --runs 10 --seed 0
"""

import argparse
from pathlib import Path

from capped_kaczmarz.bench import BenchSpec, run_bench
from capped_kaczmarz.core import MethodKind

METHODS = (
    MethodKind.NRK,
    MethodKind.DR_CNK,
    MethodKind.RD_CNK,
    MethodKind.DB_CNK,
    MethodKind.RB_CNK,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", default="50,100,200", help="comma-separated dimensions")
    parser.add_argument("--runs", type=int, default=BenchSpec.runs)
    parser.add_argument("--seed", type=int, default=BenchSpec.seed)
    parser.add_argument("--out", type=Path, default=None, help="directory for trace CSVs")
    args = parser.parse_args()
    sizes = [int(tok) for tok in args.sizes.split(",")]

    rows = {}
    for n in sizes:
        spec = BenchSpec(
            problem=f"brown:{n}",
            methods=METHODS,
            runs=args.runs,
            seed=args.seed,
            out_dir=None if args.out is None else args.out / f"brown_{n}",
        )
        report = run_bench(spec)
        rows[n] = {s.method: s for s in report.summaries}

    header = f"{'n':>6}" + "".join(f"{m.value:>14}" for m in METHODS)
    print("mean iterations")
    print(header)
    for n in sizes:
        print(f"{n:>6}" + "".join(f"{rows[n][m].mean_iterations:>14.1f}" for m in METHODS))
    print()
    print("mean seconds per solve")
    print(header)
    for n in sizes:
        print(f"{n:>6}" + "".join(f"{rows[n][m].mean_seconds:>14.4f}" for m in METHODS))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
