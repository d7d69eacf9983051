"""Run one workload of the solver benchmark.

    python3 benchmark/run.py --workload brown-single --seed 0 --seconds 20 --trace 0

Run it from a checkout of the repository: the package is imported from the
checkout's ``src`` directory, and the run stops with exit code 2 when that
directory is missing.  The BLAS is pinned to one thread before numpy loads.
The last line of standard output is the JSON result; see README.md.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BLAS_THREADS = "1"
HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main() -> int:
    # OpenBLAS and OpenMP read their thread counts once, when numpy loads them
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    if not (SRC / "capped_kaczmarz" / "__init__.py").is_file():
        print(f"run.py: no package at {SRC / 'capped_kaczmarz'}; run it from a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import harness

    return harness.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
