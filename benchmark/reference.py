"""Reference figures: run each workload over ten base seeds, one run at a
time, and print each metric's median and quartiles.

    python3 benchmark/reference.py

Runs ``run.py`` in a fresh process per (workload, seed), untraced, for the
``run_seconds`` of ``BENCHMARK.json``, plus one traced run per workload on the
first seed.  Every result line is kept in ``benchmark/out/reference.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SEEDS = range(10)


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    return {"workload": workload, "seed": seed, "trace": trace, "log": lines[:-1], "result": json.loads(lines[-1])}


def main() -> int:
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    runs = []
    for workload in WORKLOADS:
        plain = [run_once(workload, seed, seconds, 0) for seed in SEEDS]
        traced = run_once(workload, SEEDS[0], seconds, 1)
        runs += plain + [traced]
        print(f"{workload}: {len(plain)} runs, failed {sum(r['result']['failed'] for r in plain)}"
              f" of {sum(r['result']['attempted'] for r in plain)} solves,"
              f" correct {all(r['result']['correct'] for r in plain + [traced])}")
        for name in plain[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in plain]
            unit = plain[0]["result"]["metrics"][name]["unit"]
            q1, median, q3 = statistics.quantiles(values, n=4)
            print(f"  {name:12s} median {median:.6g} {unit}  quartiles {q1:.6g} .. {q3:.6g}"
                  f"  spread {(q3 - q1) / median:.3f}")
        walls = [sum(float(line.split("(wall ")[1].split(")")[0]) for line in r["log"] if line.startswith("# cell"))
                 for r in plain]
        q1, median, q3 = statistics.quantiles(walls, n=4)
        print(f"  {'(solve wall)':12s} median {median:.6g} s  quartiles {q1:.6g} .. {q3:.6g}"
              f"  spread {(q3 - q1) / median:.3f}")
        for line in traced["log"]:
            if line.startswith("# cell"):
                print("  " + line[2:])
        print(f"  trace.overhead {traced['result']['metrics']['trace.overhead']['value']:.3f}")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "reference.json").write_text(json.dumps(runs, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
