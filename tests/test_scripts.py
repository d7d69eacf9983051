"""Smoke runs of the experiment scripts, each in its own interpreter."""

import os
import subprocess
import sys
from pathlib import Path

from capped_kaczmarz.core import MethodKind

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_glm_synthetic_script_converges_every_method(tmp_path):
    done = run_script("run_glm_synthetic.py", "--p", "30", "--d", "3", "--runs", "1", "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr
    methods = {m.value for m in MethodKind}
    rows = [line.split() for line in done.stdout.splitlines() if line.split()[:1] and line.split()[0] in methods]
    assert {row[0] for row in rows} == {"dr-cnk", "rd-cnk", "glm-hybrid-db", "glm-hybrid-rb"}
    for method, runs, _, _, converged, breakdown, *_ in rows:
        assert (runs, converged, breakdown) == ("1", "1", "0"), method
    assert (tmp_path / "summary.json").is_file()


def test_brown_tables_script_prints_both_tables():
    done = run_script("run_brown_tables.py", "--sizes", "30", "--runs", "1")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert "mean iterations" in lines and "mean seconds per solve" in lines
    # one row for n = 30 under each table's header
    assert sum(line.split()[:1] == ["30"] for line in lines) == 2
