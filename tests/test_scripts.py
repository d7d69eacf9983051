"""Smoke runs of the experiment scripts, each in its own interpreter."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_brown_tables_script_prints_both_tables():
    done = run_script("run_brown_tables.py", "--sizes", "30", "--runs", "1")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert "mean iterations" in lines and "mean seconds per solve" in lines
    # one row for n = 30 under each table's header
    assert sum(line.split()[:1] == ["30"] for line in lines) == 2
