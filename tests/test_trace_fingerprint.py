"""Bit-for-bit fingerprints of seeded solver traces.

Each case solves one small cell with one method, seed and threshold mode,
and hashes every record's ``(k, residual_sq, selected, set_size)``, the
status and the bytes of ``final_x``.  The stored digests in
``data/trace_fingerprints.json`` pin the arithmetic of every layer a solve
runs through, so an optimisation that claims to keep seeded traces
identical is checked here, not just by convergence.

Regenerate the digests (only for a change that is meant to move the
traces, and say so) with::

    PYTHONPATH=src python tests/test_trace_fingerprint.py > tests/data/trace_fingerprints.json
"""

from __future__ import annotations

import hashlib
import json
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

from capped_kaczmarz.bench import resolve_problem
from capped_kaczmarz.core import HYBRID_KINDS, Convex, MethodKind, Scaled, SolverConfig
from capped_kaczmarz.solvers import solve

DIGESTS = Path(__file__).parent / "data" / "trace_fingerprints.json"

# a cap keeps the small-n distance-rule blow-ups on Brown from running for
# 200k iterations; the digest covers whatever the cap leaves
MAX_ITER = 1500
SEEDS = (0, 1)
MODES = {"convex": Convex(0.5), "scaled": Scaled(0.5)}
NON_HYBRID = tuple(m for m in MethodKind if m not in HYBRID_KINDS)
CELLS = {
    "brown:8": NON_HYBRID,
    "brown:50": NON_HYBRID,
    "brown:200": (MethodKind.NRK, MethodKind.DR_CNK, MethodKind.RD_CNK),
    "linear:300,40,2": NON_HYBRID,
    "glm:synthetic:60,6,3": tuple(MethodKind),
}


def case_ids() -> list[str]:
    return [
        f"{selector} {method.value} {mode} {seed}"
        for selector, methods in CELLS.items()
        for method in methods
        for mode in MODES
        for seed in SEEDS
    ]


def fingerprint(case: str) -> str:
    selector, method, mode, seed = case.split()
    problem, x0 = resolve_problem(selector)
    config = SolverConfig(
        method=MethodKind(method),
        seed=int(seed),
        threshold=MODES[mode],
        max_iter=MAX_ITER,
        clock=lambda: 0.0,
    )
    trace = solve(problem, x0, config)
    h = hashlib.sha256()
    for rec in trace.records:
        h.update(struct.pack("<qdq", rec.k, rec.residual_sq, rec.set_size))
        h.update(np.asarray(rec.selected, dtype="<i8").tobytes())
    h.update(trace.status.value.encode())
    h.update(np.asarray(trace.final_x, dtype="<f8").tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def stored() -> dict[str, str]:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def test_every_case_has_a_stored_digest(stored):
    assert sorted(stored) == sorted(case_ids())


@pytest.mark.parametrize("case", case_ids())
def test_trace_matches_stored_digest(case, stored):
    assert fingerprint(case) == stored[case]


if __name__ == "__main__":
    json.dump({case: fingerprint(case) for case in case_ids()}, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
