"""Bit-for-bit fingerprints of seeded solver traces.

Each case solves one small cell with one method, seed and threshold mode,
and hashes every record's ``(k, residual_sq, selected, set_size)``, the
status and the bytes of ``final_x``.  The stored digests in
``data/trace_fingerprints.json`` pin the arithmetic of every layer a solve
runs through, so an optimisation that claims to keep seeded traces
identical is checked here, not just by convergence.

The same solve also gives a selection digest, stored in
``data/selection_fingerprints.json``: every record's ``(k, selected,
set_size)``, the status and the iteration count, with no floats.  A change
that moves only the last bits of the steps moves the first digest but must
keep this one: the rows each iteration selects stay the same.

Regenerate both files (only for a change that is meant to move the traces,
and say so; check that the selection digests it rewrites are unchanged,
or say why they moved) with::

    PYTHONPATH=src python tests/test_trace_fingerprint.py

It prints the id of every case whose trace digest or selection digest it
changed, one line each, so that the change can name them.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np
import pytest

from capped_kaczmarz.bench import resolve_problem
from capped_kaczmarz.core import HYBRID_KINDS, Convex, MethodKind, Scaled, SolverConfig
from capped_kaczmarz.solvers import solve

DIGESTS = Path(__file__).parent / "data" / "trace_fingerprints.json"
SELECTIONS = Path(__file__).parent / "data" / "selection_fingerprints.json"

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
    "glm:synthetic:200,10,8": (
        MethodKind.DR_CNK,
        MethodKind.DB_CNK,
        MethodKind.RB_CNK,
        MethodKind.GLM_HYBRID_DB,
        MethodKind.GLM_HYBRID_RB,
    ),
}


def case_ids() -> list[str]:
    return [
        f"{selector} {method.value} {mode} {seed}"
        for selector, methods in CELLS.items()
        for method in methods
        for mode in MODES
        for seed in SEEDS
    ]


def fingerprints(case: str) -> tuple[str, str]:
    """The full trace digest and the selection digest of one solve."""
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
    rows = hashlib.sha256()
    for rec in trace.records:
        h.update(struct.pack("<qdq", rec.k, rec.residual_sq, rec.set_size))
        selected = np.asarray(rec.selected, dtype="<i8").tobytes()
        h.update(selected)
        # the row count first, so records cannot run into each other
        rows.update(struct.pack("<qqq", rec.k, rec.set_size, len(rec.selected)))
        rows.update(selected)
    h.update(trace.status.value.encode())
    h.update(np.asarray(trace.final_x, dtype="<f8").tobytes())
    rows.update(trace.status.value.encode())
    rows.update(struct.pack("<q", trace.total_iterations))
    return h.hexdigest(), rows.hexdigest()


def read_digests(path: Path) -> dict[str, str]:
    return json.loads(path.read_text(encoding="utf-8"))


def write_digests(path: Path, digests: dict[str, str]) -> None:
    with path.open("w", encoding="utf-8") as out:
        json.dump(digests, out, indent=1, sort_keys=True)
        out.write("\n")


@pytest.fixture(scope="module")
def stored() -> dict[str, str]:
    return read_digests(DIGESTS)


@pytest.fixture(scope="module")
def stored_selections() -> dict[str, str]:
    return read_digests(SELECTIONS)


def test_every_case_has_a_stored_digest(stored, stored_selections):
    assert sorted(stored) == sorted(case_ids())
    assert sorted(stored_selections) == sorted(case_ids())


@pytest.mark.parametrize("case", case_ids())
def test_trace_matches_stored_digest(case, stored, stored_selections):
    digest, selection = fingerprints(case)
    # a moved selection is the graver change, so it is reported first
    assert selection == stored_selections[case]
    assert digest == stored[case]


if __name__ == "__main__":
    before = {"trace": read_digests(DIGESTS), "selection": read_digests(SELECTIONS)}
    results = {case: fingerprints(case) for case in case_ids()}
    write_digests(DIGESTS, {case: pair[0] for case, pair in results.items()})
    write_digests(SELECTIONS, {case: pair[1] for case, pair in results.items()})
    for case, (digest, selection) in results.items():
        for kind, new in (("trace", digest), ("selection", selection)):
            if before[kind].get(case) != new:
                print(f"{kind} digest changed: {case}")
