"""Reference oracles the tests check the package against.

``block_step`` is the block projection written out from its definition,
against which the capped block methods are compared; ``serialize_libsvm``
writes a dataset back out so the parser can be checked by a round trip.
"""

from __future__ import annotations

import numpy as np

from capped_kaczmarz.core import ProblemInstance
from capped_kaczmarz.errors import EmptySet
from capped_kaczmarz.numerics import min_norm_least_squares
from capped_kaczmarz.problems import Dataset


def block_step(x: np.ndarray, tau, problem: ProblemInstance) -> np.ndarray:
    """Project ``x`` onto the joint linearization of the rows in ``tau`` via
    the minimum-norm least-squares correction (pseudoinverse action)."""
    tau = np.asarray(tau, dtype=int)
    if tau.size == 0:
        raise EmptySet("block step needs a nonempty index set")
    r = problem.residual(x)
    J = problem.jacobian(x)
    return x - min_norm_least_squares(J[tau], r[tau])


def serialize_libsvm(dataset: Dataset) -> str:
    """Inverse of :func:`parse_libsvm` up to label/whitespace normalization."""
    lines = []
    for label, entries in zip(dataset.labels, dataset.samples):
        parts = [f"{int(label):+d}"] + [f"{index}:{value!r}" for index, value in entries]
        lines.append(" ".join(parts))
    return "\n".join(lines) + ("\n" if lines else "")
