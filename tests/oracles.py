"""Reference oracles the tests check the package against.

``block_step`` is the block projection written out from its definition,
with numpy's own ``lstsq`` (not the package's least-squares kernel), against
which the capped block methods are compared; ``glm_head`` is the GLM's
constant head Jacobian written out from its definition; ``serialize_libsvm``
writes a dataset back out so the parser can be checked by a round trip;
``masked_stable_sigmoid`` is the two-branch sigmoid the package's mask-free
one must equal bit for bit.
"""

from __future__ import annotations

import numpy as np

from capped_kaczmarz.core import ProblemInstance
from capped_kaczmarz.errors import EmptySet
from capped_kaczmarz.problems import Dataset, GLMProblem


def block_step(x: np.ndarray, tau, problem: ProblemInstance) -> np.ndarray:
    """Project ``x`` onto the joint linearization of the rows in ``tau`` via
    the minimum-norm least-squares correction (pseudoinverse action, from
    LAPACK ``gelsd``)."""
    tau = np.asarray(tau, dtype=int)
    if tau.size == 0:
        raise EmptySet("block step needs a nonempty index set")
    r = problem.residual(x)
    J = problem.jacobian(x)
    return x - np.linalg.lstsq(J[tau], r[tau], rcond=None)[0]


def glm_head(glm: GLMProblem) -> np.ndarray:
    """The d affine head rows' Jacobian ``[A / (lam p) | -I_d]``."""
    head = np.zeros((glm.d, glm.n))
    head[:, : glm.p] = glm.A / (glm.lam * glm.p)
    head[np.arange(glm.d), glm.p + np.arange(glm.d)] = -1.0
    return head


def masked_stable_sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)) evaluated with non-positive exponents only."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def serialize_libsvm(dataset: Dataset) -> str:
    """Inverse of :func:`parse_libsvm` up to label/whitespace normalization."""
    lines = []
    for label, entries in zip(dataset.labels, dataset.samples):
        parts = [f"{int(label):+d}"] + [f"{index}:{value!r}" for index, value in entries]
        lines.append(" ".join(parts))
    return "\n".join(lines) + ("\n" if lines else "")
