"""Dense linear-algebra and sampling kernels.

Everything here is a thin, contract-checked wrapper around numpy's LAPACK
bindings plus the one PRNG identity the whole package commits to (PCG64),
so that solver traces are reproducible bit-for-bit given a seed.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import AllWeightsZero, FactorizationFailure


def row_sq_norms(J: np.ndarray) -> np.ndarray:
    """Squared 2-norm of every row of ``J``."""
    J = np.asarray(J, dtype=float)
    return np.einsum("ij,ij->i", J, J)


def min_norm_least_squares(J: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Minimum-2-norm minimizer of ``||J d - rhs||_2``.

    Uses the SVD-backed LAPACK driver behind ``numpy.linalg.lstsq`` with the
    standard rank cutoff ``max(rows, cols) * eps`` relative to the largest
    singular value, so rank-deficient systems get the pseudoinverse action.
    """
    J = np.asarray(J, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if J.ndim != 2 or J.shape[0] != rhs.shape[0]:
        raise FactorizationFailure(
            f"shape mismatch: J is {J.shape}, rhs has length {rhs.shape}"
        )
    if not (np.isfinite(J).all() and np.isfinite(rhs).all()):
        raise FactorizationFailure("non-finite entries in least-squares input")
    try:
        delta, *_ = np.linalg.lstsq(J, rhs, rcond=None)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise FactorizationFailure(str(exc)) from exc
    return delta


def singular_extremes(J: np.ndarray) -> tuple[float, float]:
    """Return ``(sigma_max, h2)`` for a dense matrix.

    ``sigma_max`` is the largest singular value.  ``h2`` is the infimum of
    ``||Jx|| / ||x||`` over nonzero ``x``: the smallest singular value when
    ``J`` has at least as many rows as columns, and exactly 0 for a wide
    matrix (nontrivial null space).
    """
    J = np.asarray(J, dtype=float)
    if J.ndim != 2 or J.size == 0:
        raise FactorizationFailure("singular_extremes requires a nonempty matrix")
    if not np.isfinite(J).all():
        raise FactorizationFailure("non-finite entries in SVD input")
    try:
        s = np.linalg.svd(J, compute_uv=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise FactorizationFailure(str(exc)) from exc
    sigma_max = float(s[0])
    h2 = float(s[-1]) if J.shape[0] >= J.shape[1] else 0.0
    return sigma_max, h2


def seeded_rng(seed: int) -> np.random.Generator:
    """Deterministic PRNG stream for ``seed``.

    The generator identity is pinned to PCG64 so that traces replay
    identically across platforms and sessions.  Uniform variates come from
    ``Generator.random()`` (doubles in [0, 1)).
    """
    return np.random.Generator(np.random.PCG64(int(seed)))


def draw_weighted_index(rng: np.random.Generator, weights: np.ndarray) -> int:
    """Sample an index proportionally to ``weights``.

    Implemented as cumulative-sum inversion of a single uniform variate,
    which is the reproducibility contract for all weighted selection in the
    package: one ``rng.random()`` call per draw, resolved by binary search.
    """
    weights = np.asarray(weights, dtype=float)
    cumulative = weights.cumsum()
    total = float(cumulative[-1]) if cumulative.size else 0.0
    if not math.isfinite(total) or total <= 0.0:
        raise AllWeightsZero("sampling weights must have a positive finite sum")
    u = rng.random() * total
    idx = int(cumulative.searchsorted(u, side="right"))
    return min(idx, len(weights) - 1)
