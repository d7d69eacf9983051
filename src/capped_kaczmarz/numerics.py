"""Dense linear-algebra and sampling kernels.

Everything here is a thin, contract-checked wrapper around numpy's LAPACK
bindings plus the one PRNG identity the whole package commits to (PCG64),
so that solver traces are reproducible bit-for-bit given a seed.

Every block projection of two or more rows that the problem's
``block_step`` hook declines goes through :func:`min_norm_least_squares`,
a GLM hybrid's head block among them.  A one-row block is the
single-row projection of ``solvers.kaczmarz_step``.  The hook declines
every block by default; ``GLMProblem.block_step`` solves a block of head
rows only or of tail rows only in closed form, behind a guard on this
module's ``GRAM_TAU``; it reads the whole head's step off the inverse of
its Gram matrix, which it builds once and keeps.
:func:`min_norm_least_squares` has two paths behind one name:

* a short block (k rows, n columns, 2k <= n) is solved through its k x k
  Gram matrix ``G = J J^T`` when one ``eigh``, ``G = V diag(lam) V^T``,
  certifies it well conditioned, ``lam_min > GRAM_TAU * lam_max``, with
  normal-float eigenvalues; the step is ``J^T V diag(1/lam) V^T rhs``,
  kept only if finite;
* every other block (square or tall, ill-conditioned, rank-deficient, out
  of that floating-point range, or one whose eigensolver fails) goes to
  ``numpy.linalg.lstsq`` (LAPACK ``gelsd``), and its step is bit for bit
  that driver's SVD pseudoinverse action, with the rank cutoff below.

Why the rank cutoff has headroom.  ``gelsd`` counts a singular value at or
below ``rcond * sigma_max`` as zero.  numpy's default ``rcond``,
``max(k, n) eps``, sits at the rounding noise of a computed zero singular
value: on a 30 x 30 orthogonal block with one zeroed row gelsd computed
that value as 7.09e-15 against a cutoff of 6.66e-15, kept rank 30, and
stepped 6.9e13 away from the SVD pseudoinverse.  On 10185 random
rank-deficient blocks up to 60 x 60 (a zeroed row, a repeated row or a
doubled column) that noise stayed below 0.61 of the default, so ten times
it, ``rcond = 10 max(k, n) eps`` (``_RCOND_PER_DIM``), cuts such values
with room to spare.  A block of cond(J) up to 1e6, the range the
package's SVD-oracle check covers, keeps every singular value: its
smallest is 1e-6 sigma_max, far above the cutoff of at most 1.3e-13
sigma_max.  A block whose rank the two cutoffs agree on gets the same
bits under either.

Why the guard certifies accuracy.  Forming ``G`` perturbs it by at most
about ``n eps ||J||_F^2 <= n k eps lam_max``, and ``eigh`` is backward
stable, so each computed eigenvalue is within about ``(n + k) k eps lam_max``
of the exact ``sigma_i(J)^2``: a passing block has ``cond(J)^2 <= 1 /
GRAM_TAU`` up to that slack (a Cholesky diagonal would only bound cond(J)
from below).  The solve is exact for some ``G + E`` with ``||E|| <= (n + k)
k eps ||G||``, and its error ``J^+ E y`` (``y = G^-1 rhs``) is at most
``||E|| ||d|| / sigma_min^2``, since ``||J^+|| = 1/sigma_min`` and
``||y|| <= ||d|| / sigma_min``.  So the relative error of the step is at most
about ``cond(J)^2 (n + k) k eps``, the normal-equations error, against
``gelsd``'s ``cond(J) eps``.  ``GRAM_TAU = 1e-6`` caps cond(J) at 1e3; on
random blocks up to 60 x 60 with cond(J) up to 1e3 the observed error was at
most 3.2e-10, well inside the 1e-8 the package's SVD-oracle check allows.

Why 2k <= n.  ``G`` and ``V`` together hold 2k^2 <= kn entries, no more than
``J`` itself, so the path adds no memory beyond the block a step already
holds; taller blocks, such as Brown's k = n - 1 blocks, keep ``gelsd``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import AllWeightsZero, FactorizationFailure

# eigenvalue ratio below which a short block leaves the Gram path for gelsd:
# lam_min / lam_max = 1 / cond(J)^2, so the Gram path sees cond(J) <= 1e3
GRAM_TAU = 1e-6
# a Gram path eigenvalue must also be a normal float: below that, the
# products forming G round to absolute, not relative, error
_TINY = np.finfo(float).tiny
# gelsd's rank cutoff per max(k, n), relative to sigma_max: ten times
# numpy's default eps (see the module docstring)
_RCOND_PER_DIM = 10.0 * np.finfo(float).eps


def row_sq_norms(J: np.ndarray) -> np.ndarray:
    """Squared 2-norm of every row of ``J``."""
    J = np.asarray(J, dtype=float)
    return np.einsum("ij,ij->i", J, J)


def min_norm_least_squares(J: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Minimum-2-norm minimizer of ``||J d - rhs||_2``.

    On a short block (``2 k <= n``) whose Gram matrix ``J J^T = V diag(lam)
    V^T`` has ``lam_min`` a normal float above ``GRAM_TAU * lam_max`` the
    result is ``J^T V diag(1/lam) V^T rhs`` if finite, with a relative
    error of at most about ``cond(J)^2 (n + k) k eps`` (see the module
    docstring).  Every other block, including any
    that is rank-deficient, gets the pseudoinverse action of
    ``numpy.linalg.lstsq`` bit for bit, with the rank cutoff ``rcond = 10
    max(rows, cols) eps`` relative to the largest singular value: ten times
    numpy's default, above the rounding noise of a zero singular value.
    Non-finite input, a shape mismatch or a failing driver raise
    :class:`FactorizationFailure`.
    """
    J = np.asarray(J, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if J.ndim != 2 or J.shape[0] != rhs.shape[0]:
        raise FactorizationFailure(
            f"shape mismatch: J is {J.shape}, rhs has length {rhs.shape}"
        )
    if not (np.logical_and.reduce(np.isfinite(J), axis=None) and np.logical_and.reduce(np.isfinite(rhs))):
        raise FactorizationFailure("non-finite entries in least-squares input")
    k, n = J.shape
    if 0 < 2 * k <= n:
        try:
            lam, V = np.linalg.eigh(J @ J.T)
        except np.linalg.LinAlgError:
            pass
        else:
            if _TINY <= lam[0] and GRAM_TAU * lam[-1] < lam[0]:
                delta = J.T @ (V @ ((V.T @ rhs) / lam))
                if np.logical_and.reduce(np.isfinite(delta)):
                    return delta
    try:
        delta, *_ = np.linalg.lstsq(J, rhs, rcond=_RCOND_PER_DIM * max(k, n))
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
    A single weight is its own sum: it is checked as the sum is, and its
    uniform is drawn and spent without the prefix sum, since the inversion
    can only return index 0 there.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.size == 1:
        if not 0.0 < weights.item(0) < math.inf:  # NaN fails too
            raise AllWeightsZero("sampling weights must have a positive finite sum")
        rng.random()
        return 0
    cumulative = np.add.accumulate(weights)
    total = float(cumulative[-1]) if cumulative.size else 0.0
    if not math.isfinite(total) or total <= 0.0:
        raise AllWeightsZero("sampling weights must have a positive finite sum")
    u = rng.random() * total
    idx = int(cumulative.searchsorted(u, side="right"))
    return min(idx, len(weights) - 1)
