"""Concrete nonlinear systems and dataset ingestion.

* Brown almost linear function: n-1 affine rows plus one product row, root
  at the all-ones vector.
* Regularized logistic regression recast as a square root-finding problem
  in the stacked unknown ``x = [alpha; w]``, with a closed-form minimum-norm
  step on a block of head rows, of tail rows or of both (``block_step``),
  which also takes the hybrids' head solve from a Gram inverse built once
  per problem.
* A linear-system adapter ``f(x) = Ax - b``.
* A line-oriented sparse ``label index:value`` dataset parser.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from functools import cached_property
from typing import IO, Iterable

import numpy as np

# np.einsum(..., optimize=False) returns c_einsum's result, and
# np.count_nonzero(a) count_nonzero's; calling them directly skips the Python
# wrappers in numpy/_core/einsumfunc.py and numpy/_core/numeric.py
from numpy._core.multiarray import c_einsum, count_nonzero

# the LAPACK gufuncs behind np.linalg.inv and np.linalg.solve (a 1-D right
# side), whose results those functions return bit for bit; called directly
# they skip the Python wrappers, and a singular matrix gives NaN with the
# invalid flag set in place of LinAlgError
from numpy.linalg._umath_linalg import inv as _lapack_inv
from numpy.linalg._umath_linalg import solve1 as _lapack_solve1

from .core import IterateMemo, ProblemInstance
from .errors import DimensionMismatch, ParseError
from .numerics import GRAM_TAU, seeded_rng


def _index_rows(rows, m: int) -> np.ndarray:
    """``rows`` (all ``m`` rows when None) as an index array.  A row outside
    ``[0, m)`` raises IndexError, where numpy would read a negative row from
    the end."""
    if rows is None:
        return np.arange(m)
    rows = np.asarray(rows, dtype=np.intp)
    if np.maximum.reduce(rows, axis=None, initial=-1) >= m or np.minimum.reduce(rows, axis=None, initial=0) < 0:
        raise IndexError(f"Jacobian rows must lie in [0, {m})")
    return rows


def _check_row(i: int, m: int) -> None:
    if not 0 <= i < m:
        raise IndexError(f"Jacobian row {i} is not in [0, {m})")


def _leave_one_out_products(x: np.ndarray) -> np.ndarray:
    """Entry j is the product of all entries except x[j], division-free so
    zero entries stay exact: the prefix products, then each times the
    suffix products, accumulated from the end."""
    out = np.empty(x.shape)
    out[0] = 1.0
    np.multiply.accumulate(x[:-1], out=out[1:])
    out[:-1] *= np.multiply.accumulate(x[:0:-1])[::-1]
    return out


class BrownProblem(ProblemInstance):
    """Brown almost linear function in dimension n (m = n), root = ones."""

    def __init__(self, n: int):
        if n < 2:
            raise DimensionMismatch("Brown problem needs n >= 2")
        self.n = n
        self.m = n
        self.known_root = np.ones(n)
        template = np.ones((n, n))
        idx = np.arange(n - 1)
        template[idx, idx] = 2.0
        self._jac_template = template
        # affine rows have the constant norm n + 3; only the product row moves
        self._norms_template = np.full(n, n + 3.0)

    def residual(self, x: np.ndarray, memo: IterateMemo | None = None) -> np.ndarray:
        """Rows k < n: x_k + sum(x) - (n + 1).  Row n: prod(x) - 1."""
        x = np.asarray(x, dtype=float)
        out = x + (np.add.reduce(x) - (self.n + 1.0))
        out[self.n - 1] = np.multiply.reduce(x) - 1.0
        return out

    def _products(self, x: np.ndarray, memo: IterateMemo | None) -> np.ndarray:
        """The product row's gradient at ``x``, built once per iterate."""
        # the memo's store for x, or a throwaway one without a memo
        values = {} if memo is None else memo.at(x)
        products = values.get("products")
        if products is None:
            products = values["products"] = _leave_one_out_products(np.asarray(x, dtype=float))
        return products

    def row_grad(self, i: int, x: np.ndarray, memo: IterateMemo | None = None) -> np.ndarray:
        _check_row(i, self.m)
        if i < self.n - 1:
            return self._jac_template[i]
        return self._products(x, memo)

    def jacobian(self, x: np.ndarray, rows=None, memo: IterateMemo | None = None) -> np.ndarray:
        rows = _index_rows(rows, self.m)
        J = self._jac_template[rows]
        product = rows == self.n - 1
        if np.logical_or.reduce(product):
            J[product] = self._products(x, memo)
        return J

    def row_sq_norms_at(self, x: np.ndarray, memo: IterateMemo | None = None) -> np.ndarray:
        norms = self._norms_template.copy()
        products = self._products(x, memo)
        norms[self.n - 1] = c_einsum("i,i->", products, products)
        return norms


class LinearProblem(ProblemInstance):
    """Affine system ``f(x) = Ax - b`` (constant Jacobian ``A``); a
    non-finite entry of ``A`` or ``b`` is refused with ``DimensionMismatch``."""

    def __init__(self, A: np.ndarray, b: np.ndarray, known_root: np.ndarray | None = None):
        A = np.asarray(A, dtype=float)
        b = np.asarray(b, dtype=float)
        if A.ndim != 2 or b.shape != (A.shape[0],):
            raise DimensionMismatch(f"A is {A.shape}, b has shape {b.shape}")
        if not (np.logical_and.reduce(np.isfinite(A), axis=None) and np.logical_and.reduce(np.isfinite(b))):
            raise DimensionMismatch("A and b must be finite")
        self.A = A
        self.b = b
        self.m, self.n = A.shape
        self.known_root = None if known_root is None else np.asarray(known_root, dtype=float)
        self._row_norms = np.einsum("ij,ij->i", A, A)

    def residual(self, x: np.ndarray, memo: IterateMemo | None = None) -> np.ndarray:
        return self.A @ x - self.b

    def row_grad(self, i: int, x: np.ndarray, memo: IterateMemo | None = None) -> np.ndarray:
        _check_row(i, self.m)
        return self.A[i]

    def jacobian(self, x: np.ndarray, rows=None, memo: IterateMemo | None = None) -> np.ndarray:
        return self.A if rows is None else self.A[_index_rows(rows, self.m)]

    def row_sq_norms_at(self, x: np.ndarray, memo: IterateMemo | None = None) -> np.ndarray:
        return self._row_norms


def _passes_gram_guard(B: np.ndarray) -> bool:
    """The block guard ``1 + ||B||_F^2 <= 1 / GRAM_TAU`` on a block's dense
    parts ``B``, written so that a NaN norm fails it too."""
    return 1.0 + c_einsum("ij,ij->", B, B) <= 1.0 / GRAM_TAU


def _all_finite(a: np.ndarray) -> bool:
    """Whether every entry of ``a`` is finite."""
    finite = np.isfinite(a)
    return count_nonzero(finite) == finite.size


def _plus_identity(gram: np.ndarray) -> np.ndarray:
    """``gram + I``, in place on the square ``gram``'s diagonal."""
    diagonal = gram.reshape(-1)[:: gram.shape[0] + 1]
    diagonal += 1.0
    return gram


def _inverse_and_condition_bound(gram: np.ndarray) -> tuple[np.ndarray, float]:
    """``(G^-1, tr(G) ||G^-1||_F)`` for a symmetric positive semidefinite
    ``G``.  The bound is at least ``cond(G) = lam_max / lam_min``, since
    ``tr(G) >= lam_max`` and ``||G^-1||_F >= 1 / lam_min``; it is NaN or
    infinite where G is not finite or is singular in floating point, and
    such a G sets the invalid flag (the caller decides whether to hear it)."""
    inverse = _lapack_inv(gram)
    return inverse, c_einsum("ii->", gram) * math.sqrt(c_einsum("ij,ij->", inverse, inverse))


def _sigmoid_branches(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two branches of the stable sigmoid from one exp: ``1 / (1 + e)``,
    the sigmoid where z >= 0, and ``e / (1 + e)``, the sigmoid where z < 0,
    with ``e = exp(-|z|)`` (``copysign(z, -1)`` is ``-|z|``).  Both branches
    of ``-z`` are the same two arrays swapped."""
    e = np.copysign(z, -1.0)
    np.exp(e, out=e)
    denom = 1.0 + e
    # reciprocal is the division 1.0 / denom, bit for bit
    return np.reciprocal(denom), np.divide(e, denom, out=e)


class GLMProblem(ProblemInstance):
    """Regularized logistic regression as a square nonlinear system.

    Unknown ``x = [alpha (p entries); w (d entries)]``.  The first d rows,
    ``(1/(lam p)) A alpha - w``, are affine in x and encode stationarity of
    the regularized objective; the last p rows, ``alpha_i + phi_i'(a_i^T w)``,
    tie the duals to the logistic loss derivative.  Head row h is ``[A_h /
    (lam p) | -e_h]`` and tail row ``d + s`` is ``[e_s | c_s a_s]``.
    ``lam`` defaults to ``1/p``; a system with no samples or no features, or
    a non-finite sample entry, is refused with ``DimensionMismatch``.

    Every evaluation at an iterate starts from one full matvec ``A^T w`` and
    one exp (:meth:`_margin_at`); with a memo, the residual, the row norms,
    the Jacobian rows and the block steps at one iterate share them.
    :meth:`block_step` solves a block of head rows, of tail rows or of both
    in closed form, with no Jacobian rows, wherever its guard certifies
    ``cond(J_S)^2 <= 1 / GRAM_TAU``: ``1 + ||B||_F^2`` bounds it for rows
    of one kind, and ``tr(G) ||G^-1||_F`` on the computed Gram inverse for
    rows of both.  The hybrids' head solve is its block of all d head rows,
    whose constant Gram inverse is built by the first such block and kept
    for every later solve (:attr:`_head_inverse`); building the problem
    factors nothing.
    """

    def __init__(self, A: np.ndarray, y: np.ndarray, lam: float | None = None):
        A = np.asarray(A, dtype=float)
        y = np.asarray(y, dtype=float)
        if A.ndim != 2:
            raise DimensionMismatch("sample matrix must be 2-D (features x samples)")
        d, p = A.shape
        if p == 0:
            raise DimensionMismatch("the GLM has no samples")
        if d == 0:
            raise DimensionMismatch("the GLM has no features")
        if not np.logical_and.reduce(np.isfinite(A), axis=None):
            raise DimensionMismatch("sample entries must be finite")
        if y.shape != (p,):
            raise DimensionMismatch(f"need one label per sample: A is {A.shape}, y has shape {y.shape}")
        if not np.logical_and.reduce(np.abs(y) == 1.0):
            raise DimensionMismatch("labels must be -1/+1")
        if lam is None:
            lam = 1.0 / p
        if not lam > 0:  # NaN fails too
            raise DimensionMismatch("regularization must be positive")
        self.A = A
        self.y = y
        self.lam = float(lam)
        self.d = d
        self.p = p
        self.m = self.n = p + d
        self.known_root = None
        head = np.zeros((d, p + d))
        head[:, :p] = A / (lam * p)
        head[np.arange(d), p + np.arange(d)] = -1.0
        self._head_jac = head
        # the head rows' dense parts A / (lam p), contiguous, for the blocks
        self._head_dense = np.ascontiguousarray(head[:, :p])
        self._head_norms = c_einsum("ij,ij->i", head, head)
        self._samples = np.ascontiguousarray(A.T)  # sample s as a contiguous row
        self._sample_sq_norms = c_einsum("ij,ij->i", self._samples, self._samples)
        self._neg_y = -y
        # the samples times their labels, in A's order: the margins
        # y * (A^T w) bit for bit, as each sum only changes sign, when A is
        # C- or F-contiguous (a strided A's product is contiguous, and its
        # matvec takes BLAS where A's took numpy's loop)
        self._signed_samples = A * y

    def _margin_at(self, x: np.ndarray, memo: IterateMemo | None) -> tuple[np.ndarray, np.ndarray]:
        """``(sig(-z), c)`` at ``x``, once per iterate, from the margins ``z =
        y * (A^T w)`` and the branches ``hi, lo`` of one exp: ``c_s =
        phi''(a_s^T w) = sig(z_s) sig(-z_s)`` is ``hi * lo`` whatever the
        sign, with no ``1 - sig`` to cancel, and ``sig(-z)`` is ``hi`` where
        ``z <= 0`` and ``lo`` elsewhere.  The matvec is always the full one:
        over a subset of the samples it rounds differently."""
        values = {} if memo is None else memo.at(x)
        parts = values.get("margin")
        if parts is None:
            z = self._signed_samples.T @ x[self.p:]
            hi, lo = _sigmoid_branches(z)
            curvature = hi * lo
            np.putmask(lo, z <= 0.0, hi)
            parts = values["margin"] = (lo, curvature)
        return parts

    def residual(self, x: np.ndarray, memo: IterateMemo | None = None) -> np.ndarray:
        p, d = self.p, self.d
        sig_neg = self._margin_at(x, memo)[0]
        out = np.empty(self.m)
        head, tail = out[:d], out[d:]
        np.divide(self.A @ x[:p], self.lam * p, out=head)
        np.subtract(head, x[p:], out=head)
        # phi'(t) = -y sigma(-y t), and -y t = -z since y is +-1
        np.multiply(self._neg_y, sig_neg, out=tail)
        np.add(x[:p], tail, out=tail)
        return out

    def row_grad(self, i: int, x: np.ndarray, memo: IterateMemo | None = None) -> np.ndarray:
        """Row ``i`` of the Jacobian, bit for bit ``jacobian(x, [i], memo)[0]``."""
        _check_row(i, self.m)
        if i < self.d:
            return self._head_jac[i]
        s = i - self.d
        grad = np.zeros(self.n)
        grad[s] = 1.0
        grad[self.p:] = self._margin_at(x, memo)[1][s] * self._samples[s]
        return grad

    def jacobian(self, x: np.ndarray, rows=None, memo: IterateMemo | None = None) -> np.ndarray:
        rows = _index_rows(rows, self.m)
        c = self._margin_at(x, memo)[1]
        J = np.zeros((rows.size, self.n))
        s = rows - self.d
        tail = s >= 0
        (head,) = (~tail).nonzero()
        J[head] = self._head_jac.take(rows.take(head), axis=0)
        (at,) = tail.nonzero()
        s = s.take(at)
        J[at, s] = 1.0
        J[at, self.p:] = c.take(s)[:, None] * self._samples.take(s, axis=0)
        return J

    def block_step(
        self, x: np.ndarray, rows, rhs: np.ndarray, memo: IterateMemo | None = None
    ) -> np.ndarray | None:
        """The minimum-norm step ``J_S^+ rhs`` on the strictly increasing rows
        ``S = rows`` at ``x``, from their closed-form Gram system, or None to
        leave the block to ``min_norm_least_squares``: a block whose ``rhs``
        is not finite (declined before any arithmetic), one the guard below
        declines, or one whose step is not finite.  It never raises
        ``LinAlgError`` and, whatever the caller's error state, never warns
        on a non-finite ``rhs`` or an ill-conditioned block.

        Each row is a unit coordinate plus a dense part: head row h is
        ``[P_h | -e_h]`` with ``P = A / (lam p)``, tail row ``d + s`` is
        ``[e_s | C_s]`` with ``C_s = c_s a_s``.  No Jacobian block and no
        eigendecomposition is formed.

        Rows of one kind have ``J_S J_S^T = I_k + B B^T`` with ``B`` (k x q)
        their dense parts, and the step is ``+-y`` on the unit entries and
        ``B^T y`` on the dense ones, with ``y = (I_k + B B^T)^-1 rhs``, or
        for ``k >= q`` the Woodbury form ``y = rhs - B (I_q + B^T B)^-1 B^T
        rhs``.  Tail rows have ``B = C_S`` (q = d) and ``+y`` on alpha; head
        rows have ``B = P_S`` (q = p) and ``-y`` on w.  Head rows do not
        depend on ``x``, so the whole head (the hybrids' head solve) takes
        ``y = G^-1 rhs`` from the inverse of its Gram matrix, built by the
        first whole-head block and kept (:attr:`_head_inverse`); a head
        subset is solved afresh.  The array :attr:`head_rows` itself, which
        a hybrid passes, is the whole head and skips the row checks.

        Rows of both kinds, head rows H and tail samples T, have the Gram
        blocks ``G_HH = I + P_H P_H^T``, ``G_TT = I + C_T C_T^T`` and
        ``G_HT = P_H[:, T] - C_T[:, H]^T``; the step takes ``y = G^-1 rhs``
        and is ``P_H^T y_H``, plus ``y_T`` at T, on alpha, and ``C_T^T
        y_T``, less ``y_H`` at H, on w (:meth:`_mixed_step`).

        Guard: a block is taken only where ``cond(J_S)^2 <= 1 / GRAM_TAU``,
        the Gram path's bound.  Rows of one kind have the eigenvalues of
        ``J_S J_S^T`` in ``[1, 1 + ||B||_2^2]``, so ``1 + ||B||_F^2 <= 1 /
        GRAM_TAU`` certifies it; the whole head's outcome is kept with its
        inverse.  Rows of both kinds have no such floor, since ``G_HT`` is
        not of the form ``B B^T``: the computed inverse certifies them by
        ``tr(G) ||G^-1||_F <= 1 / GRAM_TAU``, which bounds ``cond(G) =
        lam_max / lam_min`` from above as ``tr(G) >= lam_max`` and
        ``||G^-1||_F >= 1 / lam_min``.  A NaN or infinite bound (an
        overflowing block, or a G singular in floating point) declines.

        Error: the step's norm is ``||G^(-1/2) rhs||`` (``G = J_S J_S^T``).
        For rows of one kind each rounding error of either form reaches the
        step through ``J_S^+``, of norm at most 1, or through ``J_S^T``, of
        norm at most ``(1 + ||B||_F^2)^(1/2)``; so the step's relative error
        is at most about ``(k + q) eps (1 + ||B||_F^2)``, which the guard
        caps at ``(k + q) eps / GRAM_TAU``.  Against ``numpy.linalg.lstsq``
        it stayed within about 4e-10 on random and adversarial tail blocks
        at the guard's edge.  For rows of both kinds forming G and inverting
        it perturb G by about ``(k + n) eps tr(G)``, which reaches the step
        through ``J_S^+ G^-1 J_S`` as ``||E|| / lam_min``; so the relative
        error is at most about ``(k + n) eps tr(G) ||G^-1||_F``, which the
        certificate caps at ``(k + n) eps / GRAM_TAU``.
        """
        if rows is self.head_rows:
            return self._whole_head_step(rhs)
        rows = np.asarray(rows, dtype=np.intp)
        first, last = rows.item(0), rows.item(-1)
        if first < 0 or last >= self.m:
            raise IndexError(f"block rows must lie in [0, {self.m})")
        if count_nonzero(rows[1:] <= rows[:-1]):
            raise ValueError("block rows must be strictly increasing")
        # a non-finite rhs is declined before any arithmetic, which could warn
        if not _all_finite(rhs):
            return None
        d, p = self.d, self.p
        tail = first >= d
        if tail:
            samples = rows - d
            B = self._margin_at(x, memo)[1][samples][:, None] * self._samples.take(samples, axis=0)
        elif last < d:
            if rows.size == d:  # d strictly increasing head rows: 0..d-1
                return self._whole_head_step(rhs)
            B = self._head_dense.take(rows, axis=0)
        else:
            return self._mixed_step(x, rows, rhs, memo)
        if not _passes_gram_guard(B):
            return None
        k, q = B.shape
        if k >= q:
            y = rhs - B @ _lapack_solve1(_plus_identity(B.T @ B), B.T @ rhs)
        else:
            y = _lapack_solve1(_plus_identity(B @ B.T), rhs)
        step = np.zeros(self.n)
        alpha, w = step[:p], step[p:]
        if tail:
            alpha[samples] = y
            np.matmul(y, B, out=w)
        else:
            w[rows] = -y
            np.matmul(y, B, out=alpha)
        return step if _all_finite(step) else None

    def _whole_head_step(self, rhs: np.ndarray) -> np.ndarray | None:
        """:meth:`block_step` on the whole head, from its kept Gram inverse."""
        inverse = self._head_inverse
        if inverse is None or not _all_finite(rhs):
            return None
        step = (inverse @ rhs) @ self._head_jac
        return step if _all_finite(step) else None

    def _mixed_step(
        self, x: np.ndarray, rows: np.ndarray, rhs: np.ndarray, memo: IterateMemo | None
    ) -> np.ndarray | None:
        """:meth:`block_step` on checked rows of both kinds, or None where
        the certificate ``tr(G) ||G^-1||_F <= 1 / GRAM_TAU`` fails.  The
        bound and the finiteness test decide, so overflow and the invalid
        flag of a singular G are ignored here."""
        p = self.p
        h = int(rows.searchsorted(self.d))
        heads = rows[:h]
        samples = rows[h:] - self.d
        P = self._head_dense.take(heads, axis=0)
        C = self._margin_at(x, memo)[1][samples][:, None] * self._samples.take(samples, axis=0)
        k = rows.size
        with np.errstate(over="ignore", invalid="ignore"):
            gram = np.empty((k, k))
            np.matmul(P, P.T, out=gram[:h, :h])
            np.matmul(C, C.T, out=gram[h:, h:])
            cross = gram[:h, h:]
            np.subtract(P.take(samples, axis=1), C.take(heads, axis=1).T, out=cross)
            gram[h:, :h] = cross.T
            inverse, bound = _inverse_and_condition_bound(_plus_identity(gram))
            if not bound <= 1.0 / GRAM_TAU:
                return None
            y = inverse @ rhs
            y_head, y_tail = y[:h], y[h:]
            step = np.empty(self.n)
            alpha, w = step[:p], step[p:]
            np.matmul(y_head, P, out=alpha)
            alpha[samples] += y_tail
            np.matmul(y_tail, C, out=w)
            w[heads] -= y_head
        return step if _all_finite(step) else None

    @cached_property
    def _head_inverse(self) -> np.ndarray | None:
        """``G^-1`` of the whole head's Gram ``G = I_d + B B^T``, with ``B =
        A / (lam p)``, or None where the guard of :meth:`block_step`
        declines it, so no singular or non-finite ``G`` is inverted.  Built
        by the first whole-head block and kept."""
        B = self._head_dense
        if not _passes_gram_guard(B):
            return None
        return np.linalg.inv(_plus_identity(B @ B.T))

    def row_sq_norms_at(self, x: np.ndarray, memo: IterateMemo | None = None) -> np.ndarray:
        # head norms are constant; tail norms come from the precomputed ||a_s||^2
        c = self._margin_at(x, memo)[1]
        out = np.empty(self.m)
        out[: self.d] = self._head_norms
        tail = np.multiply(c, c, out=out[self.d:])
        tail *= self._sample_sq_norms
        tail += 1.0
        return out


@dataclass(frozen=True)
class Dataset:
    """Sparse sample matrix in ``label index:value`` form.

    ``samples[i]`` is the ordered tuple of (1-based feature index, value)
    pairs of sample i; ``labels`` are -1/+1 after normalization.
    """

    d: int
    p: int
    samples: tuple[tuple[tuple[int, float], ...], ...]
    labels: np.ndarray

    def to_dense(self) -> np.ndarray:
        """Materialize the d x p sample matrix (column i = sample i)."""
        A = np.zeros((self.d, self.p))
        for i, entries in enumerate(self.samples):
            for j, value in entries:
                A[j - 1, i] = value
        return A

    @property
    def density(self) -> float:
        nnz = sum(len(entries) for entries in self.samples)
        return nnz / (self.d * self.p) if self.d and self.p else 0.0


def _normalize_labels(raw: list[float]) -> np.ndarray:
    """Map raw labels onto -1/+1.

    Two distinct values map ascending (smaller -> -1, larger -> +1), which
    covers {0,1} and keeps {-1,+1} unchanged.  Anything else is rejected.
    """
    distinct = sorted(set(raw))
    if not distinct:
        return np.zeros(0)
    if distinct == [-1.0, 1.0] or distinct == [-1.0] or distinct == [1.0]:
        return np.asarray(raw, dtype=float)
    if len(distinct) == 2:
        lo, hi = distinct
        return np.where(np.asarray(raw) == lo, -1.0, 1.0)
    raise ParseError(f"cannot binarize labels {distinct}: need exactly two distinct values")


def parse_libsvm(stream: IO[str] | Iterable[str] | str, num_features: int | None = None) -> Dataset:
    """Parse line-oriented ``label index:value ...`` text into a Dataset.

    Indices are 1-based and must be strictly increasing within a line.
    Blank lines are skipped.  ``num_features`` overrides the inferred
    feature count (the maximum index seen).
    """
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    samples: list[tuple[tuple[int, float], ...]] = []
    raw_labels: list[float] = []
    max_index = 0
    for lineno, line in enumerate(stream, start=1):
        tokens = line.split()
        if not tokens:
            continue
        try:
            label = float(tokens[0])
        except ValueError:
            raise ParseError(f"label {tokens[0]!r} is not numeric", lineno) from None
        entries: list[tuple[int, float]] = []
        previous = 0
        for token in tokens[1:]:
            index_str, _, value_str = token.partition(":")
            if not value_str:
                raise ParseError(f"token {token!r} is not index:value", lineno)
            try:
                index = int(index_str)
                value = float(value_str)
            except ValueError:
                raise ParseError(f"token {token!r} has a nonnumeric part", lineno) from None
            if index < 1:
                raise ParseError(f"feature index {index} is not positive", lineno)
            if index <= previous:
                raise ParseError(f"feature index {index} does not increase past {previous}", lineno)
            previous = index
            entries.append((index, value))
        max_index = max(max_index, previous)
        samples.append(tuple(entries))
        raw_labels.append(label)
    d = max_index if num_features is None else num_features
    if num_features is not None and max_index > num_features:
        raise ParseError(f"feature index {max_index} exceeds declared count {num_features}")
    return Dataset(d=d, p=len(samples), samples=tuple(samples), labels=_normalize_labels(raw_labels))


def load_libsvm(path, num_features: int | None = None) -> Dataset:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_libsvm(handle, num_features=num_features)


def make_glm(dataset: Dataset, lam: float | None = None) -> GLMProblem:
    """Build the root-finding problem from a dataset; ``lam`` defaults to 1/p."""
    return GLMProblem(dataset.to_dense(), dataset.labels, lam)


# the share of synthetic labels flipped against the separating w_true
_FLIP_FRACTION = 0.05


def _synthetic_samples(p: int, d: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The d x p samples and -1/+1 labels: ``A``, ``w_true`` and the flips,
    drawn from one PCG64 stream in that order."""
    rng = seeded_rng(seed)
    A = rng.standard_normal((d, p))
    w_true = rng.standard_normal(d)
    margins = A.T @ w_true
    labels = np.where(margins >= 0.0, 1.0, -1.0)
    flips = rng.random(p) < _FLIP_FRACTION
    labels[flips] *= -1.0
    return A, labels


def synthetic_dataset(p: int, d: int, seed: int) -> Dataset:
    """Gaussian samples with linearly separable labels plus a small flip
    fraction: solvable, nontrivial, and fully seeded."""
    A, labels = _synthetic_samples(p, d, seed)
    samples = tuple(
        tuple((j + 1, float(A[j, i])) for j in range(d))
        for i in range(p)
    )
    return Dataset(d=d, p=p, samples=samples, labels=labels)


def make_synthetic_glm(p: int, d: int, seed: int, lam: float | None = None) -> GLMProblem:
    """``make_glm(synthetic_dataset(p, d, seed), lam)`` bit for bit, without
    the per-entry tuples."""
    return GLMProblem(*_synthetic_samples(p, d, seed), lam)
