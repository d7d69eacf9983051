"""Concrete nonlinear systems and dataset ingestion.

* Brown almost linear function: n-1 affine rows plus one product row, root
  at the all-ones vector.
* Regularized logistic regression recast as a square root-finding problem
  in the stacked unknown ``x = [alpha; w]``.
* A linear-system adapter ``f(x) = Ax - b``.
* A line-oriented sparse ``label index:value`` dataset parser.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import IO, Iterable

import numpy as np

from .core import ProblemInstance
from .errors import DimensionMismatch, ParseError
from .numerics import seeded_rng


def _leave_one_out_products(x: np.ndarray) -> np.ndarray:
    """Entry j is the product of all entries except x[j], division-free so
    zero entries stay exact."""
    out = np.empty(x.shape)
    suffix = np.empty(x.shape)
    out[0] = 1.0
    suffix[-1] = 1.0
    x[:-1].cumprod(out=out[1:])
    x[:0:-1].cumprod(out=suffix[-2::-1])
    out *= suffix
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

    def residual(self, x: np.ndarray) -> np.ndarray:
        """Rows k < n: x_k + sum(x) - (n + 1).  Row n: prod(x) - 1."""
        x = np.asarray(x, dtype=float)
        out = x + (x.sum() - (self.n + 1.0))
        out[self.n - 1] = x.prod() - 1.0
        return out

    def row_grad(self, i: int, x: np.ndarray) -> np.ndarray:
        if i < self.n - 1:
            return self._jac_template[i]
        return _leave_one_out_products(np.asarray(x, dtype=float))

    def jacobian(self, x: np.ndarray, rows=None) -> np.ndarray:
        rows = np.arange(self.m) if rows is None else np.asarray(rows, dtype=np.intp)
        J = self._jac_template[rows]
        product = rows == self.n - 1
        if product.any():
            J[product] = _leave_one_out_products(np.asarray(x, dtype=float))
        return J

    def row_sq_norms_at(self, x: np.ndarray) -> np.ndarray:
        norms = self._norms_template.copy()
        products = _leave_one_out_products(np.asarray(x, dtype=float))
        norms[self.n - 1] = np.einsum("i,i->", products, products)
        return norms


class LinearProblem(ProblemInstance):
    """Affine system ``f(x) = Ax - b`` (constant Jacobian ``A``)."""

    def __init__(self, A: np.ndarray, b: np.ndarray, known_root: np.ndarray | None = None):
        A = np.asarray(A, dtype=float)
        b = np.asarray(b, dtype=float)
        if A.ndim != 2 or b.shape != (A.shape[0],):
            raise DimensionMismatch(f"A is {A.shape}, b has shape {b.shape}")
        self.A = A
        self.b = b
        self.m, self.n = A.shape
        self.known_root = None if known_root is None else np.asarray(known_root, dtype=float)
        self._row_norms = np.einsum("ij,ij->i", A, A)

    def residual(self, x: np.ndarray) -> np.ndarray:
        return self.A @ x - self.b

    def row_grad(self, i: int, x: np.ndarray) -> np.ndarray:
        return self.A[i]

    def jacobian(self, x: np.ndarray, rows=None) -> np.ndarray:
        return self.A if rows is None else self.A[rows]

    def row_sq_norms_at(self, x: np.ndarray) -> np.ndarray:
        return self._row_norms


def _stable_sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)) evaluated with non-positive exponents only."""
    z = np.asarray(z, dtype=float)
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def logistic_loss_grad(y: np.ndarray, t: np.ndarray) -> np.ndarray:
    """d/dt of ln(1 + exp(-y t)):  -y / (1 + exp(y t))."""
    return -y * _stable_sigmoid(-y * t)


def logistic_loss_hess(y: np.ndarray, t: np.ndarray) -> np.ndarray:
    """d^2/dt^2 of ln(1 + exp(-y t)):  exp(y t) / (1 + exp(y t))^2."""
    s = _stable_sigmoid(y * t)
    return s * (1.0 - s)


class GLMProblem(ProblemInstance):
    """Regularized logistic regression as a square nonlinear system.

    Unknown ``x = [alpha (p entries); w (d entries)]``.  The first d rows,
    ``(1/(lam p)) A alpha - w``, are affine in x and encode stationarity of
    the regularized objective; the last p rows, ``alpha_i + phi_i'(a_i^T w)``,
    tie the duals to the logistic loss derivative.
    """

    def __init__(self, A: np.ndarray, y: np.ndarray, lam: float):
        A = np.asarray(A, dtype=float)
        y = np.asarray(y, dtype=float)
        if A.ndim != 2:
            raise DimensionMismatch("sample matrix must be 2-D (features x samples)")
        d, p = A.shape
        if y.shape != (p,):
            raise DimensionMismatch(f"need one label per sample: A is {A.shape}, y has shape {y.shape}")
        if not np.all(np.abs(y) == 1.0):
            raise DimensionMismatch("labels must be -1/+1")
        if lam <= 0:
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
        self._head_norms = np.einsum("ij,ij->i", head, head)

    def residual(self, x: np.ndarray) -> np.ndarray:
        alpha, w = x[: self.p], x[self.p:]
        head = (self.A @ alpha) / (self.lam * self.p) - w
        tail = alpha + logistic_loss_grad(self.y, self.A.T @ w)
        return np.concatenate((head, tail))

    def row_grad(self, i: int, x: np.ndarray) -> np.ndarray:
        if i < self.d:
            return self._head_jac[i]
        s = i - self.d
        w = x[self.p:]
        grad = np.zeros(self.n)
        grad[s] = 1.0
        curv = logistic_loss_hess(self.y[s : s + 1], self.A[:, s] @ w)[0]
        grad[self.p:] = curv * self.A[:, s]
        return grad

    def jacobian(self, x: np.ndarray, rows=None) -> np.ndarray:
        # the margin is the full matvec even for a few rows: a matvec over
        # the selected samples alone rounds differently in the last bits
        margin = self.A.T @ x[self.p:]
        rows = np.arange(self.m) if rows is None else np.asarray(rows, dtype=np.intp)
        J = np.zeros((rows.size, self.n))
        head = rows < self.d
        J[head] = self._head_jac[rows[head]]
        (at,) = np.nonzero(~head)
        s = rows[at] - self.d
        J[at, s] = 1.0
        J[at, self.p:] = logistic_loss_hess(self.y[s], margin[s])[:, None] * self.A.T[s]
        return J

    def row_sq_norms_at(self, x: np.ndarray) -> np.ndarray:
        # head norms are constant; tail rows are a unit coordinate plus the
        # curvature-scaled sample, so only a p x d block is touched
        w = x[self.p:]
        curv = logistic_loss_hess(self.y, self.A.T @ w)
        scaled = curv[:, None] * self.A.T
        return np.concatenate((self._head_norms, 1.0 + np.einsum("ij,ij->i", scaled, scaled)))

    def linear_head_jacobian(self) -> np.ndarray:
        """Constant Jacobian of the first d (affine) rows."""
        return self._head_jac


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
    if dataset.p == 0:
        raise DimensionMismatch("dataset has no samples")
    lam = 1.0 / dataset.p if lam is None else lam
    return GLMProblem(dataset.to_dense(), dataset.labels, lam)


def synthetic_dataset(p: int, d: int, seed: int, flip_fraction: float = 0.05) -> Dataset:
    """Gaussian samples with linearly separable labels plus a small flip
    fraction: solvable, nontrivial, and fully seeded."""
    rng = seeded_rng(seed)
    A = rng.standard_normal((d, p))
    w_true = rng.standard_normal(d)
    margins = A.T @ w_true
    labels = np.where(margins >= 0.0, 1.0, -1.0)
    flips = rng.random(p) < flip_fraction
    labels[flips] *= -1.0
    samples = tuple(
        tuple((j + 1, float(A[j, i])) for j in range(d))
        for i in range(p)
    )
    return Dataset(d=d, p=p, samples=samples, labels=labels)


def make_synthetic_glm(p: int, d: int, seed: int, lam: float | None = None) -> GLMProblem:
    return make_glm(synthetic_dataset(p, d, seed), lam=lam)
