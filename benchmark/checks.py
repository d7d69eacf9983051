"""Correctness checks for solver outputs, written apart from the package.

Each check rebuilds its problem from the selector's documented recipe with
numpy alone and tests a returned iterate against a formula of its own; none
of them calls into ``capped_kaczmarz``.  A check returns ``None`` when the
iterate passes and a one-line reason when it does not.
"""

from __future__ import annotations

import numpy as np


def _pcg64(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


class BrownCheck:
    """Brown almost linear function: ``f_k = x_k + sum(x) - (n + 1)`` for the
    first n - 1 rows and ``f_n = prod(x) - 1``.  Passes when ``||f||^2 < tol``."""

    def __init__(self, n: int, tol: float):
        self.n = n
        self.tol = tol

    def residual(self, x: np.ndarray) -> np.ndarray:
        f = x + x.sum() - (self.n + 1.0)
        f[-1] = np.prod(x) - 1.0
        return f

    def __call__(self, x: np.ndarray) -> str | None:
        f = self.residual(np.asarray(x, dtype=float))
        res_sq = float(f @ f)
        if not res_sq < self.tol:
            return f"brown:{self.n}: ||f||^2 = {res_sq:.3e} is not below {self.tol:g}"
        return None


class LinearCheck:
    """Consistent Gaussian system ``A x* = b``: A (m x n) and then x* drawn
    from PCG64(seed).  Passes when ``||Ax - b||^2 < tol`` and the error obeys
    ``||x - x*|| <= ||Ax - b|| / sigma_min(A)``."""

    def __init__(self, m: int, n: int, seed: int, tol: float):
        rng = _pcg64(seed)
        self.A = rng.standard_normal((m, n))
        self.x_star = rng.standard_normal(n)
        self.b = self.A @ self.x_star
        self.sigma_min = float(np.linalg.svd(self.A, compute_uv=False)[-1])
        self.tol = tol
        self.label = f"linear:{m},{n},{seed}"

    def __call__(self, x: np.ndarray) -> str | None:
        x = np.asarray(x, dtype=float)
        res = self.A @ x - self.b
        res_sq = float(res @ res)
        if not res_sq < self.tol:
            return f"{self.label}: ||Ax - b||^2 = {res_sq:.3e} is not below {self.tol:g}"
        err = float(np.linalg.norm(x - self.x_star))
        bound = np.sqrt(res_sq) / self.sigma_min
        if not err <= bound:
            return f"{self.label}: ||x - x*|| = {err:.3e} exceeds ||Ax - b|| / sigma_min = {bound:.3e}"
        return None


class GLMCheck:
    """L2-regularised logistic regression on the synthetic data of
    ``glm:synthetic:p,d,seed`` with lambda = 1/p.

    The data: samples A (d x p) and a hidden w_true drawn from PCG64(seed),
    labels sign(A^T w_true) with each one flipped when a uniform draw falls
    below 0.05.  The objective

        P(w) = lambda/2 ||w||^2 + (1/p) sum_i log(1 + exp(-y_i a_i^T w))

    is strongly convex, so its gradient vanishes only at the unique
    minimiser.  The unknown is ``x = [alpha; w]``, and at any x with system
    residual ``r = [r_head; r_tail]``, ``grad P(w) = -lambda r_head + A r_tail / p``.
    So ``||f(x)||^2 < tol`` gives ``||grad P(w)|| < (lambda + ||A||_2 / p) sqrt(tol)``,
    which is the bound checked here from P alone.
    """

    def __init__(self, p: int, d: int, seed: int, tol: float):
        rng = _pcg64(seed)
        self.A = rng.standard_normal((d, p))
        w_true = rng.standard_normal(d)
        y = np.where(self.A.T @ w_true >= 0.0, 1.0, -1.0)
        y[rng.random(p) < 0.05] *= -1.0
        self.y = y
        self.p = p
        self.lam = 1.0 / p
        self.bound = (self.lam + float(np.linalg.norm(self.A, 2)) / p) * np.sqrt(tol)
        self.label = f"glm:synthetic:{p},{d},{seed}"

    def objective(self, w: np.ndarray) -> float:
        margins = self.y * (self.A.T @ w)
        return 0.5 * self.lam * float(w @ w) + float(np.mean(np.logaddexp(0.0, -margins)))

    def gradient(self, w: np.ndarray) -> np.ndarray:
        margins = self.y * (self.A.T @ w)
        # d/dt log(1 + exp(-t)) = -1 / (1 + exp(t)) = -(1 - tanh(t/2)) / 2
        dloss = -0.5 * (1.0 - np.tanh(0.5 * margins))
        return self.lam * w + self.A @ (self.y * dloss) / self.p

    def __call__(self, x: np.ndarray) -> str | None:
        w = np.asarray(x, dtype=float)[self.p:]
        grad_norm = float(np.linalg.norm(self.gradient(w)))
        if not grad_norm <= self.bound:
            return f"{self.label}: ||grad P(w)|| = {grad_norm:.3e} exceeds {self.bound:.3e}"
        return None


def make_check(selector: str, tol: float):
    """The independent check for a ``brown:``, ``linear:`` or
    ``glm:synthetic:`` selector."""
    kind, _, rest = selector.partition(":")
    if kind == "brown":
        return BrownCheck(int(rest), tol)
    if kind == "linear":
        m, n, seed = (int(tok) for tok in rest.split(","))
        return LinearCheck(m, n, seed, tol)
    if kind == "glm" and rest.startswith("synthetic:"):
        p, d, seed = (int(tok) for tok in rest.removeprefix("synthetic:").split(","))
        return GLMCheck(p, d, seed, tol)
    raise ValueError(f"no independent check for {selector!r}")
