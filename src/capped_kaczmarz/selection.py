"""Greedy capped row selection.

Two families of data-dependent thresholds over the current residual
``f(x_k)`` and row gradients:

* distance rule: rank rows by ``|f_i|^2 / ||grad_i||^2`` (the squared
  distance a single-row projection would move) and keep rows at or above a
  capped threshold ``eps_k``;
* residual rule: rank rows by ``|f_i|^2`` and keep rows at or above a
  capped threshold ``delta_k``.

A sampled index is then drawn from the kept set with probability
proportional to the rule-specific weights.

Each set is one comparison of a row's ranking value with its threshold
clamped to the largest value: ``ratios >= min(eps * ||f||^2, max ratio)``
and ``|f_i|^2 >= min(delta * ||f||^2, max |f_i|^2)``.  In exact
arithmetic neither product exceeds the maximum, so the clamp changes
nothing there; in rounded arithmetic it keeps the argmax row, and rows
that tie exactly share one float value, so they pass or fail together.

Only rows with a numerically nonzero gradient are eligible for the distance
ratios: row i is active when ``||grad_i||^2 > max(ACTIVE_ABS_FLOOR,
ACTIVE_REL_EPS * median_j ||grad_j||^2)``.  The median costs a partial sort,
so :meth:`RowGeometry.from_state` skips it when the smallest norm exceeds
both ``ACTIVE_ABS_FLOOR`` and ``ACTIVE_REL_EPS * max_j ||grad_j||^2``: the
median of finite norms is at most their maximum, and rounding a product
with a positive constant keeps that order, so every row is active either
way, and the active sums are then the full sums over the same array.
The result is the same floats as the median path, which every other
input (NaN or infinite norms included) still takes.  The smallest and
largest norms are read by ``argmin``/``argmax``, which stop at the first
NaN as ``min``/``max`` do.  An inactive row's ratio is ``-inf``, which no
threshold admits, so the rules need no separate mask.

Known limitation: rescaling the residual by c and the squared norms by c^2
leaves every set unchanged only while the nonzero ``|f_i|^2`` are normal
floats.  A subnormal square can give a zero distance ratio on a healthy row
(``AllWeightsZero`` if it is the residual set's only weight), or a
``theta``-scaled maximum of zero, which admits every row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Convex, Scaled, ThresholdMode
from .errors import AllWeightsZero, DegenerateState, EmptySet
from .numerics import draw_weighted_index

# A row counts as numerically zero-gradient when its squared gradient norm
# falls below machine epsilon relative to the median row, or below the
# absolute underflow floor.  Distance ratios of such rows are dominated by
# rounding noise at the typical row scale, so they are ineligible for the
# distance rule (and carry zero weight in the residual rule's sampling).
# The median is the reference because a minority of rows with collapsed or
# exploded gradients must not shift the cutoff for the healthy majority.
ACTIVE_REL_EPS = float(np.finfo(np.float64).eps)
ACTIVE_ABS_FLOOR = 1e-300


@dataclass(slots=True, eq=False)
class RowGeometry:
    """Per-row quantities of the system at one iterate.

    ``res_sq`` holds ``|f_i|^2`` and ``ratios`` holds ``|f_i|^2 /
    ||grad_i||^2`` on the rows eligible for distance ratios and ``-inf``
    elsewhere; ``top_ratio_row`` and ``top_residual_row`` are their argmax
    rows.  ``active_residual_sq`` / ``active_fro_sq`` are the norms
    restricted to the eligible rows (identical to the full norms whenever
    ``every_row_active``, which is the generic case).  Both rules read these
    arrays, so one selection pass squares the residual once.
    ``active_fro_sq`` is summed when read, since only the Convex distance
    threshold reads it.
    """

    residual: np.ndarray
    grad_sq_norms: np.ndarray
    residual_sq: float
    every_row_active: bool
    active_residual_sq: float
    res_sq: np.ndarray
    ratios: np.ndarray
    top_ratio_row: int
    top_residual_row: int

    @classmethod
    def from_state(cls, residual: np.ndarray, grad_sq_norms: np.ndarray) -> "RowGeometry":
        residual = np.asarray(residual, dtype=float)
        grad_sq_norms = np.asarray(grad_sq_norms, dtype=float)
        if residual.shape != grad_sq_norms.shape:
            raise ValueError("residual and gradient norms must have equal length")
        if residual.size == 0:
            raise ValueError("row geometry needs at least one row")
        res_sq = residual * residual
        residual_sq = float(np.add.reduce(res_sq))
        # read by index: argmin/argmax stop at the first NaN, as min/max do
        lo = grad_sq_norms.item(grad_sq_norms.argmin())
        if lo > ACTIVE_ABS_FLOOR and lo > ACTIVE_REL_EPS * grad_sq_norms.item(grad_sq_norms.argmax()):
            # the median cannot matter (see the module docstring): every row
            # is active, and the active sums are the full sums over the same
            # array in the same order.  NaN or infinite norms fail a
            # comparison and take the median path.
            every_row_active = True
            active_residual_sq = residual_sq
            ratios = res_sq / grad_sq_norms
        else:
            scale = _median(grad_sq_norms)
            if not np.isfinite(scale):
                scale = float(np.maximum.reduce(grad_sq_norms[np.isfinite(grad_sq_norms)], initial=0.0))
            cutoff = max(ACTIVE_ABS_FLOOR, ACTIVE_REL_EPS * scale)
            active = grad_sq_norms > cutoff
            every_row_active = bool(np.logical_and.reduce(active))
            active_residual_sq = float(np.add.reduce(res_sq[active]))
            ratios = np.where(active, res_sq / np.where(active, grad_sq_norms, 1.0), -np.inf)
        # positional: a keyword construction costs more than twice as much
        return cls(
            residual,
            grad_sq_norms,
            residual_sq,
            every_row_active,
            active_residual_sq,
            res_sq,
            ratios,
            int(ratios.argmax()),
            int(res_sq.argmax()),
        )

    @property
    def active(self) -> np.ndarray:
        """The rows eligible for distance ratios.  An eligible row's ratio
        divides by a positive norm, so it is never ``-inf``."""
        return self.ratios != -np.inf

    @property
    def active_fro_sq(self) -> float:
        """``||J||_F^2`` over the eligible rows: the full sum over the same
        array when every row is active (see the module docstring)."""
        norms = self.grad_sq_norms
        return float(np.add.reduce(norms if self.every_row_active else norms[self.active]))


def _median(values: np.ndarray) -> float:
    """``np.median`` of a 1-D float array, bit for bit, for a fifth of its
    cost: numpy's own partition (the middle rank or ranks, and the last, where
    any NaN sorts), then its mean of the middle values, which adds them to
    0.0 (so ``-0.0`` comes out ``0.0``), or NaN when a NaN is present."""
    half, odd = divmod(values.size, 2)
    part = values.copy()
    part.partition([half, -1] if odd else [half - 1, half, -1])
    last = part.item(-1)
    if last != last:
        return last
    if odd:
        return 0.0 + part.item(half)
    return (0.0 + part.item(half - 1) + part.item(half)) / 2


@dataclass(slots=True, eq=False)
class SelectionResult:
    """A nonempty greedy index subset with its threshold and sampling weights."""

    indices: np.ndarray
    threshold: float
    weights: np.ndarray

    def __len__(self) -> int:
        return len(self.indices)


def compute_epsilon(g: RowGeometry, mode: ThresholdMode) -> float:
    """Capped threshold for the distance rule.

    Convex(theta):  eps = theta * max_i(|f_i|^2 / ||grad_i||^2) / ||f||^2
                          + (1 - theta) / ||J||_F^2
    Scaled(xi):     eps = xi * max_i(|f_i|^2 / ||grad_i||^2) / ||f||^2

    The maximum, ``||f||^2`` and ``||J||_F^2`` all run over the active rows.
    A zero ``||f||^2`` over them also covers the case of no active row.  The
    ratio to ``||f||^2`` is taken before ``theta`` or ``xi`` scales it, so a
    subnormal maximum loses no bits to the product.
    """
    if g.residual_sq <= 0.0:
        raise DegenerateState("distance threshold undefined at zero residual")
    if g.active_residual_sq <= 0.0:
        raise DegenerateState("all residual mass sits on zero-gradient rows")
    max_ratio = g.ratios.item(g.top_ratio_row)
    if isinstance(mode, Convex):
        return mode.theta * (max_ratio / g.active_residual_sq) + (1.0 - mode.theta) / g.active_fro_sq
    if isinstance(mode, Scaled):
        return mode.xi * (max_ratio / g.active_residual_sq)
    raise TypeError(f"unknown threshold mode: {mode!r}")


def build_distance_set(g: RowGeometry, eps: float) -> SelectionResult:
    """Rows whose distance ratio meets ``min(eps * ||f||^2, max ratio)``.

    ``eps`` must come from :func:`compute_epsilon` on the same geometry, and
    ``||f||^2`` runs over the active rows.  In exact arithmetic ``eps *
    ||f||^2`` never exceeds the maximum ratio; the clamp keeps that true
    after rounding, so the argmax row and every row tied with it are kept.
    Inactive rows carry ``-inf`` ratios and never qualify.  Weights are the
    squared residual entries of the kept rows.  Only a NaN ratio or
    threshold can leave the set empty.
    """
    mask = g.ratios >= min(eps * g.active_residual_sq, g.ratios.item(g.top_ratio_row))
    indices = mask.nonzero()[0]
    if indices.size == 0:
        raise EmptySet("distance set came out empty; threshold inconsistent with geometry")
    return SelectionResult(indices, eps, g.res_sq[indices])


def compute_delta(g: RowGeometry, mode: ThresholdMode) -> float:
    """Capped threshold for the residual rule.

    Convex(theta):  delta = theta * max_i |f_i|^2 / ||f||^2 + (1 - theta) / m
    Scaled(xi):     delta = xi * max_i |f_i|^2 / ||f||^2

    In Convex mode ``1/m <= delta <= 1`` always holds, and in Scaled mode
    ``delta <= xi``, up to rounding: the ratio is taken before ``theta`` or
    ``xi`` scales it, so a subnormal ``|f_i|^2`` loses no bits to the
    product.
    """
    if g.residual_sq <= 0.0:
        raise DegenerateState("residual threshold undefined at zero residual")
    max_res_sq = g.res_sq.item(g.top_residual_row)
    if isinstance(mode, Convex):
        return mode.theta * (max_res_sq / g.residual_sq) + (1.0 - mode.theta) / g.res_sq.size
    if isinstance(mode, Scaled):
        return mode.xi * (max_res_sq / g.residual_sq)
    raise TypeError(f"unknown threshold mode: {mode!r}")


def build_residual_set(g: RowGeometry, delta: float) -> SelectionResult:
    """Rows whose squared residual meets ``min(delta * ||f||^2, max |f_i|^2)``.

    ``delta`` must come from :func:`compute_delta` on the same geometry.  In
    exact arithmetic ``delta * ||f||^2`` never exceeds the largest squared
    residual; the clamp keeps that true after rounding, so the
    largest-residual row and every row tied with it are kept.  Weights are
    ``|f_i|^2 / ||grad_i||^2`` for active member rows and zero for
    zero-gradient members (they stay in the set but are never sampled).
    Only a NaN square or threshold can leave the set empty.
    """
    mask = g.res_sq >= min(delta * g.residual_sq, g.res_sq.item(g.top_residual_row))
    indices = mask.nonzero()[0]
    if indices.size == 0:
        raise EmptySet("residual set came out empty; threshold inconsistent with geometry")
    weights = g.ratios[indices]
    if not g.every_row_active:
        # an active row's ratio is >= 0 or NaN, so this zeroes the -inf ones
        weights = np.maximum(weights, 0.0)
    # the weights are >= 0 or NaN, so the largest is zero exactly when all
    # are (argmax stops at the first NaN, which is truthy)
    if not weights.item(weights.argmax()):
        raise AllWeightsZero("every selected row has a vanishing gradient")
    return SelectionResult(indices, delta, weights)


def sample_index(sel: SelectionResult, rng: np.random.Generator) -> int:
    """Draw one member of ``sel`` with probability ``weights / sum(weights)``.

    Consumes exactly one uniform variate from ``rng`` (cumulative-sum
    inversion), so the draw sequence is reproducible for a fixed seed.
    """
    return sel.indices.item(draw_weighted_index(rng, sel.weights))
