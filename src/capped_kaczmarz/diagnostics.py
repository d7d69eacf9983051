"""Theory-side diagnostics.

Estimates the local tangential-cone constant eta empirically, evaluates the
per-iteration convergence-factor expressions of the capped methods and the
residual-proportional baseline, and checks the underlying step inequalities
point-wise.  Every quantity is conditional on the estimation region and is
reported as such: eta is a supremum over sampled pairs, never assumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .core import BLOCK_KINDS, IterateMemo, MethodKind, ProblemInstance, SolveTrace, ThresholdMode
from .errors import HypothesisViolated, InvalidEta
from .numerics import min_norm_least_squares, singular_extremes
from .selection import ACTIVE_ABS_FLOOR, RowGeometry
from .solvers import greedy_selection

# Numerators this close to the rounding noise of their operands count as
# exact cancellations, so affine rows estimate to exactly zero.
_CANCEL_ULPS = 64.0 * float(np.finfo(np.float64).eps)
_DENOM_FLOOR = 1e-12
# A pair informs row i only when its function difference carries at least
# this fraction of the first-order scale ||grad_i|| * ||x1 - x2||.
_RESOLVE_FRACTION = 0.5
# the methods a factor report replays (and ``bench --diagnostics`` reports
# on): the greedy methods over all rows
REPORTED_KINDS = BLOCK_KINDS | {MethodKind.DR_CNK, MethodKind.RD_CNK}


@dataclass(frozen=True)
class EtaEstimate:
    """Empirical per-row suprema of the linearization-defect ratio over
    sampled point pairs.  Lower bounds of the true regional suprema."""

    eta_per_row: np.ndarray
    eta: float
    sample_count: int
    center: np.ndarray
    radius: float
    flagged_rows: tuple[int, ...]


def _sample_ball(rng: np.random.Generator, center: np.ndarray, radius: float) -> np.ndarray:
    direction = rng.standard_normal(center.shape[0])
    direction /= np.linalg.norm(direction)
    return center + radius * rng.random() ** (1.0 / center.shape[0]) * direction


def estimate_eta(
    problem: ProblemInstance,
    center: np.ndarray,
    radius: float,
    pairs: int,
    rng: np.random.Generator,
) -> EtaEstimate:
    """Estimate the tangential-cone constant over a ball.

    For each sampled pair (x1, x2) and each row i the accumulated ratio is
    ``|f_i(x1) - f_i(x2) - grad_i(x1)^T (x1 - x2)| / |f_i(x1) - f_i(x2)|``.

    A pair informs row i only when the difference is first-order resolved:
    ``|f_i(x1) - f_i(x2)|`` must exceed 1e-12 and half the scale
    ``||grad_i(x1)|| ||x1 - x2||``.  Near a row's level set the denominator
    cancels at first order while the defect stays quadratic, so the
    unrestricted supremum is unbounded for every non-affine row; those
    degenerate pairs carry no projection information and are skipped.
    Rows that never produced a valid ratio are flagged, not failed.  A
    problem with no rows, or an empty ``center``, raises ``ValueError``.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if pairs < 1:
        raise ValueError("need at least one pair")
    if problem.m < 1:
        raise ValueError("cannot estimate eta on a problem with no rows")
    center = np.asarray(center, dtype=float)
    if center.size == 0:
        raise ValueError("cannot estimate eta around an empty center")
    sup = np.zeros(problem.m)
    counts = np.zeros(problem.m, dtype=int)
    for _ in range(pairs):
        x1 = _sample_ball(rng, center, radius)
        x2 = _sample_ball(rng, center, radius)
        f1 = problem.residual(x1)
        f2 = problem.residual(x2)
        J1 = problem.jacobian(x1)
        step_norm = float(np.linalg.norm(x1 - x2))
        grad_norms = np.sqrt(np.einsum("ij,ij->i", J1, J1))
        lin = J1 @ (x1 - x2)
        den = f1 - f2
        num = np.abs(den - lin)
        # cancel sub-ulp numerators so affine rows measure exactly zero
        noise = _CANCEL_ULPS * np.maximum.reduce(
            [np.abs(f1), np.abs(f2), np.abs(lin), grad_norms * step_norm]
        )
        num[num <= noise] = 0.0
        valid = np.abs(den) > np.maximum(
            _DENOM_FLOOR, _RESOLVE_FRACTION * grad_norms * step_norm
        )
        ratio = np.where(valid, num / np.where(valid, np.abs(den), 1.0), 0.0)
        np.maximum(sup, ratio, out=sup)
        counts += valid
    flagged = tuple(int(i) for i in np.flatnonzero(counts == 0))
    return EtaEstimate(
        eta_per_row=sup,
        eta=float(sup.max()),
        sample_count=pairs,
        center=center,
        radius=radius,
        flagged_rows=flagged,
    )


def _require_valid_eta(eta: float) -> None:
    if not 0.0 <= eta < 0.5:
        raise InvalidEta(f"convergence factors need 0 <= eta < 1/2, got {eta}")


def factor_dr_cnk(eps_k: float, h2: float, eta: float) -> float:
    """One-iteration expected contraction factor of the distance-capped
    single-sample method: ``1 - (1 - 2 eta) / (1 + eta^2) * eps_k * h2^2``."""
    _require_valid_eta(eta)
    return 1.0 - (1.0 - 2.0 * eta) / (1.0 + eta * eta) * eps_k * h2 * h2


def factor_rd_cnk(delta_k: float, h2: float, max_grad_sq: float, eta: float) -> float:
    """Analogue for the residual-capped single-sample method, normalized by
    the largest squared row-gradient norm."""
    _require_valid_eta(eta)
    return 1.0 - (1.0 - 2.0 * eta) / (1.0 + eta * eta) * delta_k * h2 * h2 / max_grad_sq


def factor_nrk(h2: float, fro_sq: float, m: int, eta: float) -> float:
    """Reference factor of the residual-proportional baseline (identical for
    the uniform baseline): ``1 - (1-2 eta)/(1+eta)^2 * h2^2 / (fro_sq * m)``."""
    _require_valid_eta(eta)
    return 1.0 - (1.0 - 2.0 * eta) / (1.0 + eta) ** 2 * h2 * h2 / (fro_sq * m)


def factor_block(
    alpha_or_beta: float,
    set_size: int,
    eps_or_delta: float,
    h2: float,
    min_grad_sq: float,
    eta: float,
) -> float:
    """One-step contraction factor of a block method.

    ``alpha_or_beta`` is the pseudoinverse margin ``h2^2(J_tau^+) - 2 eta
    sigma_max^2(J_tau^+)`` minimized/maximized over the realized sets; it
    must be positive for the bound to apply.  Distance-capped blocks pass
    the smallest squared row-gradient norm, residual-capped blocks pass 1.
    """
    _require_valid_eta(eta)
    if alpha_or_beta <= 0.0:
        raise HypothesisViolated(
            f"block factor hypothesis needs a positive margin, got {alpha_or_beta}"
        )
    return 1.0 - alpha_or_beta * min_grad_sq * set_size * eps_or_delta * h2 * h2 / (1.0 + eta * eta)


def pseudoinverse_extremes(J_tau: np.ndarray) -> tuple[float, float]:
    """``(sigma_max, h2)`` of the Moore-Penrose pseudoinverse of a row block."""
    return singular_extremes(np.linalg.pinv(np.asarray(J_tau, dtype=float)))


def block_margin(h2_pinv_sq_min: float, sigma_pinv_sq_max: float, eta: float) -> float:
    """The alpha/beta margin from pseudoinverse extremes over realized sets."""
    _require_valid_eta(eta)
    return h2_pinv_sq_min - 2.0 * eta * sigma_pinv_sq_max


@dataclass(frozen=True)
class FactorRow:
    """Per-iteration diagnostics entry.

    For block methods ``margin`` is the uniform alpha/beta (min/max of the
    pseudoinverse extremes over every realized set of the trace) while
    ``step_margin`` uses only this iteration's set; the one-step bound in
    ``rho_method`` is driven by ``step_margin``.
    """

    k: int
    threshold: float
    set_size: int
    h2: float
    max_grad_sq: float
    min_grad_sq: float
    rho_method: float | None
    rho_nrk: float
    margin: float | None = None
    step_margin: float | None = None
    hypothesis_ok: bool | None = None
    measured_ratio: float | None = None
    expected_ratio: float | None = None


@dataclass
class FactorReport:
    method: MethodKind
    eta: float
    radius: float
    rows: list[FactorRow] = field(default_factory=list)

    def to_jsonable(self) -> dict:
        return {
            "method": self.method.value,
            "eta": self.eta,
            "estimation_radius": self.radius,
            "rows": [vars(row) for row in self.rows],
        }


def build_factor_report(
    problem: ProblemInstance,
    trace: SolveTrace,
    eta: EtaEstimate,
    mode: ThresholdMode,
    method: MethodKind,
) -> FactorReport:
    """Recompute the factor ingredients along a recorded trajectory.

    Needs ``trace.iterates`` (solve with ``record_iterates=True``) and one
    of ``dr-cnk``, ``rd-cnk``, ``db-cnk`` and ``rb-cnk``.  For the
    block methods the margin uses the pseudoinverse extremes min/maxed over
    every realized set of the trace, matching how the bound is stated; the
    measured one-step error ratio is attached when the root is known.

    Each iterate's replayed set is checked against the trace: its size must
    be the recorded set size, and it must hold the recorded row (a single-row
    method) or be the recorded block.  A mismatch means the trace is not of
    this problem, method and threshold, and raises ValueError naming k.
    """
    if method not in REPORTED_KINDS:
        raise ValueError(f"factor reports cover dr-cnk, rd-cnk, db-cnk and rb-cnk, not {method.value}")
    if trace.iterates is None:
        raise ValueError("trace must carry iterates; solve with record_iterates=True")
    _require_valid_eta(eta.eta)
    is_block = method in BLOCK_KINDS

    # one pass that keeps only each iterate's report row: replay the set
    # through the solver's own selection and norms, and hold that iterate's
    # Jacobian only while its row is built; one memo per iterate lets its
    # evaluations share what they derive from it, as in ``solve``
    report = FactorReport(method=method, eta=eta.eta, radius=eta.radius)
    x_star = problem.known_root
    h2_min, sig_max = np.inf, 0.0
    for record, x, x_next in zip(trace.records[:-1], trace.iterates, trace.iterates[1:]):
        memo = IterateMemo()
        g = RowGeometry.from_state(problem.residual(x, memo), problem.row_sq_norms_at(x, memo))
        sel = greedy_selection(g, method, mode)
        replayed = tuple(sel.indices.tolist())
        if is_block:
            mismatch = record.selected != replayed
        else:
            mismatch = len(record.selected) != 1 or record.selected[0] not in replayed
        if mismatch or len(replayed) != record.set_size:
            raise ValueError(
                f"k = {record.k}: the replayed set of {len(replayed)} rows does not match the recorded "
                f"selection {record.selected} from a set of {record.set_size}"
            )
        J = problem.jacobian(x, None, memo)
        _, h2 = singular_extremes(J)
        max_grad = float(g.grad_sq_norms.max())
        min_grad = float(g.grad_sq_norms[g.active].min())
        rho_ref = factor_nrk(h2, float(np.add.reduce(g.grad_sq_norms)), problem.m, eta.eta)
        rho_method = None
        hypothesis_ok = None
        step_margin = None
        if method is MethodKind.DR_CNK:
            rho_method = factor_dr_cnk(sel.threshold, h2, eta.eta)
        elif method is MethodKind.RD_CNK:
            rho_method = factor_rd_cnk(sel.threshold, h2, max_grad, eta.eta)
        elif is_block:
            sig, h2p = pseudoinverse_extremes(J[sel.indices])
            step_margin = block_margin(h2p * h2p, sig * sig, eta.eta)
            h2_min = min(h2_min, h2p * h2p)
            sig_max = max(sig_max, sig * sig)
            hypothesis_ok = step_margin > 0.0
            if hypothesis_ok:
                rho_method = factor_block(
                    step_margin,
                    len(sel),
                    sel.threshold,
                    h2,
                    min_grad if method is MethodKind.DB_CNK else 1.0,
                    eta.eta,
                )
        measured = None
        expected = None
        if x_star is not None:
            err_now = float(np.sum((x - x_star) ** 2))
            err_next = float(np.sum((x_next - x_star) ** 2))
            if err_now > 0:
                measured = err_next / err_now
            if not is_block and err_now > 0 and sel.weights.sum() > 0:
                # the single-sample bounds are stated in expectation, so sum
                # the one-step decrease over the whole selection distribution
                probs = sel.weights / sel.weights.sum()
                drawn = probs != 0.0
                rows = sel.indices[drawn]
                steps = x - (g.residual[rows] / g.grad_sq_norms[rows])[:, None] * J[rows]
                terms = probs[drawn] * np.sum((steps - x_star) ** 2, axis=1)
                # added in row order, one at a time: Python's ``sum`` of
                # floats compensates from 3.12 on, ``accumulate`` does not
                expected = float(np.add.accumulate(terms)[-1]) / err_now
        report.rows.append(
            FactorRow(
                k=record.k,
                threshold=sel.threshold,
                set_size=len(sel),
                h2=h2,
                max_grad_sq=max_grad,
                min_grad_sq=min_grad,
                rho_method=rho_method,
                rho_nrk=rho_ref,
                step_margin=step_margin,
                hypothesis_ok=hypothesis_ok,
                measured_ratio=measured,
                expected_ratio=expected,
            )
        )
    if is_block and report.rows:
        # the uniform margin is over every realized set, so it is known only now
        margin = block_margin(h2_min, sig_max, eta.eta)
        report.rows = [replace(row, margin=margin) for row in report.rows]
    return report


@dataclass
class StepInequalityReport:
    """Violation counts for the three step inequalities, evaluated with a
    small relative rounding slack."""

    single_step_checked: int = 0
    single_step_violations: int = 0
    difference_bound_checked: int = 0
    difference_bound_violations: int = 0
    block_step_checked: int = 0
    block_step_violations: int = 0

    @property
    def total_violations(self) -> int:
        return (
            self.single_step_violations
            + self.difference_bound_violations
            + self.block_step_violations
        )


def check_step_inequalities(
    problem: ProblemInstance,
    x_pairs,
    tau_sets,
    eta_est: EtaEstimate,
    slack: float = 1e-10,
) -> StepInequalityReport:
    """Evaluate both sides of the step inequalities at sampled states.

    * single-step decrease: one row projection shrinks the squared error by
      at least ``(1 - 2 eta_i) |f_i|^2 / ||grad_i||^2``;
    * difference bound: ``||f_tau(x1) - f_tau(x2)||^2 >= ||J_tau(x1)(x1 -
      x2)||^2 / (1 + eta^2)``;
    * block-step decrease: the pseudoinverse projection shrinks the squared
      error by at least the margin times ``||f_tau||^2``.

    Violations are counted, not raised; zero is expected whenever the eta
    estimate upper-bounds the regional constant.
    """
    x_star = problem.known_root
    if x_star is None:
        raise ValueError("step inequality checks need a known root")
    eta = eta_est.eta
    report = StepInequalityReport()
    for x1, x2 in x_pairs:
        x1 = np.asarray(x1, dtype=float)
        x2 = np.asarray(x2, dtype=float)
        f1 = problem.residual(x1)
        J1 = problem.jacobian(x1)
        err1 = float(np.sum((x1 - x_star) ** 2))
        gsq = np.einsum("ij,ij->i", J1, J1)
        tolerance = slack * max(1.0, err1)
        rows = ~(gsq < ACTIVE_ABS_FLOOR)  # a NaN norm is checked, not skipped
        f, g = f1[rows], gsq[rows]
        x_next = x1 - (f / g)[:, None] * J1[rows]
        lhs = np.sum((x_next - x_star) ** 2, axis=1)
        rhs = err1 - (1.0 - 2.0 * eta_est.eta_per_row[rows]) * f**2 / g
        report.single_step_checked += len(f)
        report.single_step_violations += int(np.count_nonzero(lhs > rhs + tolerance))

        f2 = problem.residual(x2)
        for tau in tau_sets:
            tau = np.asarray(tau, dtype=int)
            diff_sq = float(np.sum((f1[tau] - f2[tau]) ** 2))
            lin_sq = float(np.sum((J1[tau] @ (x1 - x2)) ** 2))
            report.difference_bound_checked += 1
            if diff_sq + slack * max(1.0, lin_sq) < lin_sq / (1.0 + eta * eta):
                report.difference_bound_violations += 1

            sig, h2p = pseudoinverse_extremes(J1[tau])
            margin = h2p * h2p - 2.0 * eta * sig * sig
            x_next = x1 - min_norm_least_squares(J1[tau], f1[tau])
            lhs = float(np.sum((x_next - x_star) ** 2))
            rhs = err1 - margin * float(np.sum(f1[tau] ** 2))
            report.block_step_checked += 1
            if lhs > rhs + tolerance:
                report.block_step_violations += 1
    return report
