"""Exception types shared across the package."""


class CappedKaczmarzError(Exception):
    """Base class for all library errors."""


class NumericalBreakdown(CappedKaczmarzError):
    """A numerical failure that ends a solve with status
    ``NUMERICAL_BREAKDOWN`` instead of raising out of ``solve``."""


class DegenerateState(NumericalBreakdown):
    """Selection was asked for at a state where no greedy rule is defined
    (zero residual, or every row gradient numerically vanished)."""


class EmptySet(NumericalBreakdown):
    """A greedy index set came out empty.  Unreachable for valid inputs;
    raised defensively so floating-point drift surfaces as a bug."""


class AllWeightsZero(NumericalBreakdown):
    """Every sampling weight in a selection is zero (stationary degenerate
    state: all selected rows have vanishing gradients)."""


class ZeroGradient(NumericalBreakdown):
    """A single-row projection step met a row gradient that is zero or
    not finite."""


class FactorizationFailure(NumericalBreakdown):
    """A dense factorization (SVD / least squares) did not complete, or its
    inputs were not finite."""


class DimensionMismatch(CappedKaczmarzError):
    """Problem constructor received inconsistently shaped inputs."""


class InvalidEta(CappedKaczmarzError):
    """A convergence factor was requested for eta >= 1/2, where the bound
    is meaningless."""


class HypothesisViolated(CappedKaczmarzError):
    """A block-factor hypothesis (alpha > 0 or beta > 0) does not hold at
    the given state.  Reported by diagnostics, never fatal to a solve."""


class ParseError(CappedKaczmarzError):
    """Malformed dataset input.  Carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
