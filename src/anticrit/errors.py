"""Guard exceptions raised when a numerical contract cannot be met.

All guards derive from :class:`NumericalGuard` so callers (and the CLI)
can distinguish "the computation refused" from programming errors.
"""


class NumericalGuard(Exception):
    """Base class for refusals triggered by numerical preconditions."""


class HermiticityViolation(NumericalGuard):
    """Matrix is not Hermitian within tolerance."""


class DimensionGuard(NumericalGuard):
    """Dimension mismatch, or a dimension outside the supported range."""


class BasisGuard(NumericalGuard):
    """Two states live in different labeled bases."""


class CriticalPointGuard(NumericalGuard):
    """Low-sector coupling at or beyond the critical point: gap closed."""


class TruncationGuard(NumericalGuard):
    """State leaks into the top of the truncated Fock space."""


class DegeneracyGuard(NumericalGuard):
    """Ground state (quasi-)degenerate; estimator undefined."""

    def __init__(self, message: str, gap: float | None = None):
        super().__init__(message)
        self.gap = gap


class GapGuard(NumericalGuard):
    """Energy gap too small (or non-positive) for the requested quantity."""


class StepGuard(NumericalGuard):
    """Finite-difference step failed its Richardson consistency check."""


class ConvergenceGuard(NumericalGuard):
    """Discretized integral did not converge under step refinement."""
