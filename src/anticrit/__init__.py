"""Anti-critical metrology numerics: exact diagonalization, squeezing, QFI."""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    BasisGuard,
    ConvergenceGuard,
    CriticalPointGuard,
    DegeneracyGuard,
    DimensionGuard,
    GapGuard,
    HermiticityViolation,
    NumericalGuard,
    StepGuard,
    TruncationGuard,
)
from .fock import FockSpace, Sector, SqueezingParameters  # noqa: F401
from .models import ModelInstance, ModelSpec  # noqa: F401
from .qfi import QfiResult, RampSpec  # noqa: F401
from .spectral import (  # noqa: F401
    HermitianOperator,
    QuantumState,
    SpectralDecomposition,
    eigendecompose,
    energy_gap,
    expectation,
    overlap,
    variance,
)
