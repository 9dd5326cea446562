"""Truncated single-mode bosonic operators and squeezed-vacuum states.

The squeezed vacuum's amplitudes follow a two-term recurrence; the state is
its first n_max + 1 amplitudes, renormalized, once the top Fock levels are
empty enough for the truncation to be harmless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Any, Callable

import numpy as np

from .errors import CriticalPointGuard, TruncationGuard
from .spectral import HermitianOperator, QuantumState

TRUNCATION_TOL = 1e-10
DEFAULT_N_MAX = 300
N_MAX_CAP = 2**12


class Sector(str, Enum):
    """Which spin projection the oscillator is slaved to."""

    LOW = "low"  # gap closes toward the critical point
    HIGH = "high"  # gap opens with coupling (anti-critical)


@dataclass(frozen=True)
class FockSpace:
    """Fock space truncated at level n_max (dimension n_max + 1)."""

    n_max: int

    def __post_init__(self):
        if self.n_max < 2:
            raise ValueError(f"n_max must be >= 2, got {self.n_max}")

    @property
    def dim(self) -> int:
        return self.n_max + 1

    @property
    def basis_label(self) -> str:
        return f"fock({self.n_max})"


@lru_cache(maxsize=8)
def number_operator(space: FockSpace) -> HermitianOperator:
    """n = adag a, held as its diagonal, once per truncation."""
    return HermitianOperator.from_diagonal(np.arange(space.dim, dtype=float))


@dataclass(frozen=True)
class SqueezingParameters:
    """Squeezing strength for one sector at reduced coupling x = g^2/g_c^2."""

    sector: Sector
    xi: float
    x: float


def squeezing_parameter(sector: Sector | str, x: float) -> SqueezingParameters:
    """xi_- = -ln(1-x)/4 (low), xi_+ = -ln(1+x)/4 (high)."""
    sector = Sector(sector)
    if x < 0.0:
        raise ValueError(f"x must be >= 0, got {x}")
    if sector is Sector.LOW:
        if x >= 1.0:
            raise CriticalPointGuard(f"low sector needs x < 1 (gap closed at x={x})")
        xi = -0.25 * math.log1p(-x)
    else:
        xi = -0.25 * math.log1p(x)
    return SqueezingParameters(sector, xi, x)


def squeeze_vacuum(xi: float, space: FockSpace) -> QuantumState:
    """exp[(xi/2)(adag^2 - a^2)] |0> on the truncated space, renormalized.

    The even amplitudes are c_0 = cosh(xi)^(-1/2) and c_{2m+2} = c_{2m}
    tanh(xi) sqrt((2m+1)/(2m+2)), the odd ones 0. They are built from
    c_0 = 1 and normalized, which cannot overflow at any xi, and are real,
    with the vacuum amplitude positive. TruncationGuard when the top two
    levels of the normalized state carry TRUNCATION_TOL or more.
    """
    m = np.arange(space.n_max // 2)
    ratios = math.tanh(xi) * np.sqrt((2.0 * m + 1.0) / (2.0 * m + 2.0))
    amps = np.zeros(space.dim)
    amps[0::2] = np.cumprod(np.concatenate(([1.0], ratios)))
    amps /= math.sqrt(amps @ amps)
    top_population = float(amps[-2:] @ amps[-2:])
    if top_population >= TRUNCATION_TOL:
        raise TruncationGuard(
            f"top two Fock levels carry {top_population:.3e} >= {TRUNCATION_TOL:.0e} "
            f"(xi={xi}, n_max={space.n_max})"
        )
    return QuantumState(amps, space.basis_label)


def escalate_n_max(attempt: Callable[[int], Any], n_max: int) -> Any:
    """attempt(n_max), doubling n_max up to N_MAX_CAP while it raises TruncationGuard."""
    while True:
        try:
            return attempt(n_max)
        except TruncationGuard:
            if n_max >= N_MAX_CAP:
                raise
            n_max = min(2 * n_max, N_MAX_CAP)


def squeeze_vacuum_auto(xi: float, n_max: int = DEFAULT_N_MAX) -> QuantumState:
    """squeeze_vacuum with n_max doubled (up to the cap) until it fits."""
    return escalate_n_max(lambda n: squeeze_vacuum(xi, FockSpace(n)), n_max)


@dataclass(frozen=True)
class MeanExcitations:
    """Exact sinh^2(xi) plus its leading near-critical estimate."""

    exact: float
    near_critical: float


def mean_excitations(params: SqueezingParameters) -> MeanExcitations:
    exact = math.sinh(params.xi) ** 2
    if params.sector is Sector.LOW:
        approx = 0.25 / math.sqrt(1.0 - params.x)
    else:
        approx = 0.25 * math.sqrt(params.x)
    return MeanExcitations(exact, approx)
