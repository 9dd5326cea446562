"""Hamiltonian families with their exact omega-derivatives.

Every family is parametrized so that the partial derivative of H with
respect to omega at fixed (g, Omega, N) is the bare number operator
(bosonic families) or the collective/total spin-z operator (spin
families). Analytic helpers for the effective oscillator (frequency,
derivative factor, characteristic time) live here as well.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import fock, spin
from .errors import CriticalPointGuard, TruncationGuard
from .fock import Sector
from .spectral import (
    HermitianOperator,
    QuantumState,
    SpectralDecomposition,
    eigendecompose,
)

FAMILIES = (
    "rabi_full",
    "effective_low",
    "effective_high",
    "lmg",
    "tfim",
    "tfim_transverse",
)
BOSONIC_FAMILIES = ("rabi_full", "effective_low", "effective_high")
CRITICAL_MARGIN = 1e-6
DEFAULT_OMEGA_RATIO = 1000.0  # reference Omega/omega when only x is given


@dataclass(frozen=True)
class ModelSpec:
    """One point of a model family; x = g^2/g_c^2 is always derived."""

    family: str
    omega: float
    g: float = 0.0
    Omega: float | None = None
    N: int | None = None
    n_max: int | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.omega <= 0:
            raise ValueError(f"omega must be positive, got {self.omega}")
        if self.family in BOSONIC_FAMILIES:
            if self.Omega is None or self.Omega <= 0:
                raise ValueError(f"{self.family} needs Omega > 0")
            if self.n_max is None:
                object.__setattr__(self, "n_max", fock.DEFAULT_N_MAX)
            if self.family == "effective_low" and self.x >= 1.0 - CRITICAL_MARGIN:
                raise CriticalPointGuard(
                    f"effective_low requires g^2/(omega*Omega) < 1 - {CRITICAL_MARGIN}, got x={self.x}"
                )
        else:
            if self.N is None:
                raise ValueError(f"{self.family} needs a spin count N")

    @property
    def g_c(self) -> float:
        if self.family in BOSONIC_FAMILIES:
            return math.sqrt(self.omega * self.Omega)
        return self.omega

    @property
    def x(self) -> float:
        return (self.g / self.g_c) ** 2

    @property
    def g_over_gc(self) -> float:
        return self.g / self.g_c

    @property
    def sector(self) -> Sector | None:
        if self.family == "effective_low":
            return Sector.LOW
        if self.family == "effective_high":
            return Sector.HIGH
        return None

    def with_omega(self, omega: float) -> "ModelSpec":
        """Shift omega at fixed (g, Omega, N); x changes accordingly."""
        return dataclasses.replace(self, omega=omega)

    def with_n_max(self, n_max: int) -> "ModelSpec":
        return dataclasses.replace(self, n_max=n_max)

    @classmethod
    def effective(
        cls,
        sector: Sector | str,
        omega: float = 1.0,
        x: float = 0.0,
        n_max: int | None = None,
        omega_ratio: float = DEFAULT_OMEGA_RATIO,
    ) -> "ModelSpec":
        """Effective sector model at reduced coupling x, Omega eliminated."""
        sector = Sector(sector)
        if x < 0:
            raise ValueError(f"x must be >= 0, got {x}")
        Omega = omega_ratio * omega
        g = math.sqrt(x * omega * Omega)
        family = "effective_low" if sector is Sector.LOW else "effective_high"
        return cls(family=family, omega=omega, g=g, Omega=Omega, n_max=n_max)

    @classmethod
    def rabi(
        cls, omega: float, Omega: float, x: float, n_max: int | None = None
    ) -> "ModelSpec":
        g = math.sqrt(x * omega * Omega)
        return cls(family="rabi_full", omega=omega, g=g, Omega=Omega, n_max=n_max)


@dataclass(frozen=True, eq=False)
class ModelInstance:
    """Hamiltonian, its exact omega-derivative, and the generating spec."""

    H: HermitianOperator
    dH_domega: HermitianOperator
    spec: ModelSpec
    basis: str


def build_rabi_full(spec: ModelSpec) -> ModelInstance:
    """H = omega n (x) 1 + Omega/2 1 (x) sigma_z + g/2 (a+adag) (x) sigma_x."""
    space = fock.FockSpace(spec.n_max)
    a, adag = fock.annihilation(space)
    nop = np.diag(np.arange(space.dim, dtype=float))
    eye_f = np.eye(space.dim)
    sz = np.diag([1.0, -1.0])
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    H = (
        spec.omega * np.kron(nop, np.eye(2))
        + spec.Omega / 2.0 * np.kron(eye_f, sz)
        + spec.g / 2.0 * np.kron(a + adag, sx)
    )
    dH = np.kron(nop, np.eye(2))
    basis = f"{space.basis_label}*qubit"
    return ModelInstance(HermitianOperator(H), HermitianOperator(dH), spec, basis)


def build_effective(spec: ModelSpec) -> ModelInstance:
    """H = omega n -/+ g^2/(4 Omega) (a+adag)^2, constant terms dropped."""
    space = fock.FockSpace(spec.n_max)
    q = fock.quadrature(space).entries
    nop = np.diag(np.arange(space.dim, dtype=float))
    sign = -1.0 if spec.sector is Sector.LOW else +1.0
    H = spec.omega * nop + sign * spec.g**2 / (4.0 * spec.Omega) * (q @ q)
    return ModelInstance(
        HermitianOperator(H), HermitianOperator(nop), spec, space.basis_label
    )


def build_lmg(spec: ModelSpec) -> ModelInstance:
    """H = omega S_z - (g/N) S_x^2 in the symmetric subspace (g_c = omega)."""
    basis = spin.DickeBasis(spec.N)
    sx, _, sz = spin.collective_spin_ops(basis)
    H = spec.omega * sz.entries - (spec.g / spec.N) * (sx.entries @ sx.entries)
    return ModelInstance(HermitianOperator(H), sz, spec, basis.basis_label)


@lru_cache(maxsize=8)
def _chain_terms(N: int) -> tuple[HermitianOperator, np.ndarray, np.ndarray]:
    """(sum sigma_z = d_omega H, sum sigma_x sigma_x, sum sigma_z sigma_z), periodic bonds."""
    states, signs = spin.chain_bits(spin.ChainBasis(N))
    bonds = [(i, (i + 1) % N) for i in range(N)]  # periodic boundary
    zz_sum = np.diag(sum(signs[:, i] * signs[:, j] for i, j in bonds))
    xx_sum = np.zeros((states.size, states.size))
    for i, j in bonds:
        # sigma_x sigma_x flips the two bond bits
        xx_sum[states ^ ((1 << i) | (1 << j)), states] += 1.0
    for arr in (xx_sum, zz_sum):
        arr.setflags(write=False)
    return HermitianOperator(np.diag(signs.sum(axis=1))), xx_sum, zz_sum


def _chain_hamiltonian(spec: ModelSpec, transverse: bool) -> ModelInstance:
    basis = spin.ChainBasis(spec.N)
    z_sum, xx_sum, zz_sum = _chain_terms(spec.N)
    H = spec.omega * z_sum.entries - spec.g * xx_sum
    if transverse:
        H = H + spec.g * zz_sum
    return ModelInstance(HermitianOperator(H), z_sum, spec, basis.basis_label)


def build_tfim(spec: ModelSpec) -> ModelInstance:
    """H = omega sum sigma_z - g sum sigma_x sigma_x, periodic."""
    return _chain_hamiltonian(spec, transverse=False)


def build_tfim_transverse(spec: ModelSpec) -> ModelInstance:
    """H = omega sum sigma_z - g sum (sigma_x sigma_x - sigma_z sigma_z), periodic."""
    return _chain_hamiltonian(spec, transverse=True)


_BUILDERS = {
    "rabi_full": build_rabi_full,
    "effective_low": build_effective,
    "effective_high": build_effective,
    "lmg": build_lmg,
    "tfim": build_tfim,
    "tfim_transverse": build_tfim_transverse,
}


def build(spec: ModelSpec) -> ModelInstance:
    return _BUILDERS[spec.family](spec)


def effective_frequency(sector: Sector | str, omega: float, x: float) -> float:
    """omega sqrt(1 -/+ x) = omega exp(-2 xi)."""
    sector = Sector(sector)
    if sector is Sector.LOW:
        if x >= 1.0 - CRITICAL_MARGIN:
            raise CriticalPointGuard(f"low sector frequency undefined at x={x}")
        return omega * math.sqrt(1.0 - x)
    return omega * math.sqrt(1.0 + x)


def frequency_derivative_factor(sector: Sector | str, x: float) -> float:
    """(d_omega omega sqrt(1 -/+ x))^2 = (2 -/+ x)^2 / (4 (1 -/+ x))."""
    sector = Sector(sector)
    if sector is Sector.LOW:
        if x >= 1.0 - CRITICAL_MARGIN:
            raise CriticalPointGuard(f"low sector derivative undefined at x={x}")
        return (2.0 - x) ** 2 / (4.0 * (1.0 - x))
    return (2.0 + x) ** 2 / (4.0 * (1.0 + x))


def characteristic_time(sector: Sector | str, omega: float, x: float) -> float:
    """Inverse effective gap, 1/(omega sqrt(1 -/+ x))."""
    return 1.0 / effective_frequency(sector, omega, x)


def truncation_weight(instance: ModelInstance, state: QuantumState) -> float:
    """Ground-state population of the top two Fock levels (bosonic only)."""
    if instance.spec.family not in BOSONIC_FAMILIES:
        raise ValueError(f"no Fock truncation for family {instance.spec.family}")
    amps = state.amplitudes
    if instance.spec.family == "rabi_full":
        amps = amps.reshape(instance.spec.n_max + 1, 2)
        return float(np.sum(np.abs(amps[-2:, :]) ** 2))
    return float(np.sum(np.abs(amps[-2:]) ** 2))


def ground_decomposition(
    instance: ModelInstance, check_truncation: bool = True
) -> SpectralDecomposition:
    """Diagonalize and, for bosonic families, enforce the truncation bound."""
    dec = eigendecompose(instance.H, basis=instance.basis)
    if check_truncation and instance.spec.family in BOSONIC_FAMILIES:
        weight = truncation_weight(instance, dec.eigenvector(0))
        if weight >= fock.TRUNCATION_TOL:
            raise TruncationGuard(
                f"ground state populates top Fock levels at {weight:.3e} "
                f"(n_max={instance.spec.n_max})"
            )
    return dec


def diagonalize_converged(spec: ModelSpec) -> tuple[ModelInstance, SpectralDecomposition]:
    """Build and diagonalize, doubling n_max until the truncation bound holds."""

    def solve(point: ModelSpec) -> tuple[ModelInstance, SpectralDecomposition]:
        inst = build(point)
        return inst, ground_decomposition(inst)

    if spec.family not in BOSONIC_FAMILIES:
        return solve(spec)
    return fock.escalate_n_max(lambda n_max: solve(spec.with_n_max(n_max)), spec.n_max)
