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
from typing import Any, Callable

import numpy as np

from . import fock, spin
from .errors import CriticalPointGuard, TruncationGuard
from .fock import Sector
from .spectral import (
    GroundSector,
    HermitianOperator,
    SpectralDecomposition,
    check_norm,
    eigendecompose,
    ground_sector,
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
SECTORS = {"effective_low": Sector.LOW, "effective_high": Sector.HIGH}
CRITICAL_MARGIN = 1e-6
DEFAULT_OMEGA_RATIO = 1000.0  # Omega/omega of a bosonic spec built without Omega
DEFAULT_N = {"lmg": 200, "tfim": 10, "tfim_transverse": 10}  # spin count of a spec built without N


def _family_defaults(family: str, omega: float, Omega, N, n_max) -> tuple:
    """(Omega, N, n_max), each left at None replaced by the family's default."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if family in BOSONIC_FAMILIES:
        Omega = DEFAULT_OMEGA_RATIO * omega if Omega is None else Omega
        return Omega, N, fock.DEFAULT_N_MAX if n_max is None else n_max
    return Omega, DEFAULT_N[family] if N is None else N, n_max


@dataclass(frozen=True)
class ModelSpec:
    """One point of a model family; x = g^2/g_c^2 is always derived.

    Omega, N and n_max left at None take the family's default. An infinite
    omega, g or Omega raises ValueError naming it; a NaN is refused when H is
    built.
    """

    family: str
    omega: float
    g: float = 0.0
    Omega: float | None = None
    N: int | None = None
    n_max: int | None = None

    def __post_init__(self):
        for name in ("omega", "Omega", "g"):
            value = getattr(self, name)
            if value is not None and math.isinf(value):
                raise ValueError(f"{name} must be finite, got {value}")
        defaults = _family_defaults(self.family, self.omega, self.Omega, self.N, self.n_max)
        if self.omega <= 0:
            raise ValueError(f"omega must be positive, got {self.omega}")
        for name, value in zip(("Omega", "N", "n_max"), defaults):
            object.__setattr__(self, name, value)
        if self.family in BOSONIC_FAMILIES:
            if self.Omega <= 0:
                raise ValueError(f"{self.family} needs Omega > 0")
            if self.family == "effective_low" and self.x >= 1.0 - CRITICAL_MARGIN:
                raise CriticalPointGuard(
                    f"effective_low requires g^2/(omega*Omega) < 1 - {CRITICAL_MARGIN}, got x={self.x}"
                )

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
        return SECTORS.get(self.family)

    def with_omega(self, omega: float) -> "ModelSpec":
        """Shift omega at fixed (g, Omega, N); x changes accordingly."""
        return dataclasses.replace(self, omega=omega)

    def with_n_max(self, n_max: int) -> "ModelSpec":
        return self if n_max == self.n_max else dataclasses.replace(self, n_max=n_max)

    @classmethod
    def at(cls, family: str, x: float, omega: float = 1.0, **fields) -> "ModelSpec":
        """The point at reduced coupling x >= 0: g = sqrt(x omega Omega) (bosonic) or sqrt(x) omega.

        A negative spin coupling g has no x; build it with the constructor.
        """
        if x < 0:
            raise ValueError(f"x must be >= 0, got {x}")
        Omega, N, n_max = _family_defaults(
            family, omega, fields.pop("Omega", None), fields.pop("N", None), fields.pop("n_max", None)
        )
        if family in BOSONIC_FAMILIES:
            g = math.sqrt(max(x * omega * Omega, 0.0))  # the constructor refuses omega or Omega <= 0
        else:
            g = math.sqrt(x) * omega
        return cls(family, omega, g, Omega, N, n_max, **fields)

    @classmethod
    def effective(
        cls, sector: Sector | str, omega: float = 1.0, x: float = 0.0, n_max: int | None = None
    ) -> "ModelSpec":
        """Effective sector model at reduced coupling x, Omega eliminated."""
        return cls.at(f"effective_{Sector(sector).value}", x, omega, n_max=n_max)

    @classmethod
    def rabi(
        cls, omega: float, Omega: float, x: float, n_max: int | None = None
    ) -> "ModelSpec":
        return cls.at("rabi_full", x, omega, Omega=Omega, n_max=n_max)


@dataclass(frozen=True, eq=False)
class ModelInstance:
    """Hamiltonian, its exact omega-derivative, and the generating spec."""

    H: HermitianOperator
    dH_domega: HermitianOperator
    spec: ModelSpec
    basis: str


def build_rabi_full(spec: ModelSpec) -> ModelInstance:
    """H = omega n (x) 1 + Omega/2 1 (x) sigma_z + g/2 (a+adag) (x) sigma_x, in the parity order.

    Index 2n + p holds |n, s> with s = (n + p) mod 2 (s = 0 is sigma_z = +1).
    (a+adag) sigma_x takes |n, s> to |n+1, 1-s>, which keeps p, so each
    parity p is a chain over n (Casanova et al., PRL 105, 263603 (2010)) and
    H is parity-banded: index 2n + p couples only to 2(n+1) + p.
    """
    space = fock.FockSpace(spec.n_max)
    n = np.repeat(np.arange(space.dim, dtype=float), 2)
    sz = 1.0 - 2.0 * ((n + np.arange(n.size)) % 2)  # s = (n + p) mod 2 = (n + index) mod 2
    # 0.0 + g/2 sqrt(n+1) is the kron sum's 0.0 + 0.0 + g/2 sqrt(n+1): +0.0, not -0.0, at g = 0
    H = HermitianOperator.parity_banded(
        spec.omega * n + spec.Omega / 2.0 * sz, 0.0 + spec.g / 2.0 * np.sqrt(n[2:])
    )
    dH = HermitianOperator.from_diagonal(n)  # n (x) 1
    return ModelInstance(H, dH, spec, f"{space.basis_label}*qubit/parity")


def _tridiagonal_square(off: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(diagonal, offset -2 band) of T @ T for the symmetric tridiagonal T with zero
    diagonal and off-diagonal `off`.

    T^2 couples i only to i and i +/- 2: (T^2)_ii = off_{i-1}^2 + off_i^2
    and (T^2)_{i,i+2} = off_i off_{i+1}.
    """
    sq = np.square(off)
    return np.append(sq, 0.0) + np.insert(sq, 0, 0.0), off[:-1] * off[1:]


@lru_cache(maxsize=8)
def _effective_terms(n_max: int) -> tuple[HermitianOperator, tuple[np.ndarray, np.ndarray], str]:
    """(n = d_omega H, the bands of (a+adag)^2, the basis label) on the Fock space truncated
    at n_max; <n-1|a+adag|n> = sqrt(n)."""
    space = fock.FockSpace(n_max)
    q2 = _tridiagonal_square(np.sqrt(np.arange(1.0, space.dim)))
    return fock.number_operator(space), q2, space.basis_label


def build_effective(spec: ModelSpec) -> ModelInstance:
    """H = omega n -/+ g^2/(4 Omega) (a+adag)^2, constant terms dropped."""
    nop, (q2_diag, q2_band), basis = _effective_terms(spec.n_max)
    sign = -1.0 if spec.sector is Sector.LOW else +1.0
    c = sign * spec.g**2 / (4.0 * spec.Omega)
    # 0.0 + c q2_band is omega n + c q2 off the diagonal: +0.0, not -0.0, at g = 0
    H = HermitianOperator.parity_banded(
        spec.omega * nop.diagonal + c * q2_diag, 0.0 + c * q2_band
    )
    return ModelInstance(H, nop, spec, basis)


@lru_cache(maxsize=4)
def _lmg_terms(N: int) -> tuple[HermitianOperator, tuple[np.ndarray, np.ndarray]]:
    """(S_z = d_omega H, the bands of S_x^2), from the Dicke ladder; <m+1|S_x|m> = raising / 2."""
    m, raising = spin.dicke_ladder(spin.DickeBasis(N))
    return HermitianOperator.from_diagonal(m), _tridiagonal_square(raising / 2.0)


def build_lmg(spec: ModelSpec) -> ModelInstance:
    """H = omega S_z - (g/N) S_x^2 in the symmetric subspace (g_c = omega)."""
    sz, (sx2_diag, sx2_band) = _lmg_terms(spec.N)
    c = spec.g / spec.N
    # 0.0 - c sx2_band is omega S_z - c S_x^2 off the diagonal, as in build_effective
    H = HermitianOperator.parity_banded(
        spec.omega * sz.diagonal - c * sx2_diag, 0.0 - c * sx2_band
    )
    return ModelInstance(H, sz, spec, spin.DickeBasis(spec.N).basis_label)


@lru_cache(maxsize=8)
def _chain_terms(N: int) -> tuple[HermitianOperator, np.ndarray, tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """(sum sigma_z = d_omega H, diagonal of sum sigma_z sigma_z, the ascending rows of each
    parity block of prod sigma_z, each block's bond flips), periodic bonds.

    The even block (an even number of up spins, state 0 among them) comes
    first. sigma_x sigma_x on bond k, which keeps the parity, maps the
    block's j-th state to its flips[k, j]-th.
    """
    states, signs = spin.chain_bits(spin.ChainBasis(N))
    bonds = [(i, (i + 1) % N) for i in range(N)]  # periodic boundary
    zz_diag = sum(signs[:, i] * signs[:, j] for i, j in bonds)
    odd = np.count_nonzero(signs > 0, axis=1) % 2
    rows = tuple(np.flatnonzero(odd == parity) for parity in (0, 1))
    position = np.empty_like(states)
    for r in rows:
        position[r] = np.arange(r.size)
    flips = tuple(position[r ^ np.array([[(1 << i) | (1 << j)] for i, j in bonds])] for r in rows)
    return HermitianOperator.from_diagonal(signs.sum(axis=1)), zz_diag, rows, flips


def _chain_block(diag: np.ndarray, g: float, flips: np.ndarray) -> np.ndarray:
    """One parity block: its diagonal `diag`, and -g from each state to each of its bond flips."""
    block = np.zeros((diag.size, diag.size))
    np.fill_diagonal(block, diag)
    block[flips, np.arange(diag.size)] = 0.0 - g  # -g, and +0.0 rather than -0.0 at g = 0
    return block


def _chain_hamiltonian(spec: ModelSpec, transverse: bool) -> ModelInstance:
    """H from the bit table as its two parity blocks, with no 2^N x 2^N matrix."""
    z_sum, zz_diag, rows, flips = _chain_terms(spec.N)
    diag = spec.omega * z_sum.diagonal
    if transverse:
        diag = diag + spec.g * zz_diag
    # one block at a time: each is checked and copied before the next is written
    blocks = (_chain_block(diag[r], spec.g, f) for r, f in zip(rows, flips))
    H = HermitianOperator.block_diagonal(rows, blocks)
    return ModelInstance(H, z_sum, spec, spin.ChainBasis(spec.N).basis_label)


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
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    if sector is Sector.LOW:
        if x >= 1.0 - CRITICAL_MARGIN:
            raise CriticalPointGuard(f"low sector frequency undefined at x={x}")
        return omega * math.sqrt(1.0 - x)
    return omega * math.sqrt(1.0 + x)


def frequency_derivative_factor(sector: Sector | str, x: float) -> float:
    """(d_omega omega sqrt(1 -/+ x))^2 = (2 -/+ x)^2 / (4 (1 -/+ x))."""
    sector = Sector(sector)
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    if sector is Sector.LOW:
        if x >= 1.0 - CRITICAL_MARGIN:
            raise CriticalPointGuard(f"low sector derivative undefined at x={x}")
        return (2.0 - x) ** 2 / (4.0 * (1.0 - x))
    return (2.0 + x) ** 2 / (4.0 * (1.0 + x))


def characteristic_time(sector: Sector | str, omega: float, x: float) -> float:
    """Inverse effective gap, 1/(omega sqrt(1 -/+ x))."""
    return 1.0 / effective_frequency(sector, omega, x)


def truncation_weight(instance: ModelInstance, amps: np.ndarray) -> float:
    """Population of the top two Fock levels in the ground-state amplitudes (bosonic only)."""
    if instance.spec.family not in BOSONIC_FAMILIES:
        raise ValueError(f"no Fock truncation for family {instance.spec.family}")
    if instance.spec.family == "rabi_full":
        amps = amps.reshape(instance.spec.n_max + 1, 2)
        return float((np.abs(amps[-2:, :]) ** 2).sum())
    return float((np.abs(amps[-2:]) ** 2).sum())


def enforce_truncation_bound(instance: ModelInstance, ground: np.ndarray) -> None:
    """TruncationGuard when a bosonic ground state (its amplitudes) populates the top two
    Fock levels."""
    if instance.spec.family not in BOSONIC_FAMILIES:
        return
    weight = truncation_weight(instance, ground)
    if weight >= fock.TRUNCATION_TOL:
        raise TruncationGuard(
            f"ground state populates top Fock levels at {weight:.3e} "
            f"(n_max={instance.spec.n_max})"
        )


def ground_decomposition(instance: ModelInstance) -> SpectralDecomposition:
    """Diagonalize and, for bosonic families, enforce the truncation bound."""
    dec = eigendecompose(instance.H, basis=instance.basis)
    enforce_truncation_bound(instance, dec.eigenvector(0).amplitudes)
    return dec


def ground_block(instance: ModelInstance, count: int | None = None) -> GroundSector:
    """:func:`spectral.ground_sector` of H (its block's lowest `count` levels, or every one),
    with the ground state's norm and the truncation bound checked."""
    sector = ground_sector(instance.H, basis=instance.basis, count=count)
    check_norm(sector.psi0)
    enforce_truncation_bound(instance, sector.psi0)
    return sector


def _converged(spec: ModelSpec, solve: Callable[[ModelInstance], Any]) -> tuple[ModelInstance, Any]:
    """(instance, solve(instance)), doubling a bosonic n_max until the truncation bound holds."""

    def attempt(point: ModelSpec) -> tuple[ModelInstance, Any]:
        inst = build(point)
        return inst, solve(inst)

    if spec.family not in BOSONIC_FAMILIES:
        return attempt(spec)
    return fock.escalate_n_max(lambda n_max: attempt(spec.with_n_max(n_max)), spec.n_max)


def diagonalize_converged(spec: ModelSpec) -> tuple[ModelInstance, SpectralDecomposition]:
    """Build and diagonalize, doubling n_max until the truncation bound holds."""
    return _converged(spec, ground_decomposition)


def ground_sector_converged(
    spec: ModelSpec, count: int | None = None
) -> tuple[ModelInstance, GroundSector]:
    """Build and solve the ground state's block, doubling n_max until the truncation bound holds.

    For the callers that need only the ground state, its block and H's
    lowest levels: d_omega H is diagonal and keeps each parity block. With
    `count`, only the block's lowest `count` levels are solved.
    """
    return _converged(spec, lambda inst: ground_block(inst, count))
