"""Hamiltonian families with their exact omega-derivatives.

Every family is H = omega D + s V + Omega W, assembled by :func:`build` from
terms held once per size: D = d_omega H at fixed (g, Omega, N) is the number
operator, S_z (lmg) or sum sigma_z (chains), s a scalar of (g, Omega, N), V
the coupling's bands or bond flips and W rabi_full's sigma_z / 2. The
effective oscillator's frequency-derivative factor lives here as well.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, NamedTuple

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


def _tridiagonal_square(off: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(diagonal, offset -2 band) of T @ T for the symmetric tridiagonal T with zero
    diagonal and off-diagonal `off`.

    T^2 couples i only to i and i +/- 2: (T^2)_ii = off_{i-1}^2 + off_i^2
    and (T^2)_{i,i+2} = off_i off_{i+1}.
    """
    sq = np.square(off)
    return np.append(sq, 0.0) + np.insert(sq, 0, 0.0), off[:-1] * off[1:]


class _Terms(NamedTuple):
    """The fixed terms of one family's H = omega D + s V + Omega W at one size.

    D = d_omega H is diagonal. V is held as its diagonal (None where it has
    none) and either its offset -2 band (a parity-banded H) or, for a chain,
    the ascending rows of each parity block of prod sigma_z and each block's
    bond flips, where V is -1. W is rabi_full's sigma_z / 2 (None elsewhere).
    """

    D: HermitianOperator
    v_diag: np.ndarray | None
    v_band: np.ndarray | None = None
    rows: tuple[np.ndarray, ...] = ()
    flips: tuple[np.ndarray, ...] = ()
    w: np.ndarray | None = None
    basis: str = ""


@lru_cache(maxsize=16)
def _terms(family: str, size: int) -> _Terms:
    """The terms of `family` with n_max = size (bosonic families) or N = size (spin families)."""
    if family == "rabi_full":
        # index 2n + p holds |n, s>, s = (n + p) mod 2 (s = 0 is sigma_z = +1): (a+adag) sigma_x
        # takes it to 2(n+1) + p with amplitude sqrt(n+1) (Casanova et al., PRL 105, 263603 (2010))
        space = fock.FockSpace(size)
        n = np.repeat(np.arange(space.dim, dtype=float), 2)  # D = n (x) 1
        w = 0.5 - (n + np.arange(n.size)) % 2  # sigma_z / 2, with s = (n + p) mod 2 = (n + index) mod 2
        basis = f"{space.basis_label}*qubit/parity"
        return _Terms(HermitianOperator.from_diagonal(n), None, np.sqrt(n[2:]), w=w, basis=basis)
    if family in SECTORS:  # V = (a+adag)^2, from <n-1|a+adag|n> = sqrt(n)
        space = fock.FockSpace(size)
        q2 = _tridiagonal_square(np.sqrt(np.arange(1.0, space.dim)))
        return _Terms(fock.number_operator(space), *q2, basis=space.basis_label)
    if family == "lmg":  # V = S_x^2, from <m+1|S_x|m> = raising / 2
        basis = spin.DickeBasis(size)
        m, raising = spin.dicke_ladder(basis)
        sx2 = _tridiagonal_square(raising / 2.0)
        return _Terms(HermitianOperator.from_diagonal(m), *sx2, basis=basis.basis_label)
    # chains: the even block (an even number of up spins, state 0 among them) comes first;
    # sigma_x sigma_x on bond k, which keeps the parity, maps the block's j-th state to its flips[k, j]-th
    basis = spin.ChainBasis(size)
    states, signs = spin.chain_bits(basis)
    bonds = [(i, (i + 1) % size) for i in range(size)]  # periodic boundary
    zz_diag = sum(signs[:, i] * signs[:, j] for i, j in bonds) if family == "tfim_transverse" else None
    odd = np.count_nonzero(signs > 0, axis=1) % 2
    rows = tuple(np.flatnonzero(odd == parity) for parity in (0, 1))
    position = np.empty_like(states)  # each state's index within its block
    position[np.concatenate(rows)] = np.concatenate([np.arange(r.size) for r in rows])
    flips = tuple(position[r ^ np.array([[(1 << i) | (1 << j)] for i, j in bonds])] for r in rows)
    D = HermitianOperator.from_diagonal(signs.sum(axis=1))
    return _Terms(D, zz_diag, rows=rows, flips=flips, basis=basis.basis_label)


# s(spec) per family: the coupling's scale in H = omega D + s V + Omega W
_COUPLING: dict[str, Callable[[ModelSpec], float]] = {
    "rabi_full": lambda spec: spec.g / 2.0,  # V = (a+adag) sigma_x
    "effective_low": lambda spec: -(spec.g**2) / (4.0 * spec.Omega),  # V = (a+adag)^2
    "effective_high": lambda spec: spec.g**2 / (4.0 * spec.Omega),
    "lmg": lambda spec: -spec.g / spec.N,  # V = S_x^2
    "tfim": lambda spec: spec.g,  # V = -sum sigma_x sigma_x, periodic
    "tfim_transverse": lambda spec: spec.g,  # V = -sum (sigma_x sigma_x - sigma_z sigma_z)
}


def _chain_block(diag: np.ndarray, off: float, flips: np.ndarray) -> np.ndarray:
    """One parity block: its diagonal `diag`, and `off` from each state to each of its bond flips."""
    block = np.diag(diag)
    block[flips, np.arange(diag.size)] = off
    return block


def _overflow(spec: ModelSpec, terms: _Terms, s: float) -> ValueError:
    """The error for an H that overflowed, naming the parameter of its largest term."""
    v = [float(np.abs(a).max()) for a in (terms.v_diag, terms.v_band) if a is not None]
    size = {
        "omega": spec.omega * float(np.abs(terms.D.diagonal).max()),
        "g": abs(s) * max(v + [1.0] * bool(terms.flips)),  # a chain's V is -1 at each bond flip
        "Omega": 0.0 if terms.w is None else spec.Omega / 2.0,
    }
    name = max(size, key=size.get)
    return ValueError(f"{spec.family}: H overflows float64 at {name}={getattr(spec, name)!r}")


def build(spec: ModelSpec) -> ModelInstance:
    """H = omega D + s V + Omega W from the family's cached terms, with d_omega H = D itself.

    s is -/+ g^2/(4 Omega) (effective sectors), -g/N (lmg), g/2 (rabi_full)
    or g (chains). An H that overflows float64 raises ValueError naming the
    family and omega, g or Omega; a NaN parameter is refused as a non-finite
    entry.
    """
    terms = _terms(spec.family, spec.n_max if spec.family in BOSONIC_FAMILIES else spec.N)
    s = math.inf  # the coupling's scale when g**2 overflows
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is named below instead
            s = _COUPLING[spec.family](spec)
            diag = spec.omega * terms.D.diagonal
            if terms.v_diag is not None:
                diag = diag + s * terms.v_diag
            if terms.w is not None:
                diag = diag + spec.Omega * terms.w
            if terms.flips:  # blocks written one at a time; -s, and +0.0 rather than -0.0 at s = 0
                blocks = (_chain_block(diag[r], 0.0 - s, f) for r, f in zip(terms.rows, terms.flips))
                H = HermitianOperator.block_diagonal(terms.rows, blocks)
            else:  # 0.0 + s V off the diagonal: +0.0, not -0.0, at s = 0
                H = HermitianOperator.parity_banded(diag, 0.0 + s * terms.v_band)
    except (OverflowError, ValueError):  # g**2 overflowed, or H has a non-finite entry
        if any(math.isnan(v) for v in (spec.omega, spec.g, spec.Omega) if v is not None):
            raise
        raise _overflow(spec, terms, s) from None
    return ModelInstance(H, terms.D, spec, terms.basis)


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
