"""Quantum Fisher information estimators and closed forms.

Four independent routes to the same quantity:

* ``qfi_analytic_squeezed`` -- closed form for the effective sectors,
* ``qfi_spectral_sum``      -- exact sum over excited states,
* ``qfi_state_fd``          -- finite differences of gauge-fixed ground states,
* ``qfi_adiabatic_generator`` -- variance of the adiabatic generator along a ramp,

plus the phase-imprint and effective-oscillator evolution forms and the
gap-normalized precision metrics.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from . import _blas, models
from .errors import ConvergenceGuard, DegeneracyGuard, GapGuard, StepGuard
from .fock import Sector, squeezing_parameter
from .models import ModelInstance, ModelSpec
from .spectral import (
    GroundSector,
    HermitianOperator,
    QuantumState,
    SpectralDecomposition,
    check_norm,
    energy_gap,
    ground_state,
    variance,
)

logger = logging.getLogger(__name__)

DEGENERACY_TOL = 1e-9
RAMP_GAP_TOL = 1e-6
FD_STEP_FRACTION = 1e-5
FD_RICHARDSON_RTOL = 1e-4
RAMP_CONVERGENCE_RTOL = 1e-3
TERM_WEIGHT_CUTOFF = 1e-16


@dataclass(frozen=True)
class QfiResult:
    value: float
    method: str
    diagnostics: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.value < 0:
            raise ValueError(f"QFI must be non-negative, got {self.value}")


@dataclass(frozen=True)
class RampSpec:
    """Ramp of the reduced coupling x over a total time T (units 1/omega)."""

    x_start: float
    x_end: float
    T: float
    steps: int = 1001
    schedule: str = "linear"

    def __post_init__(self):
        if self.T < 0:
            raise ValueError(f"ramp time must be >= 0, got {self.T}")
        if self.steps < 10:
            raise ValueError(f"steps must be >= 10, got {self.steps}")
        if self.schedule not in ("linear", "constant"):
            raise ValueError(f"unknown schedule {self.schedule!r}")
        if self.schedule == "constant" and self.x_start != self.x_end:
            raise ValueError("constant schedule requires x_start == x_end")


def qfi_analytic_squeezed(sector: Sector | str, omega: float, x: float) -> QfiResult:
    """Closed form x^2 / (8 omega^2 (1 -/+ x)^2) for the squeezed ground state."""
    sector = Sector(sector)
    params = squeezing_parameter(sector, x)
    sign = -1.0 if sector is Sector.LOW else +1.0
    denom = 1.0 + sign * x
    value = x**2 / (8.0 * omega**2 * denom**2)
    # internal identity: value == 2 (d_omega xi)^2
    dxi = x / (4.0 * omega * denom)
    identity_residual = abs(value - 2.0 * dxi**2)
    return QfiResult(
        value,
        "analytic",
        {"xi": params.xi, "identity_residual": identity_residual},
    )


def _nondegenerate_gap(gap: float) -> float:
    """The gap E_1 - E_0, refused by DegeneracyGuard when at most DEGENERACY_TOL."""
    if gap <= DEGENERACY_TOL:
        raise DegeneracyGuard(
            f"ground state quasi-degenerate: gap {gap:.3e} <= {DEGENERACY_TOL:.0e}", gap=gap
        )
    return gap


def _sector(dec: SpectralDecomposition | GroundSector) -> GroundSector:
    """The ground state's block; a full decomposition is the one block over all rows."""
    return dec if isinstance(dec, GroundSector) else GroundSector.whole(dec)


def qfi_spectral_sum(
    model: ModelInstance, dec: SpectralDecomposition | GroundSector | None = None
) -> QfiResult:
    """4 sum_{n!=0} |<psi_n|dH|psi_0>|^2 / (E_n - E_0)^2.

    Every family's d_omega H is diagonal and keeps the ground state's block,
    so the sum runs over that block's levels only; the guard reads H's gap.
    """
    sector = models.ground_block(model) if dec is None else _sector(dec)
    gap = _nondegenerate_gap(energy_gap(sector))
    vecs = sector.vectors
    matrix_elems = vecs.conj().T @ (model.dH_domega.diagonal[sector.rows] * vecs[:, 0])
    dE = sector.energies - sector.energies[0]
    terms = 4.0 * np.abs(matrix_elems[1:]) ** 2 / dE[1:] ** 2
    value = float(np.sum(terms))
    retained = int(np.sum(terms > TERM_WEIGHT_CUTOFF * max(value, 1e-300)))
    diagnostics = {
        "terms_retained": retained,
        "gap": gap,
        "dim": sector.psi0.size,
        "dominant_term_fraction": float(terms.max() / value) if value > 0 else 1.0,
    }
    return QfiResult(max(value, 0.0), "spectral_sum", diagnostics)


def _aligned(psi: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Rotate psi's global phase so <reference|psi> is real positive."""
    ov = np.vdot(reference, psi)
    if abs(ov) == 0.0:
        return psi
    return psi * (abs(ov) / ov)


def _fd_value(psi0: np.ndarray, plus: np.ndarray, minus: np.ndarray, d: float) -> float:
    dpsi = (plus - minus) / (2.0 * d)
    return float(
        4.0 * (np.vdot(dpsi, dpsi).real - abs(np.vdot(psi0, dpsi)) ** 2)
    )


def qfi_state_fd(
    spec: ModelSpec,
    d_omega: float | None = None,
    check_step: bool = True,
    centre: tuple[ModelInstance, SpectralDecomposition | GroundSector] | None = None,
) -> QfiResult:
    """Fidelity-susceptibility QFI from central differences of gauge-fixed ground states.

    The centre is ``models.ground_sector_converged(spec)``, or the caller's
    `centre`: that or ``models.diagonalize_converged(spec)``, reused instead
    of solving the centre point again.

    A shift of omega by d moves every level by at most |d| ||d_omega H||,
    with ||d_omega H|| = max |diag| (Weyl's inequality), and keeps H's
    blocks, since d_omega H is diagonal. So when the centre's gap exceeds
    2 |d| ||d_omega H|| + DEGENERACY_TOL, each shifted ground state stays in
    psi_0's block with a gap above the tolerance, and each point solves that
    block's lowest eigenpair only. Otherwise, or when the centre is a full
    decomposition (which names no block), each point solves E_0, E_1 and
    psi_0 over every block.
    """
    if d_omega is None:
        d_omega = FD_STEP_FRACTION * spec.omega
    if centre is None:
        centre = models.ground_sector_converged(spec)
    inst, dec = centre
    if inst.spec.with_n_max(spec.n_max) != spec:
        raise ValueError(f"centre decomposition is of {inst.spec}, not of {spec}")
    if spec.family in models.BOSONIC_FAMILIES:
        spec = spec.with_n_max(inst.spec.n_max)  # same space at all three points
    sector = _sector(dec)
    gap0 = _nondegenerate_gap(energy_gap(sector))
    psi0 = sector.psi0
    margin = gap0 - 2.0 * abs(d_omega) * float(np.abs(inst.dH_domega.diagonal).max())
    block = sector.block if margin > DEGENERACY_TOL else None
    if logger.isEnabledFor(logging.DEBUG):
        logger.debug(  # block k is parity k in every model family
            "qfi_state_fd certified=%s parity=%s weyl_margin=%.3e", block is not None, block, margin
        )

    def ground_at(omega: float, reference: np.ndarray) -> np.ndarray:
        shifted = models.build(spec.with_omega(omega))
        e0, e1, psi = ground_state(shifted.H, block)  # E_1 = inf when certified
        check_norm(psi)
        models.enforce_truncation_bound(shifted, psi)
        _nondegenerate_gap(e1 - e0)
        return _aligned(psi, reference)

    value = _fd_value(
        psi0,
        ground_at(spec.omega + d_omega, psi0),
        ground_at(spec.omega - d_omega, psi0),
        d_omega,
    )
    diagnostics: dict[str, Any] = {"d_omega": d_omega, "gap": gap0}
    if check_step:
        half = _fd_value(
            psi0,
            ground_at(spec.omega + d_omega / 2.0, psi0),
            ground_at(spec.omega - d_omega / 2.0, psi0),
            d_omega / 2.0,
        )
        scale = max(abs(value), abs(half))
        shift = abs(value - half) / scale if scale > 1e-10 else 0.0
        diagnostics["richardson_relative_shift"] = shift
        if shift > FD_RICHARDSON_RTOL:
            raise StepGuard(
                f"halving d_omega shifts QFI by {shift:.3e} > {FD_RICHARDSON_RTOL:.0e}"
            )
    return QfiResult(max(value, 0.0), "state_fd", diagnostics)


def qfi_phase_imprint(state: QuantumState, n_op: HermitianOperator, t: float) -> QfiResult:
    """Free evolution under omega*n for time t: 4 t^2 Var(n)."""
    if t < 0:
        raise ValueError(f"evolution time must be >= 0, got {t}")
    var = variance(n_op, state)
    return QfiResult(max(4.0 * t**2 * var, 0.0), "phase_imprint", {"variance": var, "t": t})


def qfi_oscillator_evolution(
    var_c: float, t: float, sector: Sector | str, omega: float, x: float
) -> QfiResult:
    """4 t^2 Var(c^dag c) (d_omega effective frequency)^2."""
    if var_c < 0 or t < 0:
        raise ValueError("var_c and t must be >= 0")
    factor = models.frequency_derivative_factor(sector, x)
    return QfiResult(
        4.0 * t**2 * var_c * factor,
        "oscillator_evolution",
        {"derivative_factor": factor, "t": t},
    )


def _trapezoids(ts: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The trapezoid areas of each column of y over the intervals of ts, in scipy's
    operation order: dt (y[k+1] + y[k]) / 2."""
    return np.diff(ts)[:, np.newaxis] * (y[1:] + y[:-1]) / 2.0


def _generator_value(
    ts: np.ndarray, energies: np.ndarray, elems: np.ndarray
) -> float:
    """4 sum_n |int e^{i(theta_0 - theta_n)} M_n(t) dt|^2 by composite trapezoid."""
    theta = np.zeros_like(energies)
    theta[1:] = np.cumsum(_trapezoids(ts, energies), axis=0)
    phase = np.exp(1j * (theta[:, :1] - theta[:, 1:]))
    integrals = np.sum(_trapezoids(ts, phase * elems[:, 1:]), axis=0)
    return float(4.0 * np.sum(np.abs(integrals) ** 2))


@_blas.single_thread()  # one scope per ramp, not per step
def qfi_adiabatic_generator(
    family: str,
    ramp: RampSpec,
    omega: float = 1.0,
    n_max: int | None = None,
    N: int | None = None,
    check_convergence: bool = True,
) -> QfiResult:
    """4 Var(G) for the adiabatic generator G = i U^dag d_omega U along the ramp."""
    constant = ramp.schedule == "constant" or ramp.x_start == ramp.x_end
    if family == "rabi_full" or (family in ("tfim", "tfim_transverse") and not constant):
        # levels cross (rabi_full's two parity sectors) or sit in exactly degenerate
        # clusters (chains); index tracking cannot follow either. A constant ramp
        # copies step 0, so it tracks nothing.
        raise ValueError(f"unsupported family for ramps: {family!r}")
    if check_convergence and ramp.steps % 2 == 0:
        raise ValueError(f"the step-halving check needs an odd step count, got {ramp.steps}")
    ts = np.linspace(0.0, ramp.T, ramp.steps)
    xs = np.linspace(ramp.x_start, ramp.x_end, ramp.steps)

    block = rows = dim = None
    energies = None
    elems = None
    min_gap = math.inf
    prev_vecs = None
    for k, (t, x) in enumerate(zip(ts, xs)):
        if constant and k > 0:
            energies[k] = energies[0]
            elems[k] = elems[0]
            continue
        spec = ModelSpec.at(family, float(x), omega, n_max=n_max, N=N)
        # d_omega H keeps the ground state's block, so only its levels enter
        inst, sector = models.ground_sector_converged(spec)
        if inst.H.dtype.kind == "c":
            raise ValueError("ramp requires a real-symmetric Hamiltonian family")
        if dim is None:
            block, rows, dim = sector.block, sector.rows, inst.H.dim
            energies = np.empty((ramp.steps, sector.energies.size))
            elems = np.empty((ramp.steps, sector.energies.size))
        elif inst.H.dim != dim:
            raise ConvergenceGuard(
                "truncation level changed along the ramp; fix n_max explicitly"
            )
        elif sector.block != block:
            raise GapGuard("the ground state changes parity along the ramp: its level crosses another")
        vecs = sector.vectors
        if prev_vecs is not None:
            # real gauge with continuity: flip signs to follow the previous step
            signs = np.sign(np.einsum("ij,ij->j", prev_vecs, vecs))
            signs[signs == 0] = 1.0
            vecs = vecs * signs[np.newaxis, :]
        prev_vecs = vecs
        gap = energy_gap(sector)
        min_gap = min(min_gap, gap)
        if gap <= RAMP_GAP_TOL:
            raise GapGuard(f"instantaneous gap {gap:.3e} <= {RAMP_GAP_TOL:.0e} along ramp")
        energies[k] = sector.energies
        elems[k] = vecs.T @ (inst.dH_domega.diagonal[rows] * vecs[:, 0])

    value = _generator_value(ts, energies, elems)
    diagnostics: dict[str, Any] = {
        "steps": ramp.steps,
        "min_gap": min_gap,
        "berry_term_imag_max": 0.0,  # real gauge on real-symmetric families
    }
    if check_convergence:
        coarse = _generator_value(ts[::2], energies[::2], elems[::2])
        scale = max(abs(value), abs(coarse))
        shift = abs(value - coarse) / scale if scale > 1e-10 else 0.0
        diagnostics["step_halving_relative_shift"] = shift
        if shift > RAMP_CONVERGENCE_RTOL:
            raise ConvergenceGuard(
                f"halving time steps shifts QFI by {shift:.3e} > {RAMP_CONVERGENCE_RTOL:.0e}"
            )
    return QfiResult(max(value, 0.0), "adiabatic_generator", diagnostics)


def normalized_metrics(qfi: float, gap: float) -> tuple[float, float]:
    """(qfi * gap, qfi * gap^2): precision-per-time normalizations."""
    if gap <= 0:
        raise GapGuard(f"gap must be positive, got {gap}")
    return qfi * gap, qfi * gap * gap
