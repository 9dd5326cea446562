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

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np
from scipy.integrate import cumulative_trapezoid, trapezoid

from . import models
from .errors import ConvergenceGuard, DegeneracyGuard, GapGuard, StepGuard
from .fock import Sector, squeezing_parameter
from .models import ModelInstance, ModelSpec
from .spectral import HermitianOperator, QuantumState, SpectralDecomposition, variance

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


def qfi_spectral_sum(
    model: ModelInstance, dec: SpectralDecomposition | None = None
) -> QfiResult:
    """4 sum_{n!=0} |<psi_n|dH|psi_0>|^2 / (E_n - E_0)^2."""
    if dec is None:
        dec = models.ground_decomposition(model)
    gap = dec.eigenvalues[1] - dec.eigenvalues[0]
    if gap <= DEGENERACY_TOL:
        raise DegeneracyGuard(
            f"ground state quasi-degenerate: gap {gap:.3e} <= {DEGENERACY_TOL:.0e}",
            gap=float(gap),
        )
    v0 = dec.vectors[:, 0]
    matrix_elems = dec.vectors.conj().T @ (model.dH_domega.entries @ v0)
    dE = dec.eigenvalues - dec.eigenvalues[0]
    terms = 4.0 * np.abs(matrix_elems[1:]) ** 2 / dE[1:] ** 2
    value = float(np.sum(terms))
    retained = int(np.sum(terms > TERM_WEIGHT_CUTOFF * max(value, 1e-300)))
    diagnostics = {
        "terms_retained": retained,
        "gap": float(gap),
        "dim": dec.dim,
        "dominant_term_fraction": float(terms.max() / value) if value > 0 else 1.0,
    }
    return QfiResult(max(value, 0.0), "spectral_sum", diagnostics)


def _aligned_ground(dec: SpectralDecomposition, reference: np.ndarray) -> np.ndarray:
    """Rotate the ground state's global phase so <reference|psi> is real positive."""
    psi = dec.vectors[:, 0]
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
    spec: ModelSpec, d_omega: float | None = None, check_step: bool = True
) -> QfiResult:
    """Fidelity-susceptibility QFI from central differences of gauge-fixed ground states."""
    if d_omega is None:
        d_omega = FD_STEP_FRACTION * spec.omega
    inst, dec = models.diagonalize_converged(spec)
    if spec.family in models.BOSONIC_FAMILIES:
        spec = spec.with_n_max(inst.spec.n_max)  # same space at all three points

    def ground_at(omega: float, reference: np.ndarray) -> np.ndarray:
        shifted = models.build(spec.with_omega(omega))
        d = models.ground_decomposition(shifted)
        gap = d.eigenvalues[1] - d.eigenvalues[0]
        if gap <= DEGENERACY_TOL:
            raise DegeneracyGuard(
                f"quasi-degenerate at omega={omega}: gap {gap:.3e}", gap=float(gap)
            )
        return _aligned_ground(d, reference)

    gap0 = dec.eigenvalues[1] - dec.eigenvalues[0]
    if gap0 <= DEGENERACY_TOL:
        raise DegeneracyGuard(f"quasi-degenerate: gap {gap0:.3e}", gap=float(gap0))
    psi0 = dec.vectors[:, 0]
    value = _fd_value(
        psi0,
        ground_at(spec.omega + d_omega, psi0),
        ground_at(spec.omega - d_omega, psi0),
        d_omega,
    )
    diagnostics: dict[str, Any] = {"d_omega": d_omega, "gap": float(gap0)}
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


def _ramp_spec_at(family: str, omega: float, x: float, n_max: int | None, N: int | None) -> ModelSpec:
    if family in ("effective_low", "effective_high"):
        sector = Sector.LOW if family == "effective_low" else Sector.HIGH
        return ModelSpec.effective(sector, omega=omega, x=x, n_max=n_max)
    if family in ("lmg", "tfim", "tfim_transverse"):
        return ModelSpec(family=family, omega=omega, g=math.sqrt(x) * omega, N=N)
    raise ValueError(f"unsupported family for ramps: {family!r}")


def _generator_value(
    ts: np.ndarray, energies: np.ndarray, elems: np.ndarray
) -> float:
    """4 sum_n |int e^{i(theta_0 - theta_n)} M_n(t) dt|^2 by composite trapezoid."""
    theta = cumulative_trapezoid(energies, ts, axis=0, initial=0.0)
    phase = np.exp(1j * (theta[:, :1] - theta[:, 1:]))
    integrals = trapezoid(phase * elems[:, 1:], ts, axis=0)
    return float(4.0 * np.sum(np.abs(integrals) ** 2))


def qfi_adiabatic_generator(
    family: str,
    ramp: RampSpec,
    omega: float = 1.0,
    n_max: int | None = None,
    N: int | None = None,
    check_convergence: bool = True,
) -> QfiResult:
    """4 Var(G) for the adiabatic generator G = i U^dag d_omega U along the ramp."""
    ts = np.linspace(0.0, ramp.T, ramp.steps)
    xs = np.linspace(ramp.x_start, ramp.x_end, ramp.steps)

    constant = ramp.schedule == "constant" or ramp.x_start == ramp.x_end
    dim = None
    energies = None
    elems = None
    min_gap = math.inf
    prev_vecs = None
    for k, (t, x) in enumerate(zip(ts, xs)):
        if constant and k > 0:
            energies[k] = energies[0]
            elems[k] = elems[0]
            continue
        spec = _ramp_spec_at(family, omega, float(x), n_max, N)
        inst, dec = models.diagonalize_converged(spec)
        if np.iscomplexobj(inst.H.entries):
            raise ValueError("ramp requires a real-symmetric Hamiltonian family")
        vecs = dec.vectors
        if prev_vecs is not None:
            # real gauge with continuity: flip signs to follow the previous step
            signs = np.sign(np.einsum("ij,ij->j", prev_vecs, vecs))
            signs[signs == 0] = 1.0
            vecs = vecs * signs[np.newaxis, :]
        prev_vecs = vecs
        if dim is None:
            dim = dec.dim
            energies = np.empty((ramp.steps, dim))
            elems = np.empty((ramp.steps, dim))
        elif dec.dim != dim:
            raise ConvergenceGuard(
                "truncation level changed along the ramp; fix n_max explicitly"
            )
        gap = dec.eigenvalues[1] - dec.eigenvalues[0]
        min_gap = min(min_gap, float(gap))
        if gap <= RAMP_GAP_TOL:
            raise GapGuard(f"instantaneous gap {gap:.3e} <= {RAMP_GAP_TOL:.0e} along ramp")
        energies[k] = dec.eigenvalues
        elems[k] = vecs.T @ (inst.dH_domega.entries @ vecs[:, 0])

    value = _generator_value(ts, energies, elems)
    diagnostics: dict[str, Any] = {
        "steps": ramp.steps,
        "min_gap": min_gap,
        "berry_term_imag_max": 0.0,  # real gauge on real-symmetric families
    }
    if check_convergence and ramp.steps % 2 == 1:
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
