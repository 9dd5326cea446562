"""Quantum Fisher information estimators and closed forms.

Four independent routes to the same quantity:

* ``qfi_analytic_squeezed`` -- closed form for the effective sectors,
* ``qfi_spectral_sum``      -- exact sum over excited states,
* ``qfi_state_fd``          -- finite differences of gauge-fixed ground states,
* ``qfi_adiabatic_generator`` -- the adiabatic-frame sum along a ramp, which is the
  variance of the adiabatic generator for a constant Hamiltonian,

plus the phase-imprint and effective-oscillator evolution forms and the
gap-normalized precision metrics.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from . import models
from .errors import ConvergenceGuard, DegeneracyGuard, GapGuard, StepGuard, TruncationGuard
from .fock import Sector, squeezing_parameter
from .models import ModelInstance, ModelSpec
from .spectral import (
    GroundSector,
    HermitianOperator,
    QuantumState,
    SpectralDecomposition,
    block_levels,
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
RAMP_LEVELS = 3  # levels of psi_0's block a banded ramp step solves first


@dataclass(frozen=True)
class QfiResult:
    value: float
    method: str
    diagnostics: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if not self.value >= 0:  # NaN too
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
        if not self.T >= 0:  # NaN too
            raise ValueError(f"ramp time must be >= 0, got {self.T}")
        if self.T == math.inf:
            raise ValueError("ramp time must be finite, got inf")
        if self.steps < 10:
            raise ValueError(f"steps must be >= 10, got {self.steps}")
        if self.schedule not in ("linear", "constant"):
            raise ValueError(f"unknown schedule {self.schedule!r}")
        if self.schedule == "constant" and self.x_start != self.x_end:
            raise ValueError("constant schedule requires x_start == x_end")

    @property
    def constant(self) -> bool:
        """Whether H stays the same along the ramp."""
        return self.schedule == "constant" or self.x_start == self.x_end


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
    if not sector.complete:
        raise ValueError(
            f"the spectral sum needs every level of psi_0's block, got {sector.energies.size} "
            f"of {sector.vectors.shape[0]}"
        )
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
    psi_0 over every block. A `d_omega` that is not finite, or that leaves
    omega +/- d_omega / 2 equal to omega, raises ValueError.
    """
    if d_omega is None:
        d_omega = FD_STEP_FRACTION * spec.omega
    if not math.isfinite(d_omega) or spec.omega in (spec.omega + d_omega / 2.0, spec.omega - d_omega / 2.0):
        raise ValueError(f"d_omega must be finite and move omega = {spec.omega!r} at half its size, got {d_omega!r}")
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
    if not t >= 0:  # NaN too
        raise ValueError(f"evolution time must be >= 0, got {t}")
    var = variance(n_op, state)
    return QfiResult(max(4.0 * t**2 * var, 0.0), "phase_imprint", {"variance": var, "t": t})


def qfi_oscillator_evolution(
    var_c: float, t: float, sector: Sector | str, omega: float, x: float
) -> QfiResult:
    """4 t^2 Var(c^dag c) (d_omega effective frequency)^2."""
    if not (var_c >= 0 and t >= 0):  # NaN too
        raise ValueError("var_c and t must be >= 0")
    factor = models.frequency_derivative_factor(sector, x)
    return QfiResult(
        4.0 * t**2 * var_c * factor,
        "oscillator_evolution",
        {"derivative_factor": factor, "t": t},
    )


def _trapezoids(ts: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The trapezoid areas of each column of y over the intervals of ts, in scipy's
    operation order: dt (y[k+1] + y[k]) / 2, in place on one temporary."""
    areas = y[1:] + y[:-1]
    areas *= np.diff(ts)[:, np.newaxis]
    areas /= 2.0
    return areas


def _generator_value(
    ts: np.ndarray, energies: np.ndarray, elems: np.ndarray
) -> float:
    """4 sum_n |int e^{i(theta_0 - theta_n)} M_n(t) dt|^2 by composite trapezoid."""
    theta = np.zeros_like(energies)
    theta[1:] = np.cumsum(_trapezoids(ts, energies), axis=0)
    phase = np.exp(1j * (theta[:, :1] - theta[:, 1:]))
    phase *= elems[:, 1:]
    integrals = np.sum(_trapezoids(ts, phase), axis=0)
    return float(4.0 * np.sum(np.abs(integrals) ** 2))


def _relative_shift(fine: float, coarse: float) -> float:
    """|fine - coarse| relative to the larger of the two, 0 when both are below 1e-10."""
    scale = max(abs(fine), abs(coarse))
    return abs(fine - coarse) / scale if scale > 1e-10 else 0.0


def _ramp_steps(family: str, ramp: RampSpec, omega: float, n_max, N, count: int | None):
    """(energies, matrix elements, dropped weight, least gap) at each step of the ramp, from
    the lowest `count` levels of psi_0's block at each step (every level for None).

    Step 0 is ``models.ground_sector_converged``; it fixes psi_0's block and
    n_max. Each later step solves that block alone (``spectral.block_levels``)
    and certifies that no level of the other blocks lies below its E_0, or
    raises GapGuard; a ground state that needs more than step 0's n_max
    raises ConvergenceGuard. The matrix elements are <n|d_omega H|psi_0> in a
    real gauge that follows the previous step. With b = d_omega H psi_0 on
    the block, e = V^T b and r = b - V e, the dropped weight is ||r||^2, the
    weight of b on the levels not solved. With `count`, None is returned once
    some step has ||r||^2 > TERM_WEIGHT_CUTOFF (sum_{n>=1} e_n^2 + ||r||^2).
    A constant ramp solves step 0 only and copies it.
    """
    xs = np.linspace(ramp.x_start, ramp.x_end, ramp.steps)
    inst, sector = models.ground_sector_converged(
        ModelSpec.at(family, float(xs[0]), omega, n_max=n_max, N=N), count
    )
    block, rows, n_max = sector.block, sector.rows, inst.spec.n_max
    dH = inst.dH_domega.diagonal[rows]  # the same at every x
    vals, vecs = sector.energies, sector.vectors
    energies, elems = np.empty((ramp.steps, vals.size)), np.empty((ramp.steps, vals.size))
    dropped = np.zeros(ramp.steps)
    partial = vecs.shape[1] < vecs.shape[0]  # some level of the block not solved
    min_gap = math.inf
    for k, x in enumerate(xs[:1] if ramp.constant else xs):
        if k:
            inst = models.build(ModelSpec.at(family, float(x), omega, n_max=n_max, N=N))
            vals, vecs, below = block_levels(inst.H, block, count)
            if below:
                raise GapGuard("the ground state changes parity along the ramp: its level crosses another")
            psi0 = np.zeros(inst.H.dim)
            psi0[rows] = vecs[:, 0]
            check_norm(psi0)
            try:
                models.enforce_truncation_bound(inst, psi0)
            except TruncationGuard as guard:
                raise ConvergenceGuard(
                    "truncation level changed along the ramp; fix n_max explicitly"
                ) from guard
            # real gauge with continuity: flip signs to follow the previous step
            vecs = vecs * np.where(np.einsum("ij,ij->j", prev_vecs, vecs) < 0.0, -1.0, 1.0)
        prev_vecs = vecs
        # the gap inside psi_0's block: d_omega H couples psi_0 to no other block
        gap = float(vals[1] - vals[0])
        min_gap = min(min_gap, gap)
        if gap <= RAMP_GAP_TOL:
            raise GapGuard(f"instantaneous gap {gap:.3e} <= {RAMP_GAP_TOL:.0e} along ramp")
        energies[k] = vals
        image = dH * vecs[:, 0]
        elems[k] = row = vecs.T @ image
        if partial:
            residual = image - vecs @ row
            dropped[k] = weight = residual @ residual
            if weight > TERM_WEIGHT_CUTOFF * (row[1:] @ row[1:] + weight):
                return None
    if ramp.constant:
        energies[1:], elems[1:], dropped[1:] = energies[0], elems[0], dropped[0]
    return energies, elems, dropped, min_gap


def qfi_adiabatic_generator(
    family: str,
    ramp: RampSpec,
    omega: float = 1.0,
    n_max: int | None = None,
    N: int | None = None,
    check_convergence: bool = True,
) -> QfiResult:
    """The adiabatic-frame sum 4 sum_{n>=1} |int_0^T e^{i(theta_0 - theta_n)} <n|d_omega H|0> dt|^2
    along the ramp, theta_n the dynamical phase of the instantaneous level n.

    This is 4 Var(G) for G = i U^dag d_omega U exactly when H is constant.
    On a varying ramp it replaces U(t)|n(0)> by e^{-i theta_n}|n(t)>, which
    drops the diabatic part of the evolved state, so it is not 4 Var(G)
    there. The integrals are composite trapezoids over the ramp's steps. The
    reported ``step_halving_relative_shift`` estimates the time-step error;
    it does not bound it. It is the relative shift of the value against
    every other step, or, when steps - 1 is a multiple of 4, the larger of
    that and 1/4 of the shift of every other step against every fourth (the
    trapezoid error is O(h^2)): a single pair's shift crosses zero at some
    ramps where the error does not.

    On a parity-banded H (effective sectors, lmg), each step first solves
    only the lowest three levels of psi_0's block, and checks that
    d_omega H psi_0 has at most TERM_WEIGHT_CUTOFF of its off-ground weight
    on the levels not solved. In the effective sectors n connects psi_0 to
    the two-quasiparticle level alone, so the check passes; should any step
    fail it, the whole ramp is solved again with every level. By
    Cauchy-Schwarz the levels dropped change the value by at most
    ``dropped_bound`` = 4 T int ||r||^2 dt. Step 0 also finds psi_0's block.
    Each later step solves that block alone and certifies, with one Sturm
    count of the other block's levels below E_0, that psi_0 has not moved
    to it. A chain's dense blocks keep every level.
    """
    chain = family in ("tfim", "tfim_transverse")
    if family == "rabi_full" or (chain and not ramp.constant):
        # levels cross (rabi_full's two parity sectors) or sit in exactly degenerate
        # clusters (chains); index tracking cannot follow either. A constant ramp
        # copies step 0, so it tracks nothing.
        raise ValueError(f"unsupported family for ramps: {family!r}")
    if check_convergence and ramp.steps % 2 == 0:
        raise ValueError(f"the step-halving check needs an odd step count, got {ramp.steps}")
    ts = np.linspace(0.0, ramp.T, ramp.steps)
    steps = None if chain else _ramp_steps(family, ramp, omega, n_max, N, RAMP_LEVELS)
    if steps is None:
        steps = _ramp_steps(family, ramp, omega, n_max, N, None)
    energies, elems, dropped, min_gap = steps

    value = _generator_value(ts, energies, elems)
    diagnostics: dict[str, Any] = {
        "steps": ramp.steps,
        "min_gap": min_gap,
        "levels_solved": energies.shape[1],
        "dropped_bound": 4.0 * ramp.T * float(np.sum(_trapezoids(ts, dropped[:, np.newaxis]))),
    }
    if check_convergence:
        coarse = _generator_value(ts[::2], energies[::2], elems[::2])
        shift = _relative_shift(value, coarse)
        if (ramp.steps - 1) % 4 == 0:
            # one pair's shift crosses zero at some ramps where the error does not; the
            # next pair, every other step against every fourth, is 4x the O(h^2) error
            coarser = _generator_value(ts[::4], energies[::4], elems[::4])
            shift = max(shift, _relative_shift(coarse, coarser) / 4.0)
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
