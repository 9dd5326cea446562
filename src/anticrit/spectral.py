"""Hermitian eigendecomposition and state utilities.

Everything downstream (model building, QFI estimators, sweeps) goes
through :func:`eigendecompose`, which fixes eigenvector phases so that
repeated runs on the same machine produce bit-identical output. A real
matrix that couples each index only to itself and its neighbours at
distance 2 is solved as two tridiagonal blocks (even and odd indices);
any other matrix takes one dense LAPACK call.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import BasisGuard, DimensionGuard, HermiticityViolation

logger = logging.getLogger(__name__)

HERMITICITY_RTOL = 1e-12
NORM_TOL = 1e-12
DEGENERACY_CLUSTER_TOL = 1e-9
MAX_DIM = 2**14
_HERMITICITY_PANEL_ROWS = 64


def _freeze(arr) -> np.ndarray:
    """Read-only contiguous copy: float64 for real input, complex128 for complex input.

    Always a copy, so a caller's array stays writable and cannot change the
    frozen one.
    """
    dtype = np.complex128 if np.iscomplexobj(arr) else np.float64
    out = np.array(arr, dtype=dtype, order="C")
    out.setflags(write=False)
    return out


def _hermiticity_deviation(m: np.ndarray) -> tuple[float, float]:
    """(max |m - m^H|, max |m|) over row panels, without full-size temporaries."""
    dev = scale = 0.0
    for start in range(0, m.shape[0], _HERMITICITY_PANEL_ROWS):
        rows = m[start : start + _HERMITICITY_PANEL_ROWS]
        cols = m[:, start : start + _HERMITICITY_PANEL_ROWS].T.conj()
        dev = max(dev, np.abs(rows - cols).max())
        scale = max(scale, np.abs(rows).max())
    return dev, scale


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """Dense Hermitian matrix (energies in units of omega unless stated)."""

    entries: np.ndarray

    def __post_init__(self):
        m = _freeze(self.entries)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise DimensionGuard(f"expected a square matrix, got shape {m.shape}")
        dev, scale = _hermiticity_deviation(m)
        if dev > HERMITICITY_RTOL * max(scale, 1e-300):
            raise HermiticityViolation(
                f"Hermiticity deviation {dev:.3e} exceeds {HERMITICITY_RTOL:.0e} x {scale:.3e}"
            )
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True, eq=False)
class QuantumState:
    """Normalized amplitude vector over a labeled basis."""

    amplitudes: np.ndarray
    basis: str

    def __post_init__(self):
        v = _freeze(np.ravel(self.amplitudes))
        if v.size < 1:
            raise DimensionGuard("empty state vector")
        norm = np.linalg.norm(v)
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state norm {norm!r} deviates from 1 beyond {NORM_TOL:.0e}")
        object.__setattr__(self, "amplitudes", v)

    @property
    def dim(self) -> int:
        return self.amplitudes.size


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Ascending eigenvalues and phase-fixed orthonormal eigenvectors."""

    eigenvalues: np.ndarray
    vectors: np.ndarray  # eigenvectors as columns, aligned with eigenvalues
    basis: str = ""

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", _freeze(np.asarray(self.eigenvalues, dtype=float)))
        object.__setattr__(self, "vectors", _freeze(self.vectors))

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    def eigenvector(self, k: int) -> QuantumState:
        return QuantumState(self.vectors[:, k], self.basis)


def _fix_phases(vecs: np.ndarray) -> np.ndarray:
    """Rotate (in place) each column so its largest-magnitude amplitude is real positive."""
    idx = np.abs(vecs).argmax(axis=0)
    pivots = vecs[idx, np.arange(vecs.shape[1])]
    vecs *= (pivots / np.abs(pivots)).conj()[np.newaxis, :]
    return vecs


def _orthonormalize_clusters(vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """QR-orthonormalize (in place) each run of eigenvalues closer than the cluster tolerance."""
    starts = [0, *(np.flatnonzero(np.diff(vals) >= DEGENERACY_CLUSTER_TOL) + 1)]
    for start, end in zip(starts, starts[1:] + [vals.size]):
        if end - start > 1:
            vecs[:, start:end] = np.linalg.qr(vecs[:, start:end])[0]
    return vecs


def _parity_bands(m: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """(diagonal, offset -2 diagonal) of a real m with every nonzero on diagonals 0 and +/-2.

    None for any other matrix. Such an m never couples an even index to an
    odd one, so its even and odd rows each form a symmetric tridiagonal block.
    """
    if np.iscomplexobj(m) or m.shape[0] < 3:
        return None
    diag, lower, upper = np.diagonal(m), np.diagonal(m, -2), np.diagonal(m, 2)
    banded = np.count_nonzero(diag) + np.count_nonzero(lower) + np.count_nonzero(upper)
    return (diag, lower) if np.count_nonzero(m) == banded else None


def _solve_parity_blocks(
    diag: np.ndarray, lower: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenpairs of the even and odd tridiagonal blocks, scattered to full size."""
    even_vals, even_vecs = sla.eigh_tridiagonal(diag[0::2], lower[0::2])
    odd_vals, odd_vecs = sla.eigh_tridiagonal(diag[1::2], lower[1::2])
    vals = np.concatenate([even_vals, odd_vals])
    order = np.argsort(vals, kind="stable")
    column = np.empty_like(order)
    column[order] = np.arange(order.size)  # merged position of each block eigenpair
    vecs = np.zeros((diag.size, diag.size), order="F")  # column-major, as LAPACK returns
    vecs[0::2, column[: even_vals.size]] = even_vecs
    vecs[1::2, column[even_vals.size :]] = odd_vecs
    return vals[order], vecs


def eigendecompose(H: HermitianOperator, basis: str = "") -> SpectralDecomposition:
    """Full Hermitian solve with deterministic phase fixing.

    A real H whose nonzeros lie only on diagonals 0 and +/-2 is solved as
    its even and odd tridiagonal blocks; any other H by one dense call.
    """
    if H.dim > MAX_DIM:
        raise DimensionGuard(f"dim {H.dim} exceeds configured maximum {MAX_DIM}")
    bands = _parity_bands(H.entries)
    if bands is None:
        vals, vecs = sla.eigh(H.entries, driver="evd")
    else:
        vals, vecs = _solve_parity_blocks(*bands)
    vecs = _fix_phases(_orthonormalize_clusters(vals, vecs))
    if logger.isEnabledFor(logging.DEBUG):
        residual = np.linalg.norm(H.entries @ vecs[:, 0] - vals[0] * vecs[:, 0])
        logger.debug(
            "eigendecompose dim=%d %s ground residual=%.3e",
            H.dim, "dense" if bands is None else "parity-tridiagonal", residual,
        )
    return SpectralDecomposition(vals, vecs, basis)


def energy_gap(spec: SpectralDecomposition) -> float:
    """First excitation gap E_1 - E_0."""
    if spec.dim < 2:
        raise DimensionGuard("energy gap needs at least two levels")
    return float(spec.eigenvalues[1] - spec.eigenvalues[0])


def expectation(A: HermitianOperator, s: QuantumState) -> float:
    """Re <s|A|s>."""
    if A.dim != s.dim:
        raise DimensionGuard(f"operator dim {A.dim} != state dim {s.dim}")
    val = np.vdot(s.amplitudes, A.entries @ s.amplitudes)
    return float(val.real)


def variance(A: HermitianOperator, s: QuantumState) -> float:
    """||(A - <A>) s||^2, non-negative by construction."""
    if A.dim != s.dim:
        raise DimensionGuard(f"operator dim {A.dim} != state dim {s.dim}")
    return image_variance(s.amplitudes, A.entries @ s.amplitudes)


def image_variance(psi: np.ndarray, image: np.ndarray) -> float:
    """||image - <psi|image> psi||^2 for image = A psi: the variance of A in psi.

    Equal to <A^2> - <A>^2, but without its cancellation: a variance far
    below <A>^2 keeps its relative accuracy.
    """
    residual = image - np.vdot(psi, image).real * psi
    return float(np.vdot(residual, residual).real)


def overlap(a: QuantumState, b: QuantumState) -> complex:
    """<a|b> for states in the same labeled basis."""
    if a.basis != b.basis:
        raise BasisGuard(f"basis mismatch: {a.basis!r} vs {b.basis!r}")
    if a.dim != b.dim:
        raise DimensionGuard(f"state dims differ: {a.dim} vs {b.dim}")
    return complex(np.vdot(a.amplitudes, b.amplitudes))
