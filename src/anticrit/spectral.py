"""Dense Hermitian eigendecomposition and state utilities.

Everything downstream (model building, QFI estimators, sweeps) goes
through :func:`eigendecompose`, which fixes eigenvector phases so that
repeated runs on the same machine produce bit-identical output.
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


def _freeze(arr) -> np.ndarray:
    """Read-only contiguous float64 array for real input, complex128 for complex input."""
    arr = np.ascontiguousarray(arr, dtype=complex if np.iscomplexobj(arr) else float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """Dense Hermitian matrix (energies in units of omega unless stated)."""

    entries: np.ndarray

    def __post_init__(self):
        m = _freeze(self.entries)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise DimensionGuard(f"expected a square matrix, got shape {m.shape}")
        scale = np.abs(m).max()
        dev = np.abs(m - m.conj().T).max()
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
    """Rotate each column so its largest-magnitude amplitude is real positive."""
    idx = np.abs(vecs).argmax(axis=0)
    pivots = vecs[idx, np.arange(vecs.shape[1])]
    phases = pivots / np.abs(pivots)
    return vecs * phases.conj()[np.newaxis, :]


def _orthonormalize_clusters(vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """QR-orthonormalize (in place) each run of eigenvalues closer than the cluster tolerance."""
    starts = [0, *(np.flatnonzero(np.diff(vals) >= DEGENERACY_CLUSTER_TOL) + 1)]
    for start, end in zip(starts, starts[1:] + [vals.size]):
        if end - start > 1:
            vecs[:, start:end] = np.linalg.qr(vecs[:, start:end])[0]
    return vecs


def eigendecompose(
    H: HermitianOperator, basis: str = "", max_dim: int | None = None
) -> SpectralDecomposition:
    """Full dense Hermitian solve with deterministic phase fixing."""
    limit = MAX_DIM if max_dim is None else max_dim
    if H.dim > limit:
        raise DimensionGuard(f"dim {H.dim} exceeds configured maximum {limit}")
    vals, vecs = sla.eigh(H.entries, driver="evd")
    vecs = _fix_phases(_orthonormalize_clusters(vals, vecs))
    if logger.isEnabledFor(logging.DEBUG):
        residual = np.linalg.norm(H.entries @ vecs[:, 0] - vals[0] * vecs[:, 0])
        logger.debug("eigendecompose dim=%d ground residual=%.3e", H.dim, residual)
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
    """||(A - <A>) s||^2, non-negative by construction.

    Equal to <A^2> - <A>^2, but without its cancellation: a variance far
    below <A>^2 keeps its relative accuracy.
    """
    if A.dim != s.dim:
        raise DimensionGuard(f"operator dim {A.dim} != state dim {s.dim}")
    w = A.entries @ s.amplitudes
    mean = np.vdot(s.amplitudes, w).real
    residual = w - mean * s.amplitudes
    return float(np.vdot(residual, residual).real)


def overlap(a: QuantumState, b: QuantumState) -> complex:
    """<a|b> for states in the same labeled basis."""
    if a.basis != b.basis:
        raise BasisGuard(f"basis mismatch: {a.basis!r} vs {b.basis!r}")
    if a.dim != b.dim:
        raise DimensionGuard(f"state dims differ: {a.dim} vs {b.dim}")
    return complex(np.vdot(a.amplitudes, b.amplitudes))
