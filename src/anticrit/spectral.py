"""Hermitian eigendecomposition and state utilities.

Everything downstream (model building, QFI estimators, sweeps) goes
through :func:`eigendecompose`, which fixes eigenvector phases so that
repeated runs on the same machine produce bit-identical output;
:func:`ground_sector` solves only the block that holds the ground state,
and :func:`ground_state` only E_0, E_1 and the ground state. A
parity-banded operator, which couples each index only to itself and its
neighbours at distance 2, is solved from its bands as two tridiagonal
blocks (even and odd indices); a dense matrix is split into the connected
blocks of its nonzero pattern, and each block of more than one index takes
one dense LAPACK call.

A tridiagonal block goes straight to LAPACK's float64 drivers: ``stevd``
for every eigenpair, ``stebz`` (then ``stein`` for vectors) for the lowest
few. These are the calls ``scipy.linalg.eigh_tridiagonal`` makes with its
default driver, bit for bit, without its per-call input checks: a banded
operator's bands are checked finite once, when it is built.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import BasisGuard, DimensionGuard, HermiticityViolation

logger = logging.getLogger(__name__)

HERMITICITY_RTOL = 1e-12
NORM_TOL = 1e-12
DEGENERACY_CLUSTER_TOL = 1e-9
MAX_DIM = 2**14
_HERMITICITY_TILE = 128
_STEVD, _STEBZ, _STEIN = sla.get_lapack_funcs(("stevd", "stebz", "stein"), dtype=np.float64)


def _freeze(arr) -> np.ndarray:
    """Read-only contiguous copy: float64 for real input, complex128 for complex input.

    Always a copy, so a caller's array stays writable and cannot change the
    frozen one.
    """
    dtype = np.complex128 if np.iscomplexobj(arr) else np.float64
    out = np.array(arr, dtype=dtype, order="C")
    out.setflags(write=False)
    return out


def _check_finite(*arrays) -> None:
    """ValueError, with scipy's message, when an array holds a NaN or an infinity."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError("array must not contain infs or NaNs")


def _hermiticity_deviation(m: np.ndarray) -> tuple[float, float]:
    """(max |m - m^H|, max |m|) over square tiles, without full-size temporaries.

    Each tile on or above the diagonal is compared with its mirror tile. A
    NaN propagates into both maxima (np.maximum, unlike Python's max, keeps it).
    """
    dev = scale = 0.0
    starts = range(0, m.shape[0], _HERMITICITY_TILE)
    for i in starts:
        rows = slice(i, i + _HERMITICITY_TILE)
        for j in starts[i // _HERMITICITY_TILE :]:
            cols = slice(j, j + _HERMITICITY_TILE)
            tile, mirror = m[rows, cols], m[cols, rows]
            dev = np.maximum(dev, np.abs(tile - mirror.T.conj()).max())
            scale = np.maximum(scale, np.abs(tile).max())
            if i != j:
                scale = np.maximum(scale, np.abs(mirror).max())
    return float(dev), float(scale)


class HermitianOperator:
    """Immutable Hermitian matrix (energies in units of omega unless stated).

    ``HermitianOperator(m)`` freezes a dense m once its entries are finite
    and it passes the Hermiticity check.
    ``HermitianOperator.parity_banded(diag, lower)`` stores only the two
    bands of a real symmetric matrix whose nonzeros lie on diagonals 0 and
    +/-2, which is symmetric by construction, and
    ``HermitianOperator.from_diagonal(diag)`` a real diagonal matrix as such
    bands; their ``entries`` are built from the bands on first use, once.
    """

    def __init__(self, entries):
        m = _freeze(entries)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise DimensionGuard(f"expected a square matrix, got shape {m.shape}")
        dev, scale = _hermiticity_deviation(m)
        _check_finite(scale)  # max |m| is finite only when every entry is
        if dev > HERMITICITY_RTOL * max(scale, 1e-300):
            raise HermiticityViolation(
                f"Hermiticity deviation {dev:.3e} exceeds {HERMITICITY_RTOL:.0e} x {scale:.3e}"
            )
        object.__setattr__(self, "_entries", m)
        object.__setattr__(self, "bands", None)

    @classmethod
    def parity_banded(cls, diag, lower) -> HermitianOperator:
        """The real symmetric matrix with diagonal `diag` and `lower` on diagonals +/-2."""
        diag, lower = _freeze(diag), _freeze(lower)
        if diag.dtype.kind == "c" or lower.dtype.kind == "c":
            raise TypeError("a parity-banded operator takes real bands")
        if diag.ndim != 1 or diag.size < 3 or lower.shape != (diag.size - 2,):
            raise DimensionGuard(
                f"bands of shapes {diag.shape} and {lower.shape} are not (n,) and (n - 2,), n >= 3"
            )
        _check_finite(diag, lower)
        op = cls.__new__(cls)
        object.__setattr__(op, "_entries", None)
        object.__setattr__(op, "bands", (diag, lower))
        return op

    @classmethod
    def from_diagonal(cls, diag) -> HermitianOperator:
        """The real diagonal matrix with diagonal `diag` (at least 3 entries), held as its bands."""
        return cls.parity_banded(diag, np.zeros(max(np.size(diag) - 2, 0)))

    def __setattr__(self, name, value):
        raise AttributeError(f"HermitianOperator is immutable; cannot set {name!r}")

    @property
    def entries(self) -> np.ndarray:
        """The dense read-only matrix."""
        if self._entries is None:
            diag, lower = self.bands
            m = np.diag(diag)
            i = np.arange(lower.size)
            m[i + 2, i] = m[i, i + 2] = lower
            m.setflags(write=False)
            object.__setattr__(self, "_entries", m)
        return self._entries

    @property
    def diagonal(self) -> np.ndarray:
        """The main diagonal, read-only, with no dense matrix built."""
        return self.bands[0] if self.bands is not None else np.diagonal(self._entries)

    @property
    def dim(self) -> int:
        return self.bands[0].size if self.bands is not None else self._entries.shape[0]

    @property
    def dtype(self) -> np.dtype:
        return self.bands[0].dtype if self.bands is not None else self._entries.dtype


def check_norm(amplitudes: np.ndarray) -> None:
    """ValueError when the amplitude vector's norm deviates from 1 beyond NORM_TOL."""
    norm = np.linalg.norm(amplitudes)
    if abs(norm - 1.0) > NORM_TOL:
        raise ValueError(f"state norm {norm!r} deviates from 1 beyond {NORM_TOL:.0e}")


@dataclass(frozen=True, eq=False)
class QuantumState:
    """Normalized amplitude vector over a labeled basis."""

    amplitudes: np.ndarray
    basis: str

    def __post_init__(self):
        v = _freeze(np.ravel(self.amplitudes))
        if v.size < 1:
            raise DimensionGuard("empty state vector")
        check_norm(v)
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


@dataclass(frozen=True, eq=False)
class GroundSector:
    """The eigenpairs of the block of H that holds its ground state, and H's lowest levels.

    `levels` holds every level of the block and the two lowest of the rest,
    ascending: at most two of H's three lowest levels lie outside the block,
    so ``levels[:3]`` are E_0, E_1 and E_2. A full decomposition is the one
    block over all rows (:meth:`whole`). The arrays are read-only.
    """

    energies: np.ndarray  # the block's ascending eigenvalues
    vectors: np.ndarray  # its phase-fixed eigenvectors as columns, over `rows`
    rows: slice  # the block's indices in H's order
    levels: np.ndarray
    psi0: np.ndarray  # the ground state over all of H's indices
    basis: str = ""

    @classmethod
    def whole(cls, dec: SpectralDecomposition) -> GroundSector:
        """A full decomposition as the one block: its own arrays, no copy."""
        return cls(dec.eigenvalues, dec.vectors, slice(None), dec.eigenvalues, dec.vectors[:, 0], dec.basis)

    @property
    def state(self) -> QuantumState:
        """The ground state, norm-checked."""
        return QuantumState(self.psi0, self.basis)


def _fix_phases(vecs: np.ndarray) -> np.ndarray:
    """Rotate (in place) each column so its largest-magnitude amplitude is real positive."""
    idx = np.abs(vecs).argmax(axis=0)
    pivots = vecs[idx, np.arange(vecs.shape[1])]
    if vecs.dtype.kind == "c":
        vecs *= (pivots / np.abs(pivots)).conj()
    else:
        vecs *= np.sign(pivots)  # the same bits as p / |p| on real pivots
    return vecs


def _orthonormalize_clusters(vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """QR-orthonormalize (in place) each run of eigenvalues closer than the cluster tolerance.

    The runs of one length are factored by one stacked QR call.
    """
    gaps = vals[1:] - vals[:-1]
    if vals.size < 2 or gaps.min() >= DEGENERACY_CLUSTER_TOL:  # every run has length one
        return vecs
    edges = np.concatenate(([0], np.flatnonzero(gaps >= DEGENERACY_CLUSTER_TOL) + 1, [vals.size]))
    starts, sizes = edges[:-1], np.diff(edges)
    for size in np.unique(sizes[sizes > 1]):
        columns = starts[sizes == size, np.newaxis] + np.arange(size)  # (runs, size)
        q = np.linalg.qr(vecs[:, columns].transpose(1, 0, 2))[0]  # (runs, dim, size)
        vecs[:, columns] = q.transpose(1, 0, 2)
    return vecs


def _connected_blocks(m: np.ndarray) -> list[np.ndarray]:
    """Ascending index arrays of the connected blocks of m's nonzero pattern.

    The blocks come in the order of their first index.
    """
    # imported here: scipy.sparse and csgraph cost about 4 MB and 50 ms to
    # import, and the banded Hamiltonians (oscillators, LMG) never reach this search
    import scipy.sparse as sparse
    from scipy.sparse import csgraph

    n = m.shape[0]
    flat = np.flatnonzero(m != 0)  # row-major, so each row's entries start at a search
    row_starts = np.searchsorted(flat, np.arange(0, n * n + 1, n))
    pattern = sparse.csr_array((np.ones(flat.size, dtype=bool), flat % n, row_starts), shape=m.shape)
    count, labels = csgraph.connected_components(pattern, directed=False)
    order = np.argsort(labels, kind="stable")
    return np.split(order, np.cumsum(np.bincount(labels, minlength=count))[:-1])


Block = tuple[slice | np.ndarray, np.ndarray, np.ndarray | None]  # rows, ascending values, vectors


def _lapack_info(info: int, driver: str, failure: str = "did not converge (LAPACK info={})") -> None:
    """Raise for a nonzero LAPACK info, with the exception types scipy raises."""
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of internal {driver}")
    if info > 0:
        raise np.linalg.LinAlgError(f"{driver} {failure.format(info)}")


def _eigh_tridiagonal(d: np.ndarray, e: np.ndarray, count: int | None = None, vectors: bool = True):
    """Ascending eigenvalues of the symmetric tridiagonal matrix with diagonal `d` and
    off-diagonal `e` (finite float64), with their vectors if asked for: every one, or
    the lowest `count` (fewer if the matrix is smaller).

    The same bits as ``scipy.linalg.eigh_tridiagonal`` with its default
    driver, which picks ``stevd`` for every level and ``stebz`` (then
    ``stein``, then a sort) for the lowest `count`.
    """
    if d.size == 1:
        w = np.array([d[0]])
        return (w, np.ones((1, 1))) if vectors else w
    if count is None:
        w, v, info = _STEVD(d, e, compute_v=vectors)
        _lapack_info(info, "stevd")
        return (w, v) if vectors else w
    m, w, block, split, info = _STEBZ(
        d, e, 2, 0.0, 1.0, 1, min(count, d.size), 0.0, "B" if vectors else "E"
    )
    _lapack_info(info, "stebz")
    w = w[:m]
    if not vectors:
        return w
    v, info = _STEIN(d, e, w, block, split)
    _lapack_info(info, "stein", "left {} eigenvectors unconverged")
    order = np.argsort(w)  # stebz's "B" order is block by block
    return w[order], v[:, order]


def _block_solve(
    bands: tuple[np.ndarray, np.ndarray], parity: int, count: int | None = None, vectors: bool = True
):
    """Eigenvalues of the even (parity 0) or odd tridiagonal block, with their vectors if
    asked for: every one, or the lowest `count` (fewer if the block is smaller)."""
    return _eigh_tridiagonal(bands[0][parity::2], bands[1][parity::2], count, vectors)


def _solve_ground_block(bands: tuple[np.ndarray, np.ndarray], count: int | None, other_count: int):
    """(parity, values, vectors, other levels): the lowest `count` eigenpairs (every one for
    None) of the parity block that holds the ground state, and the other block's lowest
    `other_count` levels.

    The block tried first holds the smallest diagonal entry; should the other
    block's lowest level lie lower, that block is solved instead.
    """
    parity = int(bands[0].argmin()) % 2
    vals, vecs = _block_solve(bands, parity, count)
    other = _block_solve(bands, 1 - parity, other_count, vectors=False)
    if other[0] < vals[0]:
        parity, other = 1 - parity, vals[:other_count]
        vals, vecs = _block_solve(bands, parity, count)
    return parity, vals, vecs, other


def _pattern_blocks(m: np.ndarray, components: list[np.ndarray]) -> list[Block]:
    """One dense solve per block of more than one index; a connected m is solved in place.

    The single indices form one last block whose eigenvectors (vectors None)
    are unit vectors.
    """
    blocks: list[Block] = [
        (rows, *sla.eigh(m if rows.size == m.shape[0] else m[np.ix_(rows, rows)], driver="evd"))
        for rows in components
        if rows.size > 1
    ]
    singles = [rows for rows in components if rows.size == 1]
    if singles:
        rows = np.concatenate(singles)
        blocks.append((rows, np.diagonal(m)[rows].real, None))
    return blocks


def _merge_blocks(dim: int, dtype, blocks: list[Block]) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenpairs of a block-diagonal matrix from those of its blocks.

    Each block's clusters and phases are fixed on its own vectors; its columns
    are then scattered to full size in the merged order, ties kept in block
    order. A single block that spans the matrix needs no scatter.
    """
    if len(blocks) == 1 and blocks[0][2] is not None:
        _, vals, vecs = blocks[0]
        return vals, _fix_phases(_orthonormalize_clusters(vals, vecs))
    vals = np.concatenate([values for _, values, _ in blocks])
    order = np.argsort(vals, kind="stable")
    column = np.empty_like(order)
    column[order] = np.arange(order.size)  # merged position of each block eigenpair
    vecs = np.zeros((dim, dim), dtype=dtype, order="F")  # column-major, as LAPACK returns
    start = 0
    for rows, values, vectors in blocks:
        cols = column[start : start + values.size]
        start += values.size
        if vectors is None:
            vecs[rows, cols] = 1.0
            continue
        if not isinstance(rows, slice):  # a slice of rows scatters several times faster
            rows = rows[:, np.newaxis]
        vecs[rows, cols] = _fix_phases(_orthonormalize_clusters(values, vectors))
    return vals[order], vecs


def _band_product(bands: tuple[np.ndarray, np.ndarray], v: np.ndarray) -> np.ndarray:
    """H v for the parity-banded H with these (diagonal, offset -2) bands."""
    diag, lower = bands
    out = diag * v
    out[2:] += lower * v[:-2]
    out[:-2] += lower * v[2:]
    return out


def eigendecompose(H: HermitianOperator, basis: str = "") -> SpectralDecomposition:
    """Full Hermitian solve with deterministic phase fixing.

    A parity-banded H is solved as its even and odd tridiagonal blocks, from
    its bands, with no dense matrix. A dense H is split into the connected
    blocks of its nonzero pattern: one dense call for a connected H, else
    one per block of more than one index.
    """
    if H.dim > MAX_DIM:
        raise DimensionGuard(f"dim {H.dim} exceeds configured maximum {MAX_DIM}")
    if H.bands is not None:
        route = "parity-tridiagonal"
        blocks = [(slice(parity, None, 2), *_block_solve(H.bands, parity)) for parity in (0, 1)]
    else:
        components = _connected_blocks(H.entries)
        route = "dense" if len(components) == 1 else "blocks"
        blocks = _pattern_blocks(H.entries, components)
    vals, vecs = _merge_blocks(H.dim, H.dtype, blocks)
    if logger.isEnabledFor(logging.DEBUG):
        v0 = vecs[:, 0]
        image = _band_product(H.bands, v0) if H.bands is not None else H.entries @ v0
        sizes = "+".join(
            str(values.size) if vectors is not None else f"{values.size}x1"
            for _, values, vectors in blocks
        )
        logger.debug(
            "eigendecompose dim=%d route=%s blocks=%s ground residual=%.3e",
            H.dim, route, sizes, np.linalg.norm(image - vals[0] * v0),
        )
    return SpectralDecomposition(vals, vecs, basis)


def _block_sizes(dim: int) -> str:
    return f"blocks={(dim + 1) // 2}+{dim // 2}"


def ground_sector(H: HermitianOperator, basis: str = "") -> GroundSector:
    """The block of H that holds its ground state, in the gauge of :func:`eigendecompose`.

    A parity-banded H solves only that parity block with vectors, and the
    other block's two lowest levels without (the block is picked as in
    :func:`ground_state`). Any other H is :func:`eigendecompose`'s solve as
    one block.
    """
    if H.dim > MAX_DIM:
        raise DimensionGuard(f"dim {H.dim} exceeds configured maximum {MAX_DIM}")
    if H.bands is None:
        sector = GroundSector.whole(eigendecompose(H, basis))
    else:
        parity, vals, vecs, other = _solve_ground_block(H.bands, None, 2)
        rows = slice(parity, None, 2)
        vecs = _fix_phases(_orthonormalize_clusters(vals, vecs))
        psi0 = np.zeros(H.dim)
        psi0[rows] = vecs[:, 0]
        levels = np.concatenate((vals, other))
        levels.sort()
        for array in (vals, vecs, psi0, levels):
            array.setflags(write=False)
        sector = GroundSector(vals, vecs, rows, levels, psi0, basis)
    if logger.isEnabledFor(logging.DEBUG):
        route = "full" if H.bands is None else (
            f"parity-tridiagonal {_block_sizes(H.dim)} ground={sector.rows.start}"
        )
        logger.debug(
            "ground_sector dim=%d route=%s gap=%.3e",
            H.dim, route, sector.levels[1] - sector.levels[0],
        )
    return sector


def ground_state(
    H: HermitianOperator, parity: int | None = None
) -> tuple[float, float, np.ndarray]:
    """(E_0, E_1, ground state), the state in the gauge of :func:`eigendecompose`.

    A parity-banded H needs no dense matrix: one parity block gives its two
    lowest levels and the ground vector, the other only its lowest level.
    The block tried first holds H's smallest diagonal entry; should the
    other block's level lie lower, that block gives the vector instead. Any
    other H takes the full :func:`eigendecompose`.

    With `parity`, a parity-banded H solves only that block's lowest
    eigenpair: for a caller that has certified the ground state lies there
    with a gap above its tolerance. E_1 is then not solved, and is inf.
    """
    if H.dim > MAX_DIM:
        raise DimensionGuard(f"dim {H.dim} exceeds configured maximum {MAX_DIM}")
    if H.bands is None:
        dec = eigendecompose(H)
        energy_gap(dec)  # DimensionGuard below two levels
        (e0, e1), psi = dec.eigenvalues[:2], dec.vectors[:, 0]
        route = "full"
    else:
        if parity is not None:
            vals, vecs = _block_solve(H.bands, parity, 1)
            e0, e1, label = vals[0], math.inf, "certified"
        else:
            parity, vals, vecs, other = _solve_ground_block(H.bands, 2, 1)
            e0, e1, label = vals[0], np.sort(np.concatenate((vals, other)))[1], "ground"
        route = f"parity-tridiagonal {_block_sizes(H.dim)} {label}={parity}"
        psi = np.zeros(H.dim)
        psi[parity::2] = _fix_phases(vecs[:, :1])[:, 0]
    if logger.isEnabledFor(logging.DEBUG):
        logger.debug("ground_state dim=%d route=%s gap=%.3e", H.dim, route, e1 - e0)
    return float(e0), float(e1), psi


def energy_gap(spec: SpectralDecomposition | GroundSector) -> float:
    """First excitation gap E_1 - E_0."""
    levels = spec.levels if isinstance(spec, GroundSector) else spec.eigenvalues
    if levels.size < 2:
        raise DimensionGuard("energy gap needs at least two levels")
    return float(levels[1] - levels[0])


def _image(A: HermitianOperator, s: QuantumState) -> np.ndarray:
    """A s, from the bands when A has them."""
    if A.dim != s.dim:
        raise DimensionGuard(f"operator dim {A.dim} != state dim {s.dim}")
    return A.entries @ s.amplitudes if A.bands is None else _band_product(A.bands, s.amplitudes)


def expectation(A: HermitianOperator, s: QuantumState) -> float:
    """Re <s|A|s>."""
    return float(np.vdot(s.amplitudes, _image(A, s)).real)


def variance(A: HermitianOperator, s: QuantumState) -> float:
    """||(A - <A>) s||^2, non-negative by construction."""
    return image_variance(s.amplitudes, _image(A, s))


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
