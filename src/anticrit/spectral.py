"""Hermitian eigendecomposition and state utilities.

Everything downstream (model building, QFI estimators, sweeps) goes
through :func:`eigendecompose`, which fixes eigenvector phases so that
repeated runs on the same machine produce bit-identical output;
:func:`ground_sector` solves only the block that holds the ground state,
and :func:`ground_state` only E_0, E_1 and the ground state. Every
operator is held as its blocks, and every solve, product and dense matrix
goes block by block: a parity-banded operator, which couples each index
only to itself and its neighbours at distance 2, is held as two
tridiagonal blocks (even and odd indices); an operator built with
:meth:`HermitianOperator.block_diagonal` as the dense blocks it was built
from; any other dense matrix as one dense block over every row.

A tridiagonal block goes straight to LAPACK's float64 drivers: ``stevd``
for every eigenpair, ``stebz`` (then ``stein`` for vectors) for the lowest
few. These are the calls ``scipy.linalg.eigh_tridiagonal`` makes with its
default driver, bit for bit, without its per-call input checks: a
tridiagonal block is checked finite once, when its operator is built. A
dense block takes ``evd`` for every eigenpair and ``evr`` for the lowest few.

``stevd`` and the dense ``eigh`` run on one BLAS thread (``_blas``), and
nothing else here does: they call level-3 BLAS (``stevd`` in its
divide-and-conquer merges), whose rounding depends on the thread count, so
at two threads a block of a few hundred levels gets other eigenvector bits.
``stebz`` and ``stein`` call level-1 BLAS only and give the same bits at any
count. Every caller thus gets the same bits whatever its own thread count,
which is restored when each call returns or raises; one exception is a
cluster of about 200 or more degenerate levels, whose QR (numpy's, at the
caller's count) can change its vectors' last bits.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from . import _blas
from .errors import BasisGuard, DimensionGuard, HermiticityViolation

logger = logging.getLogger(__name__)

HERMITICITY_RTOL = 1e-12
NORM_TOL = 1e-12
DEGENERACY_CLUSTER_TOL = 1e-9
MAX_DIM = 2**14
_HERMITICITY_TILE = 128
_STEVD, _STEBZ, _STEIN = sla.get_lapack_funcs(("stevd", "stebz", "stein"), dtype=np.float64)
_SAFE_MIN = float(np.finfo(np.float64).tiny)  # LAPACK's dlamch("S")


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
    for a in arrays:
        if not np.isfinite(a).all():
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


def _checked(entries) -> np.ndarray:
    """`entries` frozen, once they form a square matrix that is finite and Hermitian."""
    m = _freeze(entries)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise DimensionGuard(f"expected a square matrix, got shape {m.shape}")
    dev, scale = _hermiticity_deviation(m)
    _check_finite(scale)  # max |m| is finite only when every entry is
    if dev > HERMITICITY_RTOL * max(scale, 1e-300):
        raise HermiticityViolation(
            f"Hermiticity deviation {dev:.3e} exceeds {HERMITICITY_RTOL:.0e} x {scale:.3e}"
        )
    return m


class HermitianOperator:
    """Immutable Hermitian matrix (energies in units of omega unless stated), held as its blocks.

    ``blocks`` is a tuple of ``(rows, block)`` pairs: the rows partition the
    indices, the matrix couples no two of them, and each block is a symmetric
    tridiagonal ``(d, e)`` pair (diagonal, off-diagonal) or a dense read-only
    array. ``HermitianOperator(m)`` freezes a dense m, once its entries are
    finite and it passes the Hermiticity check, as one block over every row.
    ``parity_banded(diag, lower)`` holds a real symmetric matrix whose
    nonzeros lie on diagonals 0 and +/-2 as its even and odd tridiagonal
    blocks, and ``from_diagonal(diag)`` a diagonal matrix the same way.
    ``block_diagonal(rows, blocks)`` holds the dense blocks it is given.
    ``diagonal`` is stored once, read-only; ``entries``, the dense matrix, is
    built from the blocks on first use, once.
    """

    def __init__(self, entries):
        m = _checked(entries)
        self._hold(((slice(None), m),), np.diagonal(m), m.dtype, m)

    def _hold(self, blocks: tuple, diagonal: np.ndarray, dtype: np.dtype, entries=None) -> HermitianOperator:
        self.__dict__.update(blocks=blocks, diagonal=diagonal, dim=diagonal.size, dtype=dtype, _entries=entries)
        return self

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
        even, odd = (diag[0::2], lower[0::2]), (diag[1::2], lower[1::2])
        return cls.__new__(cls)._hold(((slice(0, None, 2), even), (slice(1, None, 2), odd)), diag, diag.dtype)

    @classmethod
    def from_diagonal(cls, diag) -> HermitianOperator:
        """The real diagonal matrix with diagonal `diag` (at least 3 entries), held as its bands."""
        return cls.parity_banded(diag, np.zeros(max(np.size(diag) - 2, 0)))

    @classmethod
    def block_diagonal(cls, rows, blocks) -> HermitianOperator:
        """The matrix whose entries on rows[k] x rows[k] are blocks[k] and are zero elsewhere.

        The rows must partition 0..n-1; each block is checked as
        ``HermitianOperator(block)`` is.
        """
        rows, blocks = [np.array(r, dtype=np.intp) for r in rows], [_checked(b) for b in blocks]
        if [r.shape for r in rows] != [m.shape[:1] for m in blocks]:
            raise DimensionGuard(f"blocks of shapes {[m.shape for m in blocks]} on {[r.size for r in rows]} rows")
        for r in rows:
            r.setflags(write=False)
        dim = sum(r.size for r in rows)
        every = np.concatenate(rows) if rows else rows
        if dim < 1 or every.min() < 0 or np.any(np.bincount(every, minlength=dim) != 1):
            raise DimensionGuard(f"block rows do not partition 0..{dim - 1}")
        dtype = np.result_type(*(m.dtype for m in blocks))
        diagonal = np.empty(dim, dtype=dtype)
        for r, m in zip(rows, blocks):
            diagonal[r] = np.diagonal(m)
        diagonal.setflags(write=False)
        return cls.__new__(cls)._hold(tuple(zip(rows, blocks)), diagonal, dtype)

    def __setattr__(self, name, value):
        raise AttributeError(f"HermitianOperator is immutable; cannot set {name!r}")

    @property
    def entries(self) -> np.ndarray:
        """The dense read-only matrix."""
        if self._entries is None:
            m = np.zeros((self.dim, self.dim), dtype=self.dtype)
            index = np.arange(self.dim)
            for rows, block in self.blocks:
                r = index[rows]
                if isinstance(block, tuple):
                    m[r, r] = block[0]
                    m[r[1:], r[:-1]] = m[r[:-1], r[1:]] = block[1]
                else:
                    m[np.ix_(r, r)] = block
            m.setflags(write=False)
            object.__setattr__(self, "_entries", m)
        return self._entries


def check_norm(amplitudes: np.ndarray) -> None:
    """ValueError when the amplitude vector's norm deviates from 1 beyond NORM_TOL.

    A real vector's norm is np.linalg.norm's, sqrt(v . v), without its wrapper.
    """
    norm = math.sqrt(amplitudes @ amplitudes) if amplitudes.dtype.kind == "f" else np.linalg.norm(amplitudes)
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

    `levels` holds every level of the block (or its lowest three or more, when
    the sector is not :attr:`complete`) and the two lowest of the rest,
    ascending: at most two of H's three lowest levels lie outside the block,
    so ``levels[:3]`` are E_0, E_1 and E_2. `block` indexes H's blocks (parity
    0 or 1 in every model family); a full decomposition is one block over all
    rows, with no index (:meth:`whole`). The arrays are read-only.
    """

    energies: np.ndarray  # the block's ascending eigenvalues
    vectors: np.ndarray  # its phase-fixed eigenvectors as columns, over `rows`
    rows: slice | np.ndarray  # the block's indices in H's order
    block: int | None
    levels: np.ndarray
    psi0: np.ndarray  # the ground state over all of H's indices
    basis: str = ""

    @classmethod
    def whole(cls, dec: SpectralDecomposition) -> GroundSector:
        """A full decomposition as the one block: its own arrays, no copy."""
        return cls(dec.eigenvalues, dec.vectors, slice(None), None, dec.eigenvalues, dec.vectors[:, 0], dec.basis)

    @property
    def state(self) -> QuantumState:
        """The ground state, norm-checked."""
        return QuantumState(self.psi0, self.basis)

    @property
    def complete(self) -> bool:
        """Whether every level of the block was solved."""
        return self.vectors.shape[1] == self.vectors.shape[0]


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
        with _blas.single_thread():
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
    order = w.argsort()  # stebz's "B" order is block by block
    return w[order], v[:, order]


def _solvable(H: HermitianOperator) -> tuple:
    """H's blocks, refused by DimensionGuard when H is larger than MAX_DIM."""
    if H.dim > MAX_DIM:
        raise DimensionGuard(f"dim {H.dim} exceeds configured maximum {MAX_DIM}")
    return H.blocks


def _blocks(H: HermitianOperator) -> tuple[tuple, int]:
    """(H's blocks, the index of the block tried first for the ground state): the lowest-index
    block with the smallest diagonal minimum."""
    blocks = _solvable(H)
    minima = [H.diagonal[rows].real.min() for rows, _ in blocks]
    return blocks, minima.index(min(minima))


def _eigh_dense(block: np.ndarray, **kwargs):
    """scipy's ``eigh`` of a dense block (finite: checked when its operator was built), on one
    BLAS thread."""
    with _blas.single_thread():
        return sla.eigh(block, check_finite=False, **kwargs)


def _solve_block(block: tuple | np.ndarray, count: int | None = None, vectors: bool = True):
    """Ascending eigenvalues of a tridiagonal (d, e) or dense block, with their vectors if
    asked for: every one, or the lowest `count` (fewer if the block is smaller)."""
    if isinstance(block, tuple):
        return _eigh_tridiagonal(*block, count, vectors)
    subset = None if count is None else (0, min(count, len(block)) - 1)
    driver = "evd" if subset is None else "evr"
    return _eigh_dense(block, eigvals_only=not vectors, subset_by_index=subset, driver=driver)


def _levels_below(block: tuple | np.ndarray, energy: float) -> int:
    """The number of eigenvalues of a tridiagonal (d, e) or dense block strictly below `energy`.

    A tridiagonal block takes one ``stebz`` call over (-inf, c], c the float
    below energy - pivmin: its Sturm count reads a pivot within pivmin =
    dlamch("S") max(1, max e_j^2) of zero as negative, so without the shift
    a level equal to an `energy` of 0 would count. It bisects only the levels
    it finds, none when the count is 0. A dense block takes ``evr`` by value.
    """
    if isinstance(block, tuple):
        d, e = block
        if d.size == 1:
            return int(d[0] < energy)
        pivmin = _SAFE_MIN * max(1.0, float(e @ e))  # at least stebz's own
        upper = math.nextafter(energy - pivmin, -math.inf)
        found, _, _, _, info = _STEBZ(d, e, 1, -math.inf, upper, 0, 0, 0.0, "E")
        _lapack_info(info, "stebz")
        return int(found)
    upper = np.nextafter(energy, -np.inf)
    return _eigh_dense(block, eigvals_only=True, subset_by_value=(-np.inf, upper), driver="evr").size


def _solve_ground_block(blocks, index: int, count: int | None, other_count: int):
    """(index, values, vectors, other levels): the lowest `count` eigenpairs (every one for
    None) of the block that holds the ground state, and the lowest `other_count` levels of
    the other blocks together. Block `index` is tried first; should another block's lowest
    level lie lower, the lowest such block is solved instead.
    """
    vals, vecs = _solve_block(blocks[index][1], count)
    lowest = [
        vals[:other_count] if k == index else _solve_block(block, other_count, vectors=False)
        for k, (_, block) in enumerate(blocks)
    ]
    bottoms = [levels[0] for levels in lowest]
    lower = bottoms.index(min(bottoms))
    if bottoms[lower] < vals[0]:
        index = lower
        vals, vecs = _solve_block(blocks[index][1], count)
    del lowest[index]
    if len(lowest) == 1:  # already ascending, and no longer than other_count
        return index, vals, vecs, lowest[0]
    return index, vals, vecs, np.sort(np.concatenate([vals[:0], *lowest]))[:other_count]


def _merge_blocks(dim: int, dtype, solved) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenpairs of a block-diagonal matrix from the (rows, values, vectors) of its
    blocks: each block's clusters and phases are fixed on its own vectors, and its columns
    scattered to full size in the merged order, ties kept in block order.
    """
    vals = np.concatenate([values for _, values, _ in solved])
    order = np.argsort(vals, kind="stable")
    column = np.empty_like(order)
    column[order] = np.arange(order.size)  # merged position of each block eigenpair
    vecs = np.zeros((dim, dim), dtype=dtype, order="F")  # column-major, as LAPACK returns
    start = 0
    for rows, values, vectors in solved:
        cols = column[start : start + values.size]
        start += values.size
        if not isinstance(rows, slice):  # a slice of rows scatters several times faster
            rows = rows[:, np.newaxis]
        vecs[rows, cols] = _fix_phases(_orthonormalize_clusters(values, vectors))
    return vals[order], vecs


def _apply(A: HermitianOperator, v: np.ndarray) -> np.ndarray:
    """A v, block by block."""
    if A.dim != v.size:
        raise DimensionGuard(f"operator dim {A.dim} != state dim {v.size}")
    out = np.empty(v.size, dtype=np.result_type(A.dtype, v))
    for rows, block in A.blocks:
        x = v[rows]
        if isinstance(block, tuple):
            d, e = block
            y = d * x
            y[1:] += e * x[:-1]
            y[:-1] += e * x[1:]
        else:
            y = block @ x
        out[rows] = y
    return out


def _route(blocks: tuple) -> str:
    """The DEBUG label of a solve's blocks, their kind and sizes, as in "parity-tridiagonal blocks=6+5"."""
    kind = "parity-tridiagonal" if isinstance(blocks[0][1], tuple) else "blocks" if len(blocks) > 1 else "dense"
    return f"{kind} blocks=" + "+".join(str(len(b[0]) if isinstance(b, tuple) else len(b)) for _, b in blocks)


def eigendecompose(H: HermitianOperator, basis: str = "") -> SpectralDecomposition:
    """Full Hermitian solve with deterministic phase fixing.

    Each block of H takes one call, ``stevd`` for a tridiagonal block and
    ``evd`` for a dense one, and their eigenpairs are merged in ascending order.
    """
    blocks = _solvable(H)
    vals, vecs = _merge_blocks(H.dim, H.dtype, [(rows, *_solve_block(block)) for rows, block in blocks])
    if logger.isEnabledFor(logging.DEBUG):
        v0 = vecs[:, 0]
        logger.debug(
            "eigendecompose dim=%d route=%s ground residual=%.3e",
            H.dim, _route(blocks), np.linalg.norm(_apply(H, v0) - vals[0] * v0),
        )
    return SpectralDecomposition(vals, vecs, basis)


def ground_sector(H: HermitianOperator, basis: str = "", count: int | None = None) -> GroundSector:
    """The block of H that holds its ground state, in the gauge of :func:`eigendecompose`.

    That block alone is solved with vectors, every eigenpair of it as
    :func:`eigendecompose` solves it; each other block gives its two lowest
    levels without vectors. The block is picked as in :func:`ground_state`.

    With `count` (at least 3), only the block's lowest `count` eigenpairs
    are solved (``stebz`` and ``stein``, or ``evr`` on a dense block), fewer
    if the block is smaller; ``levels[:3]`` are still E_0, E_1 and E_2.
    """
    if count is not None and count < 3:
        raise ValueError(f"a ground sector solves at least its block's 3 lowest levels, got count={count}")
    blocks, first = _blocks(H)
    index, vals, vecs, other = _solve_ground_block(blocks, first, count, 2)
    rows = blocks[index][0]
    vecs = _fix_phases(_orthonormalize_clusters(vals, vecs))
    psi0 = np.zeros(H.dim, dtype=vecs.dtype)
    psi0[rows] = vecs[:, 0]
    levels = np.concatenate((vals, other))
    levels.sort()
    for array in (vals, vecs, psi0, levels):
        array.setflags(write=False)
    if logger.isEnabledFor(logging.DEBUG):
        logger.debug(
            "ground_sector dim=%d route=%s ground=%d gap=%.3e",
            H.dim, _route(blocks), index, levels[1] - levels[0],
        )
    return GroundSector(vals, vecs, rows, index, levels, psi0, basis)


def ground_state(H: HermitianOperator, block: int | None = None) -> tuple[float, float, np.ndarray]:
    """(E_0, E_1, ground state), the state in the gauge of :func:`eigendecompose`.

    One block gives its two lowest levels and the ground vector, each other
    block only its lowest level. The block tried first is the lowest-index
    block with the smallest diagonal minimum; should another block's level
    lie lower, that block gives the vector instead.

    With `block` (an index into H's blocks), only that block's lowest
    eigenpair is solved: for a caller that has certified the ground state
    lies there with a gap above its tolerance. E_1 is then not solved, and
    is inf.
    """
    if block is not None:
        blocks = _solvable(H)
        vals, vecs = _solve_block(blocks[block][1], 1)
        e0, e1, label = vals[0], math.inf, "certified"
    else:
        blocks, first = _blocks(H)
        block, vals, vecs, other = _solve_ground_block(blocks, first, 2, 1)
        levels = np.concatenate((vals, other))
        if levels.size < 2:
            raise DimensionGuard("energy gap needs at least two levels")
        e0, e1, label = vals[0], np.sort(levels)[1], "ground"
    psi = np.zeros(H.dim, dtype=vecs.dtype)
    psi[blocks[block][0]] = _fix_phases(vecs[:, :1])[:, 0]
    if logger.isEnabledFor(logging.DEBUG):
        logger.debug(
            "ground_state dim=%d route=%s %s=%d gap=%.3e", H.dim, _route(blocks), label, block, e1 - e0
        )
    return float(e0), float(e1), psi


def block_levels(H: HermitianOperator, block: int, count: int | None = None) -> tuple[np.ndarray, np.ndarray, int]:
    """(values, vectors, below): the lowest `count` eigenpairs (every one for None) of H's
    block `block`, solved and phase-fixed as :func:`ground_sector` solves the ground
    state's block, and the number of H's levels in its other blocks strictly below the
    lowest value.

    No other block is solved: each gives one count of its levels below E_0,
    a Sturm count (one ``stebz`` call) on a tridiagonal block. A caller that
    follows the ground state's block from a nearby H certifies with
    ``below == 0`` that the block still holds the ground state.
    """
    blocks = _solvable(H)
    vals, vecs = _solve_block(blocks[block][1], count)
    vecs = _fix_phases(_orthonormalize_clusters(vals, vecs))
    e0 = float(vals[0])
    return vals, vecs, sum(_levels_below(other, e0) for k, (_, other) in enumerate(blocks) if k != block)


def energy_gap(spec: SpectralDecomposition | GroundSector) -> float:
    """First excitation gap E_1 - E_0."""
    levels = spec.levels if isinstance(spec, GroundSector) else spec.eigenvalues
    if levels.size < 2:
        raise DimensionGuard("energy gap needs at least two levels")
    return float(levels[1] - levels[0])


def expectation(A: HermitianOperator, s: QuantumState) -> float:
    """Re <s|A|s>."""
    return float(np.vdot(s.amplitudes, _apply(A, s.amplitudes)).real)


def variance(A: HermitianOperator, s: QuantumState) -> float:
    """||(A - <A>) s||^2, non-negative by construction."""
    return image_variance(s.amplitudes, _apply(A, s.amplitudes))


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
