import hashlib
import json
import logging
import tracemalloc
import math
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from anticrit import spectral
from anticrit.errors import (
    BasisGuard,
    DimensionGuard,
    HermiticityViolation,
)
from anticrit.fock import FockSpace, number_operator, squeeze_vacuum
from anticrit.models import ModelSpec, build
from anticrit.qfi import qfi_spectral_sum
from anticrit.spectral import (
    GroundSector,
    HermitianOperator,
    QuantumState,
    eigendecompose,
    energy_gap,
    expectation,
    overlap,
    variance,
)
from test_acceptance import _eigensolver_bounds  # the golden contract's error bounds
from anticrit.spin import ChainBasis, chain_bits
from test_spin import dicke_matrices  # Dicke S_x, S_y, S_z from an independent ladder

XI_075 = -0.25 * math.log(0.25)  # squeezing at x = 0.75


def random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return HermitianOperator((m + m.conj().T) / 2)


class TestEigendecompose:
    def test_diagonal(self):
        dec = eigendecompose(HermitianOperator(np.diag([0.0, 1.0, 2.0])))
        assert np.allclose(dec.eigenvalues, [0, 1, 2])
        assert np.allclose(dec.vectors, np.eye(3))

    def test_pauli_x(self):
        sx = HermitianOperator(np.array([[0.0, 1.0], [1.0, 0.0]]))
        dec = eigendecompose(sx)
        assert np.allclose(dec.eigenvalues, [-1.0, 1.0])

    def test_lmg_g0_n2(self):
        dec = eigendecompose(build(ModelSpec(family="lmg", omega=1.0, g=0.0, N=2)).H)
        assert np.allclose(dec.eigenvalues, [-1.0, 0.0, 1.0])

    def test_non_hermitian_rejected(self):
        with pytest.raises(HermiticityViolation):
            HermitianOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("row,col", [(3, 190), (190, 3), (150, 149)])
    def test_non_hermitian_rejected_in_any_panel(self, row, col):
        # 200 rows span two tiles of the check a side: (3, 190) and (190, 3) sit
        # in the off-diagonal tiles, (150, 149) in a diagonal one; one bad entry fails it
        m = random_hermitian(200, 4).entries.copy()
        m[row, col] += 1e-9
        with pytest.raises(HermiticityViolation, match="Hermiticity deviation"):
            HermitianOperator(m)
        m[row, col] -= 1e-9 - 1e-14  # within the 1e-12 relative tolerance
        HermitianOperator(m)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected(self, value):
        # Python's max over the tile maxima dropped a NaN, so both matrices passed
        with pytest.raises(ValueError, match="^array must not contain infs or NaNs$"):
            HermitianOperator(np.array([[1.0, value], [5.0, 1.0]]))
        m = random_hermitian(200, 4).entries.copy()
        m[190, 3] = value  # in the far off-diagonal tile of the check
        with pytest.raises(ValueError, match="^array must not contain infs or NaNs$"):
            HermitianOperator(m)

    def test_hermiticity_scale_is_max_entry(self):
        m = random_hermitian(300, 7).entries.copy()
        m[270, 5] = m[5, 270] = 40.0  # largest entry, in an off-diagonal tile
        m[270, 5] += 1e-9
        dev, scale = spectral._hermiticity_deviation(m)
        assert (dev, scale) == (np.abs(m - m.conj().T).max(), np.abs(m).max())

    def test_caller_array_stays_writable(self):
        m = np.eye(2)
        op = HermitianOperator(m)
        m[0, 0] = 2.0
        assert op.entries[0, 0] == 1.0
        assert not op.entries.flags.writeable
        amps = np.array([1.0, 0.0])
        state = QuantumState(amps, "b")
        amps[0] = 0.5
        assert state.amplitudes[0] == 1.0

    def test_read_only_input_copied(self):
        owned = np.eye(3)
        owned.setflags(write=False)
        assert HermitianOperator(owned).entries is not owned
        base = np.eye(3)
        view = base[:]
        view.setflags(write=False)
        op = HermitianOperator(view)
        base[0, 0] = 5.0
        assert op.entries[0, 0] == 1.0

    def test_dimension_guard(self, monkeypatch):
        op = random_hermitian(4, 0)
        monkeypatch.setattr(spectral, "MAX_DIM", 3)
        with pytest.raises(DimensionGuard):
            eigendecompose(op)

    @settings(max_examples=20, deadline=None)
    @given(dim=st.integers(2, 12), seed=st.integers(0, 10**6))
    def test_invariants(self, dim, seed):
        op = random_hermitian(dim, seed)
        dec = eigendecompose(op)
        scale = abs(dec.eigenvalues[-1]) + abs(dec.eigenvalues[0]) + 1.0
        # ascending
        assert np.all(np.diff(dec.eigenvalues) >= 0)
        # residual
        res = np.abs(op.entries @ dec.vectors - dec.vectors * dec.eigenvalues).max()
        assert res <= 1e-10 * scale
        # orthonormality
        gram = dec.vectors.conj().T @ dec.vectors
        assert np.abs(gram - np.eye(dim)).max() <= 1e-10
        # phase fixing: largest-magnitude amplitude real positive
        for k in range(dim):
            v = dec.vectors[:, k]
            pivot = v[np.abs(v).argmax()]
            assert pivot.real > 0 and abs(pivot.imag) <= 1e-12 * abs(pivot)

    def test_reproducible(self):
        op = random_hermitian(16, 42)
        a = eigendecompose(op)
        b = eigendecompose(op)
        assert np.array_equal(a.vectors, b.vectors)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)

    def test_completeness_sum_rule(self):
        # sum_n |<v_n|A|v_0>|^2 == <v_0|A^2|v_0> for A = dH/domega
        inst = build(ModelSpec(family="lmg", omega=1.0, g=0.7, N=60))
        dec = eigendecompose(inst.H)
        v0 = dec.vectors[:, 0]
        elems = dec.vectors.conj().T @ (inst.dH_domega.entries @ v0)
        lhs = np.sum(np.abs(elems) ** 2)
        rhs = np.vdot(inst.dH_domega.entries @ v0, inst.dH_domega.entries @ v0).real
        assert abs(lhs - rhs) <= 1e-10 * max(abs(rhs), 1.0)


class TestDtypeContract:
    @pytest.mark.parametrize(
        "entries", [[[2, 1], [1, 0]], np.array([[2.0, 1.0], [1.0, 0.0]])], ids=["int", "float"]
    )
    def test_real_input_stays_real(self, entries):
        op = HermitianOperator(entries)
        dec = eigendecompose(op)
        assert op.entries.dtype == np.float64
        assert dec.vectors.dtype == np.float64
        assert dec.eigenvector(0).amplitudes.dtype == np.float64
        assert QuantumState([0, 1], "b").amplitudes.dtype == np.float64

    def test_complex_input_stays_complex(self):
        op = random_hermitian(4, 1)
        dec = eigendecompose(op)
        assert op.entries.dtype == np.complex128
        assert dec.vectors.dtype == np.complex128
        assert dec.eigenvector(0).amplitudes.dtype == np.complex128
        assert QuantumState([0, 1j], "b").amplitudes.dtype == np.complex128


def repeated_eigenvalue_hermitian():
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
    m = q @ np.diag([1.0, 1.0, 1.0, 2.0, 3.0, 3.0]) @ q.conj().T
    return HermitianOperator((m + m.conj().T) / 2)


class TestDegenerateClusters:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: build(ModelSpec(family="tfim", omega=1.0, g=0.0, N=6)).H,
            repeated_eigenvalue_hermitian,
        ],
        ids=["tfim_g0_N6", "complex_repeated"],
    )
    def test_orthonormal_with_real_positive_pivots(self, make):
        op = make()
        dec = eigendecompose(op)
        assert np.any(np.diff(dec.eigenvalues) < 1e-9)  # clusters are present
        gram = dec.vectors.conj().T @ dec.vectors
        assert np.abs(gram - np.eye(op.dim)).max() <= 1e-12
        pivots = dec.vectors[np.abs(dec.vectors).argmax(axis=0), np.arange(op.dim)]
        assert np.all(pivots.real > 0)
        assert np.all(np.abs(pivots.imag) <= 1e-12 * np.abs(pivots))


def parity_banded(dim, seed, zero_fraction):
    """Random real symmetric matrix with nonzeros only on diagonals 0 and +/-2.

    Zeroed entries split the blocks further and make exact degeneracies.
    """
    rng = np.random.default_rng(seed)
    diag, band = rng.normal(size=dim), rng.normal(size=dim - 2)
    diag[rng.random(dim) < zero_fraction] = 0.0
    band[rng.random(dim - 2) < zero_fraction] = 0.0
    return np.diag(diag) + np.diag(band, 2) + np.diag(band, -2)


def stray_offset_one():
    m = parity_banded(12, 3, 0.0)
    m[4, 5] = m[5, 4] = 0.25
    return HermitianOperator(m)


def solve_counting_routes(op):
    """eigendecompose(op) and how often it called (dense eigh, the tridiagonal block solve)."""
    with mock.patch.object(sla, "eigh", wraps=sla.eigh) as dense, mock.patch.object(
        spectral, "_eigh_tridiagonal", wraps=spectral._eigh_tridiagonal
    ) as tridiagonal:
        dec = eigendecompose(op)
    return dec, (dense.call_count, tridiagonal.call_count)


def assert_valid_decomposition(op, dec):
    norm = np.linalg.norm(op.entries, 2)
    tol = 128 * np.finfo(float).eps * max(norm, 1e-300)
    assert np.all(np.diff(dec.eigenvalues) >= 0)
    gram = dec.vectors.conj().T @ dec.vectors
    assert np.abs(gram - np.eye(op.dim)).max() <= 1e-12
    residuals = np.linalg.norm(op.entries @ dec.vectors - dec.vectors * dec.eigenvalues, axis=0)
    assert residuals.max() <= tol
    pivots = dec.vectors[np.abs(dec.vectors).argmax(axis=0), np.arange(op.dim)]
    assert np.all(pivots.real > 0)
    assert np.all(np.abs(pivots.imag) <= 1e-12 * np.abs(pivots))
    return tol


class TestParityTridiagonalRoute:
    @settings(max_examples=40, deadline=None)
    @given(
        dim=st.integers(3, 60),
        seed=st.integers(0, 10**6),
        zero_fraction=st.sampled_from([0.0, 0.3]),
    )
    def test_matches_dense(self, dim, seed, zero_fraction):
        m = parity_banded(dim, seed, zero_fraction)
        op = HermitianOperator.parity_banded(np.diagonal(m), np.diagonal(m, -2))
        dec, routes = solve_counting_routes(op)
        assert routes == (0, 2)  # one tridiagonal solve per parity block
        tol = assert_valid_decomposition(op, dec)
        dense = sla.eigh(op.entries, eigvals_only=True)
        assert np.abs(dec.eigenvalues - dense).max() <= tol

    @pytest.mark.parametrize(
        "make",
        [
            lambda: build(ModelSpec.effective("low", x=0.9, n_max=120)).H,
            lambda: build(ModelSpec.effective("high", x=8.0, n_max=120)).H,
            lambda: build(ModelSpec(family="lmg", omega=1.0, g=0.9, N=60)).H,
            lambda: build(ModelSpec.rabi(1.0, 50.0, 0.3, n_max=30)).H,
        ],
        ids=["effective_low", "effective_high", "lmg", "rabi_full"],
    )
    def test_model_families_take_it(self, make):
        op = make()
        dec, routes = solve_counting_routes(op)
        assert routes == (0, 2)
        assert_valid_decomposition(op, dec)

    def test_diagonal_degenerate(self):
        op = build(ModelSpec(family="tfim", omega=1.0, g=0.0, N=6)).H
        dec, routes = solve_counting_routes(op)
        assert routes == (2, 0)  # one dense call on each diagonal parity block
        assert np.any(np.diff(dec.eigenvalues) < 1e-9)  # clusters are present
        assert_valid_decomposition(op, dec)
        assert np.array_equal(dec.eigenvalues, np.sort(np.diag(op.entries)))

    @pytest.mark.parametrize(
        "make,routes",
        [
            (stray_offset_one, (1, 0)),
            # a dense matrix is one block, banded or not, real or complex: one evd call
            (lambda: HermitianOperator(parity_banded(12, 3, 0.0)), (1, 0)),
            (lambda: HermitianOperator(parity_banded(12, 3, 0.0).astype(complex)), (1, 0)),
            (lambda: random_hermitian(12, 8), (1, 0)),
        ],
        ids=["stray_offset_one", "dense_banded", "complex", "connected_complex"],
    )
    def test_other_matrices_stay_dense(self, make, routes):
        op = make()
        dec, taken = solve_counting_routes(op)
        assert taken == routes
        tol = assert_valid_decomposition(op, dec)
        dense = sla.eigh(op.entries, eigvals_only=True)
        assert np.abs(dec.eigenvalues - dense).max() <= tol


def random_bands(dim, seed, band_zero_fraction):
    """(diagonal, offset -2 band) of a random parity-banded matrix; a fraction 1 of zeroed
    band entries leaves it diagonal, as the model Hamiltonians are at g = 0."""
    rng = np.random.default_rng(seed)
    diag, band = rng.normal(size=dim), rng.normal(size=dim - 2)
    band[rng.random(dim - 2) < band_zero_fraction] = 0.0
    return diag, band


@contextmanager
def lazy_entries_spy():
    """The operators not built from a dense matrix whose dense `entries` are read inside the
    block; an operator built from one holds that matrix as its one block."""
    read = []
    entries = HermitianOperator.entries

    def spy(op):
        if op.blocks[0][1] is not op._entries:
            read.append(op)
        return entries.fget(op)

    with mock.patch.object(HermitianOperator, "entries", property(spy)):
        yield read


class TestParityBandedOperator:
    def test_entries_built_once_read_only(self):
        diag, band = random_bands(9, 1, 0.0)
        op = HermitianOperator.parity_banded(diag, band)
        m = op.entries
        assert op.entries is m and not m.flags.writeable
        assert np.array_equal(m, np.diag(diag) + np.diag(band, 2) + np.diag(band, -2))
        assert (op.dim, op.dtype) == (9, np.float64)

    def test_bands_copied(self):
        diag, band = random_bands(5, 2, 0.0)
        op = HermitianOperator.parity_banded(diag, band)
        expected = [(slice(p, None, 2), diag[p::2].copy(), band[p::2].copy()) for p in (0, 1)]
        diag[:] = band[:] = 7.0
        # held as its even and odd tridiagonal blocks, (diagonal, off-diagonal) pairs of copies
        for (rows, block), (r, d, e) in zip(op.blocks, expected, strict=True):
            assert rows == r and isinstance(block, tuple)
            assert np.array_equal(block[0], d) and np.array_equal(block[1], e)
        assert not np.any(op.diagonal == 7.0)

    def test_immutable(self):
        op = HermitianOperator.parity_banded(*random_bands(5, 3, 0.0))
        with pytest.raises(AttributeError):
            op.blocks = None
        for _, (d, e) in op.blocks:
            assert not d.flags.writeable and not e.flags.writeable

    @pytest.mark.parametrize(
        "diag,band",
        [(np.zeros(5), np.zeros(4)), (np.zeros(5), np.zeros(2)), (np.zeros(2), np.zeros(0))],
        ids=["long_band", "short_band", "dim_2"],
    )
    def test_wrong_lengths_rejected(self, diag, band):
        with pytest.raises(DimensionGuard):
            HermitianOperator.parity_banded(diag, band)

    def test_complex_rejected(self):
        with pytest.raises(TypeError):
            HermitianOperator.parity_banded(np.zeros(5), np.zeros(3, dtype=complex))

    @pytest.mark.parametrize("band", [0, 1])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, band, value):
        bands = random_bands(7, 4, 0.0)
        bands[band][2] = value
        with pytest.raises(ValueError, match="^array must not contain infs or NaNs$"):
            HermitianOperator.parity_banded(*bands)

    def test_non_finite_dense_band_rejected_by_the_solve(self):
        m = parity_banded(8, 5, 0.0)
        m[4, 2] = m[2, 4] = np.nan
        with pytest.raises(ValueError, match="^array must not contain infs or NaNs$"):
            eigendecompose(HermitianOperator(m))

    @pytest.mark.parametrize(
        "spec",
        [
            ModelSpec.effective("low", x=0.9, n_max=120),
            ModelSpec(family="lmg", omega=1.0, g=0.9, N=60),
            ModelSpec.rabi(1.0, 50.0, 0.3, n_max=30),
        ],
        ids=["effective_low", "lmg", "rabi_full"],
    )
    def test_solves_never_build_the_dense_matrix(self, spec, caplog):
        op = build(spec).H
        with lazy_entries_spy() as read, caplog.at_level(logging.DEBUG, logger="anticrit.spectral"):
            dec = eigendecompose(op)
            e0, e1, psi = spectral.ground_state(op)
        assert read == []
        assert "route=parity-tridiagonal" in caplog.text and "ground residual=" in caplog.text
        assert (e0, e1) == pytest.approx(tuple(dec.eigenvalues[:2]), abs=1e-12)


class TestGroundState:
    @settings(max_examples=60, deadline=None)
    @given(
        dim=st.integers(3, 60),
        seed=st.integers(0, 10**6),
        band_zero_fraction=st.sampled_from([0.0, 0.3, 1.0]),
    )
    def test_matches_dense(self, dim, seed, band_zero_fraction):
        op = HermitianOperator.parity_banded(*random_bands(dim, seed, band_zero_fraction))
        e0, e1, psi = spectral.ground_state(op)
        m = op.entries
        tol = 128 * np.finfo(float).eps * max(np.linalg.norm(m, 2), 1e-300)
        dense = np.linalg.eigvalsh(m)
        assert abs(e0 - dense[0]) <= tol and abs(e1 - dense[1]) <= tol
        assert psi.dtype == np.float64 and psi.shape == (dim,)
        assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12
        residual = np.linalg.norm(m @ psi - e0 * psi)
        assert residual <= tol
        assert psi[np.abs(psi).argmax()] > 0  # the gauge of eigendecompose
        dec = eigendecompose(op)
        v0 = dec.vectors[:, 0]
        separation = (e1 - e0) - 2 * tol
        if separation > 0:  # Davis-Kahan: each is within residual / separation of the true state
            bound = (residual + np.linalg.norm(m @ v0 - dec.eigenvalues[0] * v0)) / separation
            # project on the unit v0: its norm misses 1 by ulps, a term the angle does not hold
            unit = v0 / np.linalg.norm(v0)
            sin_angle = np.linalg.norm(psi - np.dot(unit, psi) * unit)
            assert sin_angle <= bound + 1e-15

    def test_either_parity_holds_the_ground(self):
        # the smallest diagonal entry sits in the odd block, the ground state in the even one
        op = HermitianOperator.parity_banded([0.0, -1.0, 0.0, 0.0, 0.0], [2.0, 0.0, 2.0])
        e0, e1, psi = spectral.ground_state(op)
        dec = eigendecompose(op)
        assert (e0, e1) == pytest.approx(tuple(dec.eigenvalues[:2]), abs=1e-14)
        assert np.abs(psi - dec.vectors[:, 0]).max() <= 1e-14
        assert np.all(psi[1::2] == 0.0)

    @pytest.mark.parametrize(
        "make", [lambda: HermitianOperator(parity_banded(12, 3, 0.0))], ids=["dense_banded"]
    )
    def test_other_operators_take_the_full_solve(self, make, caplog):
        # banded, but held dense: one block, whose two lowest eigenpairs take one evr call
        op = make()
        with dense_calls() as calls, caplog.at_level(logging.DEBUG, logger="anticrit.spectral"):
            e0, e1, psi = spectral.ground_state(op)
        assert calls == [(12, "evr", True)]
        dec = eigendecompose(op)
        assert (e0, e1) == pytest.approx(tuple(dec.eigenvalues[:2]), abs=1e-12)
        assert np.abs(psi - dec.vectors[:, 0]).max() <= 1e-12
        assert "route=dense blocks=12 ground=0" in caplog.text

    @pytest.mark.parametrize(
        "make",
        [
            lambda: build(ModelSpec(family="tfim", omega=1.0, g=0.7, N=6)).H,
            lambda: build(ModelSpec(family="tfim_transverse", omega=1.0, g=-1.5, N=5)).H,
        ],
        ids=["tfim", "tfim_transverse"],
    )
    def test_block_operators_solve_the_ground_block(self, make, caplog):
        op = make()
        with dense_calls() as calls, lazy_entries_spy() as read, \
                caplog.at_level(logging.DEBUG, logger="anticrit.spectral"):
            e0, e1, psi = spectral.ground_state(op)
        half = op.dim // 2
        # two eigenpairs of the ground block, the lowest level of the other parity block
        assert calls == [(half, "evr", True), (half, "evr", False)] and read == []
        dec = eigendecompose(op)
        assert (e0, e1) == pytest.approx(tuple(dec.eigenvalues[:2]), abs=1e-12)
        assert np.abs(psi - dec.vectors[:, 0]).max() <= 1e-12
        assert f"route=blocks blocks={half}+{half} ground=0" in caplog.text

    def test_debug_line_names_route_blocks_and_gap(self, caplog):
        op = build(ModelSpec.effective("low", x=0.5, n_max=10)).H
        with caplog.at_level(logging.DEBUG, logger="anticrit.spectral"):
            e0, e1, _ = spectral.ground_state(op)
        assert f"route=parity-tridiagonal blocks=6+5 ground=0 gap={e1 - e0:.3e}" in caplog.text

    def test_dimension_guard(self, monkeypatch):
        op = HermitianOperator.parity_banded(*random_bands(4, 0, 0.0))
        monkeypatch.setattr(spectral, "MAX_DIM", 3)
        with pytest.raises(DimensionGuard):
            spectral.ground_state(op)


def block_solves():
    """A spy on the block solve, tridiagonal or dense; each call is recorded as (block size,
    select, vectors), select being "a" for every level or the index range of the lowest few."""
    calls = []
    solve = spectral._solve_block

    def spy(block, count=None, vectors=True):
        size = block[0].size if isinstance(block, tuple) else block.shape[0]
        calls.append((size, "a" if count is None else (0, min(count, size) - 1), vectors))
        return solve(block, count, vectors)

    return mock.patch.object(spectral, "_solve_block", spy), calls


@contextmanager
def dense_calls():
    """The dense LAPACK solves inside the block, as (size, driver, vectors)."""
    calls = []
    eigh = sla.eigh

    def spy(a, *args, **kwargs):
        calls.append((a.shape[0], kwargs.get("driver"), not kwargs.get("eigvals_only", False)))
        return eigh(a, *args, **kwargs)

    with mock.patch.object(sla, "eigh", spy):
        yield calls


class TestTridiagonalKernel:
    """The direct LAPACK calls give scipy's eigh_tridiagonal bits with the explicit driver."""

    @settings(max_examples=300, deadline=None)
    @given(
        dim=st.integers(1, 80),
        seed=st.integers(0, 10**6),
        zero_fraction=st.sampled_from([0.0, 0.3, 1.0]),
        count=st.sampled_from([None, 1, 2, 3, 100]),
        vectors=st.booleans(),
    )
    def test_matches_scipy(self, dim, seed, zero_fraction, count, vectors):
        rng = np.random.default_rng(seed)
        d, e = rng.normal(size=dim), rng.normal(size=dim - 1)
        e[rng.random(dim - 1) < zero_fraction] = 0.0  # split blocks
        got = spectral._eigh_tridiagonal(d, e, count, vectors)
        if count is None:
            ref = sla.eigh_tridiagonal(d, e, eigvals_only=not vectors, lapack_driver="stevd")
        else:
            top = min(count, dim) - 1
            ref = sla.eigh_tridiagonal(
                d, e, eigvals_only=not vectors, select="i", select_range=(0, top), lapack_driver="stebz"
            )
        got, ref = (got, ref) if vectors else ((got,), (ref,))
        assert len(got) == len(ref)
        for a, b in zip(got, ref):
            assert a.shape == b.shape and a.dtype == b.dtype and np.array_equal(a, b)

    def test_strided_blocks_match(self):
        diag, band = random_bands(41, 6, 0.3)
        blocks = spectral._blocks(HermitianOperator.parity_banded(diag, band))[0]
        for parity, (rows, block) in enumerate(blocks):
            d, e = diag[parity::2], band[parity::2]
            assert rows == slice(parity, None, 2)
            vals, vecs = spectral._solve_block(block)
            ref_vals, ref_vecs = sla.eigh_tridiagonal(d, e, lapack_driver="stevd")
            assert np.array_equal(vals, ref_vals) and np.array_equal(vecs, ref_vecs)

    @pytest.mark.parametrize(
        "driver,result,count,error",
        [
            ("_STEVD", (np.zeros(3), np.eye(3), 2), None, np.linalg.LinAlgError),
            ("_STEVD", (np.zeros(3), np.eye(3), -1), None, ValueError),
            ("_STEBZ", (1, np.zeros(3), np.ones(3, dtype=np.int32), np.full(3, 3, dtype=np.int32), 1), 1,
             np.linalg.LinAlgError),
            ("_STEIN", (np.zeros((3, 1)), 1), 1, np.linalg.LinAlgError),
            ("_STEIN", (np.zeros((3, 1)), -3), 1, ValueError),
        ],
        ids=["stevd_unconverged", "stevd_illegal", "stebz_unconverged", "stein_unconverged", "stein_illegal"],
    )
    def test_nonzero_info_raises_scipys_type(self, monkeypatch, driver, result, count, error):
        monkeypatch.setattr(spectral, driver, lambda *args, **kwargs: result)
        with pytest.raises(error):
            spectral._eigh_tridiagonal(np.zeros(3), np.ones(2), count)


class TestGroundSector:
    @settings(max_examples=60, deadline=None)
    @given(
        dim=st.integers(3, 60),
        seed=st.integers(0, 10**6),
        band_zero_fraction=st.sampled_from([0.0, 0.3, 1.0]),
    )
    def test_matches_eigendecompose(self, dim, seed, band_zero_fraction):
        op = HermitianOperator.parity_banded(*random_bands(dim, seed, band_zero_fraction))
        sector = spectral.ground_sector(op)
        m = op.entries
        tol = 128 * np.finfo(float).eps * max(np.linalg.norm(m, 2), 1e-300)
        assert np.abs(sector.levels[:3] - np.linalg.eigvalsh(m)[:3]).max() <= tol
        assert sector.energies[0] == sector.levels[0]
        # the block's eigenpairs are eigendecompose's columns of that parity, bit for bit
        parity = sector.rows.start
        assert sector.rows == slice(parity, None, 2)
        dec = eigendecompose(op)
        columns = np.flatnonzero(~np.any(dec.vectors[1 - parity :: 2], axis=0))
        assert np.array_equal(sector.energies, dec.eigenvalues[columns])
        assert np.array_equal(sector.vectors, dec.vectors[parity::2][:, columns])
        assert np.array_equal(sector.psi0, dec.vectors[:, columns[0]])
        for array in (sector.energies, sector.vectors, sector.psi0, sector.levels):
            assert not array.flags.writeable

    def test_other_block_lower_is_solved_instead(self):
        # the smallest diagonal entry sits in the odd block, the ground state in the even one
        op = HermitianOperator.parity_banded([0.0, -1.0, 0.0, 0.0, 0.0], [2.0, 0.0, 2.0])
        patch, calls = block_solves()
        with patch:
            sector = spectral.ground_sector(op)
        # odd block with vectors, even block's two lowest, then the even block with vectors
        assert calls == [(2, "a", True), (3, (0, 1), False), (3, "a", True)]
        dec = eigendecompose(op)
        assert sector.rows == slice(0, None, 2)
        assert np.array_equal(sector.psi0, dec.vectors[:, 0])
        assert np.array_equal(sector.levels, dec.eigenvalues)  # odd block: 2 levels, both kept

    @settings(max_examples=60, deadline=None)
    @given(
        dim=st.integers(3, 60),
        seed=st.integers(0, 10**6),
        band_zero_fraction=st.sampled_from([0.0, 0.3, 1.0]),
        count=st.sampled_from([3, 4, 100]),
    )
    def test_lowest_levels_match_the_full_block(self, dim, seed, band_zero_fraction, count):
        op = HermitianOperator.parity_banded(*random_bands(dim, seed, band_zero_fraction))
        full, part = spectral.ground_sector(op), spectral.ground_sector(op, count=count)
        size = min(count, full.energies.size)
        assert part.rows == full.rows and part.block == full.block
        assert part.vectors.shape == (full.energies.size, size)
        assert part.complete == (size == full.energies.size) and full.complete
        tol = 128 * np.finfo(float).eps * max(np.linalg.norm(op.entries, 2), 1e-300)
        assert np.abs(part.energies - full.energies[:size]).max() <= tol
        assert np.abs(part.levels[:3] - full.levels[:3]).max() <= tol
        # each vector is the full block's up to rounding, where its level is apart from the others
        gaps = np.diff(full.energies)
        apart = np.minimum(np.append(gaps, np.inf), np.insert(gaps, 0, np.inf))[:size] > 1e-3
        assert np.abs(np.abs(part.vectors.T @ full.vectors[:, :size]).diagonal() - 1.0)[apart].max(
            initial=0.0
        ) <= 1e-8

    @pytest.mark.parametrize("count", [0, 1, 2])
    def test_fewer_than_three_levels_refused(self, count):
        op = HermitianOperator.parity_banded(*random_bands(9, 0, 0.0))
        with pytest.raises(ValueError, match=f"3 lowest levels, got count={count}"):
            spectral.ground_sector(op, count=count)

    def test_lowest_levels_of_a_dense_block(self):
        # a dense block gives its lowest levels by one evr call
        op = build(ModelSpec(family="tfim", omega=1.0, g=0.7, N=4)).H
        with dense_calls() as calls:
            part = spectral.ground_sector(op, count=3)
        assert calls == [(8, "evr", True), (8, "evr", False)]
        full = spectral.ground_sector(op)
        assert np.abs(part.energies - full.energies[:3]).max() <= 1e-12
        assert abs(abs(part.psi0 @ full.psi0) - 1.0) <= 1e-12 and not part.complete

    @pytest.mark.parametrize("spec", [
        ModelSpec.effective("high", x=4.0, n_max=40),
        ModelSpec(family="lmg", omega=1.0, g=0.7, N=40),
        ModelSpec.rabi(1.0, 50.0, 0.3, n_max=30),
        ModelSpec(family="tfim", omega=1.0, g=0.7, N=4),
    ], ids=["effective_high", "lmg", "rabi_full", "tfim"])
    def test_one_vector_solve_on_model_hamiltonians(self, spec):
        op = build(spec).H
        patch, calls = block_solves()
        with patch, lazy_entries_spy() as read:
            sector = spectral.ground_sector(op)
        assert [call for call in calls if call[1] == "a"] == [((op.dim + 1) // 2, "a", True)]
        assert [call for call in calls if call[1] != "a"] == [(op.dim // 2, (0, 1), False)]
        assert read == []
        dec = eigendecompose(op)
        assert np.array_equal(sector.psi0, dec.vectors[:, 0])
        assert np.abs(sector.levels[:3] - dec.eigenvalues[:3]).max() <= 1e-12

    @pytest.mark.parametrize(
        "make", [lambda: HermitianOperator(parity_banded(12, 3, 0.0))], ids=["dense_banded"]
    )
    def test_other_operators_are_one_block(self, make):
        # a dense H is one block, solved as eigendecompose solves it: one evd call
        op = make()
        with dense_calls() as calls:
            sector = spectral.ground_sector(op, basis="b")
        assert calls == [(12, "evd", True)]
        dec = eigendecompose(op)
        assert np.array_equal(sector.energies, dec.eigenvalues) and np.array_equal(sector.levels, dec.eigenvalues)
        assert np.array_equal(sector.vectors, dec.vectors) and np.array_equal(sector.psi0, dec.vectors[:, 0])
        assert sector.rows == slice(None) and sector.block == 0 and sector.basis == "b"

    def test_whole_shares_the_arrays(self):
        dec = eigendecompose(random_hermitian(6, 2))
        sector = GroundSector.whole(dec)
        assert sector.energies is dec.eigenvalues and sector.vectors is dec.vectors
        assert np.array_equal(sector.state.amplitudes, dec.vectors[:, 0])
        assert energy_gap(sector) == energy_gap(dec)

    def test_debug_line_names_route_blocks_parity_and_gap(self, caplog):
        op = build(ModelSpec.effective("low", x=0.5, n_max=10)).H
        with caplog.at_level(logging.DEBUG, logger="anticrit.spectral"):
            sector = spectral.ground_sector(op)
        gap = sector.levels[1] - sector.levels[0]
        assert f"ground_sector dim=11 route=parity-tridiagonal blocks=6+5 ground=0 gap={gap:.3e}" in caplog.text

    def test_dimension_guard(self, monkeypatch):
        op = HermitianOperator.parity_banded(*random_bands(4, 0, 0.0))
        monkeypatch.setattr(spectral, "MAX_DIM", 3)
        with pytest.raises(DimensionGuard):
            spectral.ground_sector(op)


class TestDiagonalOperator:
    def test_held_as_bands(self):
        op = HermitianOperator.from_diagonal([3, -1, 2, 0])
        assert all(isinstance(block, tuple) and not np.any(block[1]) for _, block in op.blocks)
        assert np.array_equal(op.diagonal, [3.0, -1.0, 2.0, 0.0]) and op.diagonal.dtype == np.float64
        assert np.array_equal(op.entries, np.diag([3.0, -1.0, 2.0, 0.0]))

    def test_too_small_rejected(self):
        with pytest.raises(DimensionGuard):
            HermitianOperator.from_diagonal([1.0, 2.0])

    @pytest.mark.parametrize(
        "spec",
        [
            ModelSpec.rabi(1.0, 50.0, 0.3, n_max=8),
            ModelSpec.effective("low", x=0.5, n_max=8),
            ModelSpec(family="lmg", omega=1.0, g=0.5, N=8),
            ModelSpec(family="tfim", omega=1.0, g=0.5, N=4),
        ],
        ids=lambda spec: spec.family,
    )
    def test_d_omega_h_is_diagonal_and_never_dense(self, spec):
        with lazy_entries_spy() as read:
            inst = build(spec)
            state = QuantumState(np.ones(inst.H.dim) / math.sqrt(inst.H.dim), inst.basis)
            mean, var = expectation(inst.dH_domega, state), variance(inst.dH_domega, state)
        assert read == []
        dense = np.diag(inst.dH_domega.diagonal)
        assert np.array_equal(inst.dH_domega.entries, dense)
        assert mean == pytest.approx(np.vdot(state.amplitudes, dense @ state.amplitudes), abs=1e-12)
        assert var == pytest.approx(variance(HermitianOperator(dense), state), abs=1e-12)

    def test_image_bit_identical_to_dense_matvec(self):
        # only exact zeros drop out of each sum, so d * v0 is D @ v0 bit for bit
        inst = build(ModelSpec.effective("low", x=0.7))
        v0 = eigendecompose(inst.H).vectors[:, 0]
        assert np.array_equal(inst.dH_domega.diagonal * v0, inst.dH_domega.entries @ v0)


def tridiagonal_dense(d, e):
    return np.diag(d) + np.diag(e, 1) + np.diag(e, -1)


class TestBlockLevels:
    @settings(max_examples=80, deadline=None)
    @given(
        dim=st.integers(1, 40),
        seed=st.integers(0, 10**6),
        zero_fraction=st.sampled_from([0.0, 0.3, 1.0]),
        energy=st.one_of(st.just(0.0), st.floats(-3.0, 3.0)),
        ties=st.integers(0, 2),
    )
    def test_levels_below_match_eigvalsh(self, dim, seed, zero_fraction, energy, ties):
        # `ties` levels equal to the energy exactly, as 1 x 1 blocks split off by zero
        # couplings, are not below it, also at an energy of 0
        rng = np.random.default_rng(seed)
        d, e = rng.normal(size=dim), rng.normal(size=dim - 1)
        e[rng.random(dim - 1) < zero_fraction] = 0.0
        w = np.linalg.eigvalsh(tridiagonal_dense(d, e))
        assume(np.all(np.abs(w - energy) > 1e-9 * (1.0 + np.abs(w).max())))
        expected = int(np.count_nonzero(w < energy))
        tied = np.append(d, [energy] * ties), np.append(e, [0.0] * ties)
        assert spectral._levels_below(tied, energy) == expected
        assert spectral._levels_below(tridiagonal_dense(d, e), energy) == expected

    @settings(max_examples=60, deadline=None)
    @given(
        dim=st.integers(3, 60),
        seed=st.integers(0, 10**6),
        band_zero_fraction=st.sampled_from([0.0, 0.3, 1.0]),
        count=st.sampled_from([3, None]),
    )
    def test_ground_block_as_ground_sector_solves_it(self, dim, seed, band_zero_fraction, count):
        op = HermitianOperator.parity_banded(*random_bands(dim, seed, band_zero_fraction))
        sector = spectral.ground_sector(op, count=count)
        vals, vecs, below = spectral.block_levels(op, sector.block, count)
        assert np.array_equal(vals, sector.energies) and np.array_equal(vecs, sector.vectors)
        assert below == 0
        # the other block counts the ground block's levels below its own lowest
        other = 1 - sector.block
        ground_levels = np.linalg.eigvalsh(op.entries[sector.rows, sector.rows])
        vals, _, below = spectral.block_levels(op, other, count)
        assume(np.all(np.abs(ground_levels - vals[0]) > 1e-9 * (1.0 + np.abs(ground_levels).max())))
        assert below == np.count_nonzero(ground_levels < vals[0]) >= 1

    def test_dense_blocks(self):
        op = build(ModelSpec(family="tfim", omega=1.0, g=0.7, N=4)).H
        sector = spectral.ground_sector(op)
        with dense_calls() as calls:
            vals, vecs, below = spectral.block_levels(op, sector.block)
        assert calls == [(8, "evd", True), (8, "evr", False)] and below == 0
        assert np.array_equal(vals, sector.energies) and np.array_equal(vecs, sector.vectors)
        vals, _, below = spectral.block_levels(op, 1 - sector.block)
        assert below == np.count_nonzero(sector.energies < vals[0]) >= 1


def block_diagonal(sizes, singles, seed, complex_, repeat):
    """Random Hermitian block operator whose blocks sit on randomly permuted rows.

    Each block of `sizes` is dense; `singles` indices couple to nothing and
    are 1 x 1 blocks. With `repeat`, the last block copies the first, so the
    two share every eigenvalue.
    """
    rng = np.random.default_rng(seed)
    blocks = []
    for size in sizes:
        b = rng.normal(size=(size, size))
        if complex_:
            b = b + 1j * rng.normal(size=(size, size))
        blocks.append((b + b.conj().T) / 2)
    if repeat:
        blocks[-1] = blocks[0]
    blocks += [np.array([[value]]) for value in rng.normal(size=singles)]
    # block k holds rows k of the unpermuted matrix; its rows after the permutation
    offsets = np.cumsum([0] + [b.shape[0] for b in blocks])
    where = np.argsort(rng.permutation(offsets[-1]))
    rows = [where[start:stop] for start, stop in zip(offsets[:-1], offsets[1:])]
    return HermitianOperator.block_diagonal(rows, blocks)


def golden_bounds(family, N, g, gap, q):
    """The golden contract's bounds on the cells of one chain row with these values."""
    meta = json.loads((Path(__file__).parent / "golden" / f"{family}.meta.json").read_text())
    row = {"g_over_gc": repr(g), "gap01": repr(gap), "qfi_spectral": repr(q)}
    return _eigensolver_bounds(family, {**meta, "N": N}, row)


class TestBlockRoute:
    @settings(max_examples=40, deadline=None)
    @given(
        sizes=st.lists(st.integers(3, 12), min_size=2, max_size=4),
        singles=st.integers(0, 3),
        seed=st.integers(0, 10**6),
        complex_=st.booleans(),
        repeat=st.booleans(),
    )
    def test_matches_dense(self, sizes, singles, seed, complex_, repeat):
        # blocks of three or more indices cannot all sit on diagonals 0 and +/-2
        op = block_diagonal(sizes, singles, seed, complex_, repeat)
        dec, routes = solve_counting_routes(op)
        assert routes == (len(sizes) + singles, 0)  # one dense call per block, singles included
        tol = assert_valid_decomposition(op, dec)
        assert np.abs(dec.eigenvalues - np.linalg.eigvalsh(op.entries)).max() <= tol

    def test_all_singles(self):
        values = [2.0, -1.0, 2.0, 0.5]
        op = HermitianOperator.block_diagonal([[k] for k in range(4)], [[[complex(v)]] for v in values])
        dec, routes = solve_counting_routes(op)
        assert routes == (4, 0)  # one 1 x 1 block each
        assert_valid_decomposition(op, dec)
        assert np.array_equal(dec.eigenvalues, [-1.0, 0.5, 2.0, 2.0])

    @pytest.mark.parametrize("family", ["tfim", "tfim_transverse"])
    @pytest.mark.parametrize(
        "N,g",
        [(N, g) for N in (4, 5, 6, 8) for g in (-2.9, -1.0, -0.5, 0.5, 1.0, 2.9)]
        + [(10, -1.0), (10, 0.5)],
    )
    def test_chains_match_single_dense_call(self, family, N, g):
        inst = build(ModelSpec(family=family, omega=1.0, g=g, N=N))
        dec, routes = solve_counting_routes(inst.H)
        assert routes == (2, 0)  # the two parities of prod sigma_z
        vals, vecs = sla.eigh(inst.H.entries, driver="evd")
        dense = spectral.SpectralDecomposition(
            vals, spectral._fix_phases(spectral._orthonormalize_clusters(vals, vecs))
        )
        gap, q = energy_gap(dense), qfi_spectral_sum(inst, dense).value
        bounds = golden_bounds(family, N, g, gap, q)
        assert abs(energy_gap(dec) - gap) <= bounds["gap01"]
        assert abs(qfi_spectral_sum(inst, dec).value - q) <= bounds["qfi_spectral"]
        # the ground block alone: psi_0 from the same evd call on the same block
        sector = spectral.ground_sector(inst.H)
        assert np.array_equal(sector.psi0, dec.vectors[:, 0])
        assert np.abs(sector.levels[:3] - vals[:3]).max() <= bounds["gap01"]
        assert abs(energy_gap(sector) - gap) <= bounds["gap01"]
        assert abs(qfi_spectral_sum(inst, sector).value - q) <= bounds["qfi_spectral"]

    def test_debug_line_names_route_and_blocks(self, caplog):
        op = build(ModelSpec(family="tfim", omega=1.0, g=0.5, N=4)).H
        with caplog.at_level(logging.DEBUG, logger="anticrit.spectral"):
            eigendecompose(op)
        assert "route=blocks blocks=8+8 " in caplog.text


def dense_chain_hamiltonian(family, N, g):
    """The chain H written into one dense 2^N x 2^N matrix, entry by entry from the bit
    table: the diagonal, then -g on each bond flip (omega = 1)."""
    states, signs = chain_bits(ChainBasis(N))
    bonds = [(i, (i + 1) % N) for i in range(N)]
    H = np.zeros((2**N, 2**N))
    diag = 1.0 * signs.sum(axis=1)
    if family == "tfim_transverse":
        diag = diag + g * sum(signs[:, i] * signs[:, j] for i, j in bonds)
    np.fill_diagonal(H, diag)
    for i, j in bonds:
        H[states ^ ((1 << i) | (1 << j)), states] = 0.0 - g
    return H


class TestBlockDiagonalOperator:
    def test_entries_built_once_read_only(self):
        op = block_diagonal([3, 4], 2, 5, True, False)
        m = op.entries
        assert op.entries is m and not m.flags.writeable
        assert (op.dim, op.dtype) == (9, np.complex128)
        assert np.array_equal(op.diagonal, np.diagonal(m))
        for rows, block in op.blocks:
            assert np.array_equal(m[np.ix_(rows, rows)], block)
            assert not rows.flags.writeable and not block.flags.writeable

    def test_caller_arrays_copied(self):
        rows, block = [np.array([1, 0])], np.array([[1.0, 2.0], [2.0, 1.0]])
        op = HermitianOperator.block_diagonal(rows, [block])
        rows[0][0], block[0, 0] = 0, 7.0
        assert list(op.blocks[0][0]) == [1, 0] and op.blocks[0][1][0, 0] == 1.0

    @pytest.mark.parametrize(
        "rows",
        [[[0, 1], [1, 2]], [[0, 1], [3, 4]], [[0, 1], [-1, 2]], [[0, 1]], []],
        ids=["overlap", "gap", "negative", "blocks_without_rows", "empty"],
    )
    def test_rows_not_a_partition_rejected(self, rows):
        blocks = [np.eye(2), np.eye(2)]
        with pytest.raises(DimensionGuard):
            HermitianOperator.block_diagonal(rows, blocks)

    @pytest.mark.parametrize("block", [np.eye(3), np.ones((2, 3)), np.ones(2)], ids=["rows", "not_square", "1d"])
    def test_size_mismatch_rejected(self, block):
        with pytest.raises(DimensionGuard):
            HermitianOperator.block_diagonal([[0], [1, 2]], [[[1.0]], block])

    def test_non_hermitian_block_rejected(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(HermiticityViolation) as dense:
            HermitianOperator(bad)
        with pytest.raises(HermiticityViolation) as blocks:
            HermitianOperator.block_diagonal([[0], [2, 1]], [[[1.0]], bad])
        assert str(blocks.value) == str(dense.value)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_block_rejected(self, value):
        with pytest.raises(ValueError, match="^array must not contain infs or NaNs$"):
            HermitianOperator.block_diagonal([[1], [0, 2]], [[[1.0]], [[1.0, value], [5.0, 1.0]]])

    @pytest.mark.parametrize("g", [0.0, -0.0, 0.7, -2.9], ids=repr)
    @pytest.mark.parametrize("family", ["tfim", "tfim_transverse"])
    def test_chain_entries_match_the_dense_build(self, family, g):
        for N in range(3, 11):
            H = build(ModelSpec(family=family, omega=1.0, g=g, N=N)).H
            digest = hashlib.sha256(H.entries.tobytes()).hexdigest()
            assert digest == hashlib.sha256(dense_chain_hamiltonian(family, N, g).tobytes()).hexdigest()
            assert [rows.size for rows, _ in H.blocks] == [2 ** (N - 1)] * 2
            assert H.blocks[0][0][0] == 0 and all(np.all(np.diff(rows) > 0) for rows, _ in H.blocks)

    def test_chain_build_allocates_no_full_matrix(self):
        build(ModelSpec(family="tfim", omega=1.0, g=0.7, N=10))  # the cached bit tables
        tracemalloc.start()
        try:
            build(ModelSpec(family="tfim", omega=1.0, g=0.3, N=10))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1024 * 1024 * 8  # one dense float64 1024 x 1024 matrix


ONE_OF_EACH = {
    "dense": lambda: random_hermitian(7, 11),
    "parity_banded": lambda: HermitianOperator.parity_banded(*random_bands(9, 12, 0.3)),
    "from_diagonal": lambda: HermitianOperator.from_diagonal([2.0, -1.0, 0.5, -0.0, 3.0]),
    "block_diagonal": lambda: block_diagonal([3, 4], 2, 13, True, False),
}


class TestOneRepresentation:
    """Every constructor holds its operator as (rows, block) pairs, and reads them alone."""

    @pytest.mark.parametrize("make", ONE_OF_EACH.values(), ids=ONE_OF_EACH.keys())
    def test_diagonal_is_stored_and_builds_no_entries(self, make):
        with lazy_entries_spy() as read:
            op = make()
            diagonal = op.diagonal
            assert op._entries is None or op._entries is op.blocks[0][1]  # only a given matrix
        assert read == [] and not diagonal.flags.writeable
        with pytest.raises(ValueError):
            diagonal[0] = 1.0
        dense = np.diagonal(op.entries)
        assert diagonal.dtype == dense.dtype and diagonal.tobytes() == dense.tobytes()

    @pytest.mark.parametrize("make", ONE_OF_EACH.values(), ids=ONE_OF_EACH.keys())
    @pytest.mark.parametrize("seed", range(5))
    def test_expectation_and_variance_match_the_dense_product(self, make, seed):
        op = make()
        rng = np.random.default_rng(seed)
        amps = rng.normal(size=op.dim) + (1j * rng.normal(size=op.dim) if seed % 2 else 0.0)
        state = QuantumState(amps / np.linalg.norm(amps), "b")
        with lazy_entries_spy() as read:
            mean, var = expectation(op, state), variance(op, state)
        assert read == []
        m, psi = op.entries, state.amplitudes
        image = m @ psi
        residual = image - np.vdot(psi, image).real * psi
        norm = np.linalg.norm(m, 2)
        assert abs(mean - np.vdot(psi, image).real) <= 4 * np.finfo(float).eps * norm
        assert abs(var - np.vdot(residual, residual).real) <= 4 * np.finfo(float).eps * norm

    @pytest.mark.parametrize(
        "make,first,ground",
        [
            # an exact tie between blocks: the lower-index block, so psi_0 = e_2 rather than e_1
            (lambda: HermitianOperator.from_diagonal([1, 0, 0]), 0, 2),
            (lambda: HermitianOperator.from_diagonal([0, -1, 0, 2]), 1, 1),
            (lambda: HermitianOperator.block_diagonal([[1, 3], [0], [2]], [np.eye(2), [[-1.0]], [[-1.0]]]), 1, 0),
            (lambda: HermitianOperator(np.diag([3.0, 1.0, 2.0])), 0, 1),
        ],
        ids=["tie", "odd", "block_tie", "dense"],
    )
    def test_first_block_rule(self, make, first, ground):
        # the lowest-index block with the smallest diagonal minimum is tried first
        op = make()
        assert spectral._blocks(op)[1] == first
        e0, e1, psi = spectral.ground_state(op)
        assert np.array_equal(psi, np.eye(op.dim)[ground]) and e0 == op.diagonal[ground]
        assert spectral.ground_sector(op).block == first


class TestEnergyGap:
    @pytest.mark.parametrize("N", [2, 10, 50])
    def test_lmg_free(self, N):
        dec = eigendecompose(build(ModelSpec(family="lmg", omega=1.0, g=0.0, N=N)).H)
        assert energy_gap(dec) == pytest.approx(1.0, abs=1e-12)

    def test_tfim_free(self):
        dec = eigendecompose(build(ModelSpec(family="tfim", omega=1.0, g=0.0, N=10)).H)
        assert energy_gap(dec) == pytest.approx(2.0, abs=1e-10)

    def test_effective_low(self):
        from anticrit import models

        spec = ModelSpec.effective("low", x=0.75)
        _, dec = models.diagonalize_converged(spec)
        assert energy_gap(dec) == pytest.approx(0.5, abs=1e-10)

    def test_shift_invariance(self):
        op = random_hermitian(8, 7)
        shifted = HermitianOperator(op.entries + 3.25 * np.eye(8))
        g0 = energy_gap(eigendecompose(op))
        g1 = energy_gap(eigendecompose(shifted))
        assert abs(g0 - g1) <= 1e-12

    def test_dim_guard(self):
        dec = eigendecompose(HermitianOperator(np.array([[2.0]])))
        with pytest.raises(DimensionGuard):
            energy_gap(dec)


class TestStateUtilities:
    def test_number_on_vacuum(self):
        space = FockSpace(10)
        vac = QuantumState(np.eye(space.dim)[0], space.basis_label)
        assert expectation(number_operator(space), vac) == 0.0

    def test_sz_on_pole_state(self):
        from anticrit.spin import DickeBasis

        basis = DickeBasis(10)
        sz = HermitianOperator(dicke_matrices(10)[2])
        pole = QuantumState(np.eye(basis.dim)[0], basis.basis_label)
        assert expectation(sz, pole) == pytest.approx(-5.0, abs=1e-12)

    def test_number_on_squeezed(self):
        space = FockSpace(80)
        st_ = squeeze_vacuum(XI_075, space)
        nbar = expectation(number_operator(space), st_)
        assert nbar == pytest.approx(math.sinh(XI_075) ** 2, abs=1e-10)
        assert nbar == pytest.approx(0.125, abs=1e-10)

    def test_variance_eigenvector(self):
        op = random_hermitian(6, 3)
        dec = eigendecompose(op)
        assert variance(op, dec.eigenvector(2)) == pytest.approx(0.0, abs=1e-10)

    def test_variance_number_squeezed(self):
        space = FockSpace(80)
        st_ = squeeze_vacuum(XI_075, space)
        assert variance(number_operator(space), st_) == pytest.approx(0.28125, abs=1e-8)

    def test_variance_sx_pole(self):
        from anticrit.spin import DickeBasis

        basis = DickeBasis(10)
        sx = HermitianOperator(dicke_matrices(10)[0])
        pole = QuantumState(np.eye(basis.dim)[0], basis.basis_label)
        assert variance(sx, pole) == pytest.approx(2.5, abs=1e-10)

    @pytest.mark.parametrize("beta", [3.5e-3, 1e-3, 1e-4])
    def test_variance_small_against_large_mean(self, beta):
        # <Sz^2> ~ 1e4 against Var = 4 beta^2 (1 - beta^2): the difference
        # <A^2> - <A>^2 loses up to 1e-5 relative here
        from anticrit.spin import DickeBasis

        basis = DickeBasis(200)
        sz = HermitianOperator(dicke_matrices(200)[2])
        amps = np.zeros(basis.dim)
        amps[0] = math.sqrt(1.0 - beta**2)
        amps[2] = beta
        state = QuantumState(amps, basis.basis_label)
        exact = 4.0 * beta**2 * (1.0 - beta**2)
        assert abs(variance(sz, state) - exact) / exact <= 1e-12

    def test_dim_mismatch(self):
        space = FockSpace(4)
        vac = QuantumState(np.eye(space.dim)[0], space.basis_label)
        with pytest.raises(DimensionGuard):
            expectation(number_operator(FockSpace(6)), vac)
        with pytest.raises(DimensionGuard):
            variance(number_operator(FockSpace(6)), vac)

    def test_overlap_identity_and_orthogonal(self):
        space = FockSpace(4)
        e0 = QuantumState(np.eye(space.dim)[0], space.basis_label)
        e1 = QuantumState(np.eye(space.dim)[1], space.basis_label)
        assert overlap(e0, e0) == pytest.approx(1.0)
        assert overlap(e0, e1) == pytest.approx(0.0)

    def test_overlap_vacuum_squeezed(self):
        space = FockSpace(80)
        vac = QuantumState(np.eye(space.dim)[0], space.basis_label)
        st_ = squeeze_vacuum(XI_075, space)
        expected = 1.0 / math.sqrt(math.cosh(XI_075))
        assert abs(overlap(vac, st_)) == pytest.approx(expected, abs=1e-10)

    def test_overlap_basis_guard(self):
        a = QuantumState([1.0, 0.0], "fock(1)")
        b = QuantumState([1.0, 0.0], "dicke(1)")
        with pytest.raises(BasisGuard):
            overlap(a, b)
