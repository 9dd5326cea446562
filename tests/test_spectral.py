import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anticrit.errors import (
    BasisGuard,
    DimensionGuard,
    HermiticityViolation,
)
from anticrit.fock import FockSpace, number_operator, squeeze_vacuum
from anticrit.models import ModelSpec, build
from anticrit.spectral import (
    HermitianOperator,
    QuantumState,
    eigendecompose,
    energy_gap,
    expectation,
    overlap,
    variance,
)

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

    def test_dimension_guard(self):
        op = random_hermitian(4, 0)
        with pytest.raises(DimensionGuard):
            eigendecompose(op, max_dim=3)

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
        from anticrit.spin import DickeBasis, collective_spin_ops

        basis = DickeBasis(10)
        _, _, sz = collective_spin_ops(basis)
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
        from anticrit.spin import DickeBasis, collective_spin_ops

        basis = DickeBasis(10)
        sx, _, _ = collective_spin_ops(basis)
        pole = QuantumState(np.eye(basis.dim)[0], basis.basis_label)
        assert variance(sx, pole) == pytest.approx(2.5, abs=1e-10)

    @pytest.mark.parametrize("beta", [3.5e-3, 1e-3, 1e-4])
    def test_variance_small_against_large_mean(self, beta):
        # <Sz^2> ~ 1e4 against Var = 4 beta^2 (1 - beta^2): the difference
        # <A^2> - <A>^2 loses up to 1e-5 relative here
        from anticrit.spin import DickeBasis, collective_spin_ops

        basis = DickeBasis(200)
        _, _, sz = collective_spin_ops(basis)
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
