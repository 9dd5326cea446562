import numpy as np
import pytest

from anticrit.errors import IndexGuard
from anticrit.spin import (
    ChainBasis,
    DickeBasis,
    collective_spin_ops,
    site_pauli,
    total_spin_ops,
)


class TestDicke:
    def test_sz_n2(self):
        _, _, sz = collective_spin_ops(DickeBasis(2))
        assert np.allclose(sz.entries, np.diag([-1.0, 0.0, 1.0]))

    @pytest.mark.parametrize("N", [2, 5, 20])
    def test_su2_algebra(self, N):
        sx, sy, sz = collective_spin_ops(DickeBasis(N))
        comm = sx.entries @ sy.entries - sy.entries @ sx.entries
        assert np.abs(comm - 1j * sz.entries).max() <= 1e-12

    @pytest.mark.parametrize("N", [2, 7, 30])
    def test_casimir(self, N):
        sx, sy, sz = collective_spin_ops(DickeBasis(N))
        total = sx.entries @ sx.entries + sy.entries @ sy.entries + sz.entries @ sz.entries
        S = N / 2
        assert np.abs(total - S * (S + 1) * np.eye(N + 1)).max() <= 1e-10

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            DickeBasis(1)


class TestChain:
    def test_bounds(self):
        with pytest.raises(ValueError):
            ChainBasis(2)
        with pytest.raises(ValueError):
            ChainBasis(15)

    def test_sz_all_down(self):
        basis = ChainBasis(4)
        sz1 = site_pauli(basis, 1, "z")
        all_down = np.zeros(basis.dim)
        all_down[0] = 1.0
        assert (sz1.entries @ all_down)[0].real == pytest.approx(-1.0)

    def test_sz_diagonal_bit_convention(self):
        basis = ChainBasis(3)
        for site in (1, 2, 3):
            diag = np.diag(site_pauli(basis, site, "z").entries).real
            bits = (np.arange(basis.dim) >> (site - 1)) & 1
            assert np.allclose(diag, 2 * bits - 1)

    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    def test_involution(self, axis):
        basis = ChainBasis(5)
        op = site_pauli(basis, 3, axis).entries
        assert np.abs(op @ op - np.eye(basis.dim)).max() <= 1e-14

    def test_disjoint_sites_commute(self):
        basis = ChainBasis(4)
        for ax_a in "xyz":
            for ax_b in "xyz":
                a = site_pauli(basis, 1, ax_a).entries
                b = site_pauli(basis, 3, ax_b).entries
                assert np.abs(a @ b - b @ a).max() <= 1e-14

    def test_index_guard(self):
        basis = ChainBasis(4)
        with pytest.raises(IndexGuard):
            site_pauli(basis, 0, "x")
        with pytest.raises(IndexGuard):
            site_pauli(basis, 5, "x")

    def test_products_hermitian(self):
        basis = ChainBasis(4)
        a = site_pauli(basis, 1, "x").entries
        b = site_pauli(basis, 2, "x").entries
        prod = a @ b
        assert np.abs(prod - prod.conj().T).max() <= 1e-12

    def test_total_spin_su2(self):
        sx, sy, sz = total_spin_ops(ChainBasis(5))
        comm = sx.entries @ sy.entries - sy.entries @ sx.entries
        assert np.abs(comm - 1j * sz.entries).max() <= 1e-12

    @pytest.mark.parametrize("N", [3, 4, 5, 6])
    def test_total_spin_matches_site_paulis(self, N):
        basis = ChainBasis(N)
        for axis, op in zip("xyz", total_spin_ops(basis)):
            reference = sum(site_pauli(basis, i, axis).entries for i in range(1, N + 1)) / 2
            assert np.array_equal(op.entries, reference), axis
