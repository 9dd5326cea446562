import numpy as np
import pytest

from anticrit import models
from anticrit.spectral import HermitianOperator, expectation, variance
from anticrit.spin import ChainBasis, DickeBasis, apply_collective_spin, apply_total_spin
from anticrit.sweep import SweepConfig, _spin_row
from oracles import site_pauli

EPS = np.finfo(float).eps


def total_spin_matrices(basis):
    """(S_x, S_y, S_z) as matrices, column s being apply_total_spin on basis vector s."""
    columns = [apply_total_spin(basis, e) for e in np.eye(basis.dim)]
    return tuple(np.column_stack([c[k] for c in columns]) for k in range(3))


def collective_spin_matrices(basis):
    """(S_x, S_y, S_z) as matrices, column k being apply_collective_spin on basis vector k."""
    columns = [apply_collective_spin(basis, e) for e in np.eye(basis.dim)]
    return tuple(np.column_stack([c[k] for c in columns]) for k in range(3))


def dicke_matrices(N):
    """(S_x, S_y, S_z) from the textbook ladder S_+|m> = sqrt((S-m)(S+m+1)) |m+1>, built here."""
    S = N / 2
    m = np.arange(N + 1) - S
    sp = np.diag(np.sqrt((S - m[:-1]) * (S + m[:-1] + 1)), k=-1)
    return (sp + sp.T) / 2, (sp - sp.T) / 2j, np.diag(m)


class TestDicke:
    def test_sz_n2(self):
        _, _, sz = collective_spin_matrices(DickeBasis(2))
        assert np.allclose(sz, np.diag([-1.0, 0.0, 1.0]))

    @pytest.mark.parametrize("N", [2, 5, 20])
    def test_su2_algebra(self, N):
        sx, sy, sz = collective_spin_matrices(DickeBasis(N))
        comm = sx @ sy - sy @ sx
        assert np.abs(comm - 1j * sz).max() <= 1e-12

    @pytest.mark.parametrize("N", [2, 7, 30])
    def test_casimir(self, N):
        sx, sy, sz = collective_spin_matrices(DickeBasis(N))
        total = sx @ sx + sy @ sy + sz @ sz
        S = N / 2
        assert np.abs(total - S * (S + 1) * np.eye(N + 1)).max() <= 1e-10

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            DickeBasis(1)


class TestDickeLadder:
    """apply_collective_spin shifts amplitudes along the ladder band; no matrix is built."""

    @pytest.mark.parametrize("N", [2, 3, 40, 200])
    def test_matches_closed_form_ladder(self, N):
        S = N / 2
        for axis, op, ref in zip("xyz", collective_spin_matrices(DickeBasis(N)), dicke_matrices(N)):
            assert np.abs(op - ref).max() <= 4 * EPS * S, axis

    @pytest.mark.parametrize("N", [2, 3, 40, 200])
    def test_su2_algebra_and_casimir(self, N):
        sx, sy, sz = collective_spin_matrices(DickeBasis(N))
        S = N / 2
        bound = 4 * EPS * S * (S + 1)  # 4 eps |S|^2
        assert np.abs(sx @ sy - sy @ sx - 1j * sz).max() <= bound
        casimir = sx @ sx + sy @ sy + sz @ sz
        assert np.abs(casimir - S * (S + 1) * np.eye(N + 1)).max() <= bound

    def test_complex_state(self):
        basis = DickeBasis(6)
        rng = np.random.default_rng(3)
        psi = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
        for image, ref in zip(apply_collective_spin(basis, psi), dicke_matrices(6)):
            assert np.abs(image - ref @ psi).max() <= 1e-13

    @pytest.mark.parametrize("g_over_gc", [0.3, 0.95])
    def test_sweep_row_moments_match_dense(self, g_over_gc):
        N = 200
        row = _spin_row(SweepConfig(family="lmg", grid=(g_over_gc,)), g_over_gc)
        assert row["status"] == "ok"
        _, dec = models.diagonalize_converged(
            models.ModelSpec(family="lmg", omega=1.0, g=g_over_gc, N=N)
        )
        ground = dec.eigenvector(0)
        sx, sy, sz = (HermitianOperator(a) for a in dicke_matrices(N))
        assert row["mean_sz"] == pytest.approx(expectation(sz, ground), rel=1e-12, abs=1e-12)
        for name, op in (("var_sx", sx), ("var_sy", sy), ("var_sz", sz)):
            assert row[name] == pytest.approx(variance(op, ground), rel=1e-12, abs=1e-12), name


class TestChain:
    def test_bounds(self):
        with pytest.raises(ValueError):
            ChainBasis(2)
        with pytest.raises(ValueError):
            ChainBasis(13)
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

    def test_products_hermitian(self):
        basis = ChainBasis(4)
        a = site_pauli(basis, 1, "x").entries
        b = site_pauli(basis, 2, "x").entries
        prod = a @ b
        assert np.abs(prod - prod.conj().T).max() <= 1e-12

    def test_total_spin_su2(self):
        sx, sy, sz = total_spin_matrices(ChainBasis(5))
        comm = sx @ sy - sy @ sx
        assert np.abs(comm - 1j * sz).max() <= 1e-12

    @pytest.mark.parametrize("N", [3, 4, 5, 6])
    def test_total_spin_matches_site_paulis(self, N):
        basis = ChainBasis(N)
        for axis, op in zip("xyz", total_spin_matrices(basis)):
            reference = sum(site_pauli(basis, i, axis).entries for i in range(1, N + 1)) / 2
            assert np.array_equal(op, reference), axis
