import math
from unittest import mock

import numpy as np
import pytest

from anticrit import fock, models, sweep
from anticrit.errors import CriticalPointGuard
from anticrit.fock import Sector
from anticrit.models import (
    ModelSpec,
    build,
    characteristic_time,
    diagonalize_converged,
    effective_frequency,
    frequency_derivative_factor,
)
from anticrit.spectral import expectation
from oracles import annihilation, site_pauli
from test_spin import dicke_matrices  # Dicke S_x, S_y, S_z from an independent ladder


def all_test_specs():
    return [
        ModelSpec.rabi(1.0, 50.0, 0.3, n_max=60),
        ModelSpec.effective("low", x=0.5, n_max=120),
        ModelSpec.effective("high", x=2.0, n_max=120),
        ModelSpec(family="lmg", omega=1.0, g=0.6, N=40),
        ModelSpec(family="tfim", omega=1.0, g=0.7, N=6),
        ModelSpec(family="tfim_transverse", omega=1.0, g=-0.7, N=6),
    ]


class TestDerivativeConvention:
    @pytest.mark.parametrize("spec", all_test_specs(), ids=lambda s: s.family)
    def test_dh_matches_finite_difference(self, spec):
        h = 1e-5 * spec.omega
        inst = build(spec)
        plus = build(spec.with_omega(spec.omega + h)).H.entries
        minus = build(spec.with_omega(spec.omega - h)).H.entries
        fd = (plus - minus) / (2 * h)
        assert np.abs(fd - inst.dH_domega.entries).max() <= 1e-8

    @pytest.mark.parametrize("spec", all_test_specs(), ids=lambda s: s.family)
    def test_dh_is_diagonal(self, spec):
        # the estimators apply d_omega H as its diagonal
        dH = build(spec).dH_domega.entries
        assert np.array_equal(dH, np.diag(np.diagonal(dH)))


class TestConstructor:
    """ModelSpec.at is the one (family, x) -> spec map; unset fields take family defaults."""

    @pytest.mark.parametrize("x", [0.0, 0.1, 0.5, 0.75, 0.97, 2.0, 16.0])
    def test_at_matches_named_constructors(self, x):
        if x < 1.0 - models.CRITICAL_MARGIN:
            low = ModelSpec.at("effective_low", x, 1.3, n_max=80)
            assert low == ModelSpec.effective("low", omega=1.3, x=x, n_max=80)
            assert low.g == math.sqrt(x * 1.3 * (1000.0 * 1.3))
        high = ModelSpec.at("effective_high", x, 0.7)
        assert high == ModelSpec.effective("high", omega=0.7, x=x)
        assert high.g == math.sqrt(x * 0.7 * (1000.0 * 0.7))
        rabi = ModelSpec.at("rabi_full", x, 1.0, Omega=50.0, n_max=60)
        assert rabi == ModelSpec.rabi(1.0, 50.0, x, n_max=60)
        assert rabi.g == math.sqrt(x * 1.0 * 50.0)

    @pytest.mark.parametrize("family", ["lmg", "tfim", "tfim_transverse"])
    @pytest.mark.parametrize("x", [0.0, 0.3, 2.5])
    def test_at_spin_coupling(self, family, x):
        spec = ModelSpec.at(family, x, 1.7, N=4)
        assert spec.g == math.sqrt(x) * 1.7
        assert spec.x == pytest.approx(x, rel=1e-15, abs=1e-300)

    @pytest.mark.parametrize("family", models.FAMILIES)
    @pytest.mark.parametrize(
        "x,omega,fields",
        [(0.0, 1.0, {}), (0.3, 0.7, {}), (0.9, 1.3, {"n_max": 80}), (2.5, 1.0, {"Omega": 50.0, "N": 6})],
    )
    def test_at_builds_the_spec_once(self, family, x, omega, fields):
        if family == "effective_low" and x >= 1.0:
            x = 0.5  # beyond its critical point
        original = ModelSpec.__post_init__
        with mock.patch.object(ModelSpec, "__post_init__", autospec=True, side_effect=original) as runs:
            spec = ModelSpec.at(family, x, omega, **fields)
        assert runs.call_count == 1
        # the two-step build it replaces: defaults from a g = 0 spec, then the point
        free = ModelSpec(family=family, omega=omega, **fields)
        if family in models.BOSONIC_FAMILIES:
            g = math.sqrt(x * omega * free.Omega)
        else:
            g = math.sqrt(x) * omega
        reference = ModelSpec(family, omega, g, free.Omega, free.N, free.n_max)
        # repr round-trips a float exactly and tells -0.0 from 0.0: equal reprs are equal bits
        names = ("family", "omega", "g", "Omega", "N", "n_max")
        assert [(type(getattr(spec, n)), repr(getattr(spec, n))) for n in names] == [
            (type(getattr(reference, n)), repr(getattr(reference, n))) for n in names
        ]

    @pytest.mark.parametrize("family", models.FAMILIES)
    def test_at_rejects_negative_x(self, family):
        with pytest.raises(ValueError, match="x must be >= 0"):
            ModelSpec.at(family, -0.5)

    @pytest.mark.parametrize("family", ["lmg", "tfim", "tfim_transverse"])
    def test_default_spin_count(self, family):
        assert ModelSpec(family=family, omega=1.0, g=0.3).N == models.DEFAULT_N[family]
        assert ModelSpec.at(family, 0.3).N == models.DEFAULT_N[family]
        assert ModelSpec(family=family, omega=1.0, N=6).N == 6

    @pytest.mark.parametrize("family", models.BOSONIC_FAMILIES)
    def test_default_omega_ratio_fixed_under_with_omega(self, family):
        spec = ModelSpec(family=family, omega=2.0, g=0.5)
        assert spec.Omega == 1000.0 * 2.0
        shifted = spec.with_omega(2.0 + 1e-5)
        assert shifted.Omega == spec.Omega  # d_omega H is taken at fixed Omega
        assert shifted.g == spec.g


class TestRabiFull:
    def test_decoupled_ground_energy(self):
        spec = ModelSpec(family="rabi_full", omega=1.0, g=0.0, Omega=7.0, n_max=40)
        _, dec = diagonalize_converged(spec)
        assert dec.eigenvalues[0] == pytest.approx(-3.5, abs=1e-10)

    @pytest.mark.parametrize("omega,Omega,expected", [(1.0, 7.0, 1.0), (3.0, 2.0, 2.0)])
    def test_decoupled_gap(self, omega, Omega, expected):
        spec = ModelSpec(family="rabi_full", omega=omega, g=0.0, Omega=Omega, n_max=40)
        _, dec = diagonalize_converged(spec)
        assert dec.eigenvalues[1] - dec.eigenvalues[0] == pytest.approx(expected, abs=1e-10)

    def test_ground_energy_even_in_g(self):
        spec = ModelSpec(family="rabi_full", omega=1.0, g=3.0, Omega=50.0, n_max=120)
        flipped = ModelSpec(family="rabi_full", omega=1.0, g=-3.0, Omega=50.0, n_max=120)
        _, dec_p = diagonalize_converged(spec)
        _, dec_m = diagonalize_converged(flipped)
        assert dec_p.eigenvalues[0] == pytest.approx(dec_m.eigenvalues[0], abs=1e-10)

    def test_approaches_effective_low(self):
        target = math.sinh(-0.25 * math.log(0.5)) ** 2  # x = 0.5
        errs = []
        for Omega in (50.0, 200.0, 1000.0):
            inst, dec = diagonalize_converged(ModelSpec.rabi(1.0, Omega, 0.5, n_max=120))
            nbar = expectation(inst.dH_domega, dec.eigenvector(0))
            errs.append(abs(nbar - target))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-4


def kron_rabi(spec):
    """rabi_full's H in the Fock (x) qubit order, index 2n + s, from three kron products."""
    dim = spec.n_max + 1
    q = np.diag(np.sqrt(np.arange(1.0, dim)), 1)  # a; a + adag = q + q.T
    return (
        spec.omega * np.kron(np.diag(np.arange(dim, dtype=float)), np.eye(2))
        + spec.Omega / 2.0 * np.kron(np.eye(dim), np.diag([1.0, -1.0]))
        + spec.g / 2.0 * np.kron(q + q.T, np.array([[0.0, 1.0], [1.0, 0.0]]))
    )


def parity_position(n_max):
    """Index in the parity order of each Fock (x) qubit index j = 2n + s: 2n + (n + s) mod 2."""
    j = np.arange(2 * (n_max + 1))
    return 2 * (j // 2) + (j // 2 + j % 2) % 2


class TestRabiParityBasis:
    @pytest.mark.parametrize("n_max", [8, 30, 300])
    @pytest.mark.parametrize("g", [0.0, -0.0, 0.7, -3.0, 12.5])
    @pytest.mark.parametrize("omega,Omega", [(1.0, 2.0), (3.0, 7.0), (0.37, 370.0)])
    def test_kron_build_permuted(self, n_max, g, omega, Omega):
        spec = ModelSpec(family="rabi_full", omega=omega, g=g, Omega=Omega, n_max=n_max)
        inst = build(spec)
        assert all(isinstance(block, tuple) for _, block in inst.H.blocks)  # (d, e) pairs
        permuted = np.empty_like(inst.H.entries)
        position = parity_position(n_max)
        permuted[np.ix_(position, position)] = kron_rabi(spec)
        assert permuted.tobytes() == inst.H.entries.tobytes()  # -0.0 differs from +0.0 here
        assert np.array_equal(inst.dH_domega.diagonal, np.repeat(np.arange(n_max + 1.0), 2))

    def test_truncation_weight_counts_photon_number(self):
        spec = ModelSpec.rabi(1.0, 50.0, 0.3, n_max=12)
        inst = build(spec)
        amps = np.random.default_rng(3).normal(size=inst.H.dim)
        amps /= np.linalg.norm(amps)
        kron_order = amps[parity_position(spec.n_max)].reshape(spec.n_max + 1, 2)
        expected = np.sum(kron_order[-2:] ** 2)
        assert models.truncation_weight(inst, amps) == pytest.approx(expected, rel=1e-15)

    def test_basis_label_names_the_order(self):
        inst = build(ModelSpec.rabi(1.0, 50.0, 0.3, n_max=12))
        assert inst.basis != "fock(12)*qubit" and "parity" in inst.basis


class TestEffective:
    def test_free_oscillator(self):
        spec = ModelSpec.effective("low", x=0.0, n_max=60)
        _, dec = diagonalize_converged(spec)
        assert dec.eigenvalues[1] - dec.eigenvalues[0] == pytest.approx(1.0, abs=1e-10)

    def test_low_gap(self):
        _, dec = diagonalize_converged(ModelSpec.effective("low", x=0.75))
        assert dec.eigenvalues[1] - dec.eigenvalues[0] == pytest.approx(0.5, abs=1e-6)

    def test_high_gap(self):
        _, dec = diagonalize_converged(ModelSpec.effective("high", x=3.0))
        assert dec.eigenvalues[1] - dec.eigenvalues[0] == pytest.approx(2.0, abs=1e-6)

    @pytest.mark.parametrize("sector,x", [("low", 0.25), ("low", 0.9), ("high", 1.0), ("high", 8.0)])
    def test_ground_mean_n_matches_squeezing(self, sector, x):
        xi = -0.25 * math.log(1 - x) if sector == "low" else -0.25 * math.log(1 + x)
        inst, dec = diagonalize_converged(ModelSpec.effective(sector, x=x))
        nbar = expectation(inst.dH_domega, dec.eigenvector(0))
        assert nbar == pytest.approx(math.sinh(xi) ** 2, abs=1e-8)

    def test_gap_matches_effective_frequency(self):
        for sector, x in (("low", 0.6), ("high", 5.0)):
            _, dec = diagonalize_converged(ModelSpec.effective(sector, x=x))
            gap = dec.eigenvalues[1] - dec.eigenvalues[0]
            assert gap == pytest.approx(effective_frequency(sector, 1.0, x), abs=1e-8)

    def test_critical_guard(self):
        with pytest.raises(CriticalPointGuard):
            ModelSpec.effective("low", x=1.0)


class TestBandedSquares:
    """H is built from the band of (a+adag)^2 and Sx^2, not from a dense product."""

    @pytest.mark.parametrize("sector", ["low", "high"])
    def test_effective_matches_dense_square(self, sector):
        spec = ModelSpec.effective(sector, x=0.8, n_max=50)
        a, adag = annihilation(fock.FockSpace(50))
        q = a + adag
        sign = -1.0 if sector == "low" else 1.0
        dense = np.diag(np.arange(51.0)) + sign * spec.g**2 / (4.0 * spec.Omega) * (q @ q)
        H = build(spec).H.entries
        assert np.abs(H - dense).max() <= 4 * np.finfo(float).eps * np.abs(dense).max()

    @pytest.mark.parametrize("N", [2, 3, 40])
    def test_lmg_matches_dense_square(self, N):
        sx, _, sz = dicke_matrices(N)
        dense = sz - (0.7 / N) * (sx @ sx)
        H = build(ModelSpec(family="lmg", omega=1.0, g=0.7, N=N)).H.entries
        assert np.abs(H - dense).max() <= 4 * np.finfo(float).eps * np.abs(dense).max()


def dense_square(off):
    """T @ T as a dense matrix, T symmetric tridiagonal with zero diagonal and off-diagonal off."""
    sq = np.square(off)
    out = np.diag(np.append(sq, 0.0) + np.insert(sq, 0, 0.0))
    i = np.arange(off.size - 1)
    out[i, i + 2] = out[i + 2, i] = off[:-1] * off[1:]
    return out


def effective_default_specs():
    """Both sectors at x = 0 and at every point of the default effective sweep."""
    specs = [ModelSpec.effective(sector, x=0.0) for sector in ("low", "high")]
    for x_signed in sweep.SweepConfig(family="effective").grid:
        specs.append(ModelSpec.effective("low" if x_signed >= 0 else "high", x=abs(x_signed)))
    return specs


class TestBandedHamiltonians:
    """The banded effective and LMG Hamiltonians equal the dense sum of dense terms, bit for bit."""

    def test_effective(self):
        for spec in effective_default_specs():
            nop = np.diag(np.arange(spec.n_max + 1.0))
            q2 = dense_square(np.sqrt(np.arange(1.0, spec.n_max + 1)))
            sign = -1.0 if spec.sector is Sector.LOW else +1.0
            dense = spec.omega * nop + sign * spec.g**2 / (4.0 * spec.Omega) * q2
            H = build(spec).H
            assert all(isinstance(block, tuple) for _, block in H.blocks)  # (d, e) pairs
            assert H.entries.tobytes() == dense.tobytes(), spec  # -0.0 and +0.0 told apart

    @pytest.mark.parametrize("N", [200, 2, 3, 40])
    def test_lmg(self, N):
        m = np.arange(-N / 2.0, N / 2.0 + 1.0)
        raising = np.sqrt(N / 2.0 * (N / 2.0 + 1.0) - m[:-1] * (m[:-1] + 1.0))
        sx2 = dense_square(raising / 2.0)
        for g in (0.0,) + sweep.SweepConfig(family="lmg").grid:
            dense = 1.0 * np.diag(m) - (g / N) * sx2
            H = build(ModelSpec(family="lmg", omega=1.0, g=g, N=N)).H
            assert all(isinstance(block, tuple) for _, block in H.blocks)  # (d, e) pairs
            assert H.entries.tobytes() == dense.tobytes(), g


class TestAnalyticHelpers:
    def test_effective_frequency(self):
        assert effective_frequency("low", 1.0, 0.75) == pytest.approx(0.5)
        assert effective_frequency("high", 1.0, 3.0) == pytest.approx(2.0)
        assert effective_frequency(Sector.HIGH, 2.5, 0.0) == pytest.approx(2.5)

    def test_frequency_matches_exponential_form(self):
        for sector, x in (("low", 0.3), ("low", 0.9), ("high", 2.0)):
            sign = -1.0 if sector == "low" else 1.0
            xi = -0.25 * math.log(1 + sign * x)
            assert effective_frequency(sector, 1.0, x) == pytest.approx(
                math.exp(-2 * xi), abs=1e-12
            )

    def test_derivative_factor(self):
        assert frequency_derivative_factor("low", 0.0) == pytest.approx(1.0)
        assert frequency_derivative_factor("low", 0.75) == pytest.approx(1.5625)
        assert frequency_derivative_factor("high", 8.0) == pytest.approx(100.0 / 36.0)

    def test_characteristic_time(self):
        assert characteristic_time("low", 1.0, 0.0) == pytest.approx(1.0)
        assert characteristic_time("low", 1.0, 0.75) == pytest.approx(2.0)
        assert characteristic_time("high", 1.0, 3.0) == pytest.approx(0.5)

    def test_guards(self):
        with pytest.raises(CriticalPointGuard):
            effective_frequency("low", 1.0, 1.0)
        with pytest.raises(CriticalPointGuard):
            frequency_derivative_factor("low", 1.0)

    @pytest.mark.parametrize("sector", ["low", "high"])
    def test_negative_x_rejected(self, sector):
        with pytest.raises(ValueError, match="x must be >= 0, got -0.5"):
            effective_frequency(sector, 1.0, -0.5)
        with pytest.raises(ValueError, match="x must be >= 0, got -0.5"):
            characteristic_time(sector, 1.0, -0.5)


class TestSpinModels:
    def test_lmg_gap_free(self):
        _, dec = diagonalize_converged(ModelSpec(family="lmg", omega=1.0, g=0.0, N=200))
        assert dec.eigenvalues[1] - dec.eigenvalues[0] == pytest.approx(1.0, abs=1e-10)

    def test_lmg_near_critical(self):
        from anticrit.spectral import HermitianOperator, variance

        _, dec0 = diagonalize_converged(ModelSpec(family="lmg", omega=1.0, g=0.0, N=200))
        inst, dec = diagonalize_converged(ModelSpec(family="lmg", omega=1.0, g=0.9, N=200))
        assert dec.eigenvalues[1] - dec.eigenvalues[0] < 1.0
        sx = HermitianOperator(dicke_matrices(200)[0])
        assert variance(sx, dec.eigenvector(0)) > 200 / 4.0

    @pytest.mark.parametrize("g", [0.5, 1.0, 2.0])
    def test_tfim_gap_even_in_g(self, g):
        _, dec_p = diagonalize_converged(ModelSpec(family="tfim", omega=1.0, g=g, N=10))
        _, dec_m = diagonalize_converged(ModelSpec(family="tfim", omega=1.0, g=-g, N=10))
        gp = dec_p.eigenvalues[1] - dec_p.eigenvalues[0]
        gm = dec_m.eigenvalues[1] - dec_m.eigenvalues[0]
        assert abs(gp - gm) <= 1e-10

    def test_transverse_matches_tfim_at_g0(self):
        _, dec_a = diagonalize_converged(ModelSpec(family="tfim", omega=1.0, g=0.0, N=8))
        _, dec_b = diagonalize_converged(
            ModelSpec(family="tfim_transverse", omega=1.0, g=0.0, N=8)
        )
        assert np.allclose(dec_a.eigenvalues, dec_b.eigenvalues, atol=1e-10)

    def test_transverse_asymmetric(self):
        _, dec_p = diagonalize_converged(
            ModelSpec(family="tfim_transverse", omega=1.0, g=0.5, N=10)
        )
        _, dec_m = diagonalize_converged(
            ModelSpec(family="tfim_transverse", omega=1.0, g=-0.5, N=10)
        )
        gp = dec_p.eigenvalues[1] - dec_p.eigenvalues[0]
        gm = dec_m.eigenvalues[1] - dec_m.eigenvalues[0]
        assert abs(gp - gm) > 1e-3

    @pytest.mark.parametrize("N", [3, 4, 5, 6])
    @pytest.mark.parametrize("family", ["tfim", "tfim_transverse"])
    @pytest.mark.parametrize("g", [0.7, -1.3])
    def test_chain_matches_site_paulis(self, N, family, g):
        from anticrit.spin import ChainBasis

        basis = ChainBasis(N)
        sigma = {
            axis: [site_pauli(basis, i, axis).entries for i in range(1, N + 1)]
            for axis in "xz"
        }

        def bond_sum(axis):
            return sum(sigma[axis][i] @ sigma[axis][(i + 1) % N] for i in range(N))

        omega = 1.1
        reference = omega * sum(sigma["z"]) - g * bond_sum("x")
        if family == "tfim_transverse":
            reference = reference + g * bond_sum("z")
        H = build(ModelSpec(family=family, omega=omega, g=g, N=N)).H.entries
        assert np.array_equal(H, reference)

    def test_transverse_gap_opens_for_negative_g(self):
        # sign found by direct diagonalization, not assumed
        _, dec0 = diagonalize_converged(
            ModelSpec(family="tfim_transverse", omega=1.0, g=0.0, N=10)
        )
        gap0 = dec0.eigenvalues[1] - dec0.eigenvalues[0]
        for g in (-0.5, -1.0, -1.5, -2.0):
            _, dec = diagonalize_converged(
                ModelSpec(family="tfim_transverse", omega=1.0, g=g, N=10)
            )
            assert dec.eigenvalues[1] - dec.eigenvalues[0] > gap0


class TestTruncation:
    def test_auto_escalation_grows(self):
        inst, _ = models.diagonalize_converged(ModelSpec.effective("low", x=0.9, n_max=4))
        assert inst.spec.n_max > 4
