import math

import numpy as np
import pytest

from anticrit.errors import CriticalPointGuard, TruncationGuard
from anticrit.fock import (
    FockSpace,
    MeanExcitations,
    Sector,
    mean_excitations,
    number_operator,
    squeeze_vacuum,
    squeeze_vacuum_auto,
    squeezing_parameter,
)
from anticrit.spectral import HermitianOperator, expectation, variance
from oracles import annihilation


class TestOperators:
    def test_annihilation_entries(self):
        a, adag = annihilation(FockSpace(2))
        assert a[0, 1] == pytest.approx(1.0)  # a|1> = |0>
        assert np.all(a @ np.eye(3)[0] == 0)  # a|0> = 0
        assert np.array_equal(adag, a.T)

    def test_commutator_truncation(self):
        space = FockSpace(12)
        a, adag = annihilation(space)
        comm = a @ adag - adag @ a
        # identity except the bottom-right truncation artifact
        assert np.allclose(comm[:-1, :-1], np.eye(space.dim - 1))
        assert comm[-1, -1] == pytest.approx(-space.n_max)

    def test_number_operator(self):
        space = FockSpace(7)
        n = number_operator(space).entries
        assert n[0, 0] == 0
        assert n[-1, -1] == 7
        assert np.trace(n).real == 7 * 8 / 2


class TestSqueezingParameter:
    def test_zero(self):
        assert squeezing_parameter(Sector.LOW, 0.0).xi == 0.0

    def test_low_075(self):
        assert squeezing_parameter("low", 0.75).xi == pytest.approx(
            -0.25 * math.log(0.25), abs=1e-15
        )

    def test_high_1(self):
        assert squeezing_parameter("high", 1.0).xi == pytest.approx(
            -0.25 * math.log(2.0), abs=1e-15
        )

    def test_critical_guard(self):
        with pytest.raises(CriticalPointGuard):
            squeezing_parameter("low", 1.0)

    def test_high_negative_rejected(self):
        with pytest.raises(ValueError):
            squeezing_parameter("high", -0.5)


class TestSqueezeVacuum:
    def test_zero_is_vacuum(self):
        st = squeeze_vacuum(0.0, FockSpace(10))
        assert st.amplitudes[0] == pytest.approx(1.0)
        assert np.allclose(st.amplitudes[1:], 0.0)

    def test_mean_excitation(self):
        xi = -0.25 * math.log(0.25)
        st = squeeze_vacuum(xi, FockSpace(80))
        n = number_operator(FockSpace(80))
        assert expectation(n, st) == pytest.approx(0.125, abs=1e-10)

    def test_even_parity(self):
        st = squeeze_vacuum(0.4, FockSpace(100))
        assert np.abs(st.amplitudes[1::2]).max() <= 1e-14

    @pytest.mark.parametrize("xi", [-0.5, -0.1, 0.05, 0.3, 0.7])
    def test_norm_and_variance_identity(self, xi):
        space = FockSpace(300)
        st = squeeze_vacuum(xi, space)
        assert np.linalg.norm(st.amplitudes) == pytest.approx(1.0, abs=1e-12)
        n = number_operator(space)
        nbar = expectation(n, st)
        assert variance(n, st) == pytest.approx(2 * nbar * (nbar + 1), abs=1e-8)

    @pytest.mark.parametrize("xi", [-0.4, 0.25, 0.6])
    def test_quadrature_direction(self, xi):
        space = FockSpace(300)
        st = squeeze_vacuum(xi, space)
        a, adag = annihilation(space)
        q = HermitianOperator(a + adag)
        q2 = variance(q, st) + expectation(q, st) ** 2
        assert q2 == pytest.approx(math.exp(2 * xi), abs=1e-8)

    def test_truncation_guard(self):
        with pytest.raises(TruncationGuard):
            squeeze_vacuum(2.5, FockSpace(10))

    @pytest.mark.parametrize("xi", [-1.5, 0.576, 1.2])
    def test_matches_the_exponentiated_generator(self, xi):
        # exp[(xi/2)(adag^2 - a^2)] |0> by a spectral exponential on twice the space, where
        # truncating the generator does not reach the levels compared
        small, big = FockSpace(300), FockSpace(600)
        a, adag = annihilation(big)
        vals, vecs = np.linalg.eigh(-1j * (xi / 2.0) * (adag @ adag - a @ a))
        reference = (vecs @ (np.exp(1j * vals) * vecs[0].conj()))[: small.dim]
        reference *= abs(reference[0]) / reference[0] / np.linalg.norm(reference)
        st = squeeze_vacuum(xi, small)
        assert st.amplitudes.dtype == np.float64 and st.amplitudes[0] > 0.0
        assert np.abs(st.amplitudes - reference).max() <= 1e-14

    @pytest.mark.parametrize("xi", [30.0, -800.0])
    def test_far_out_of_the_space_guarded(self, xi):
        # almost all of the state lies above n_max; cosh(800) overflows a float
        with pytest.raises(TruncationGuard):
            squeeze_vacuum(xi, FockSpace(300))

    def test_doubling_stability(self):
        xi = 0.55
        n1 = expectation(number_operator(FockSpace(150)), squeeze_vacuum(xi, FockSpace(150)))
        n2 = expectation(number_operator(FockSpace(300)), squeeze_vacuum(xi, FockSpace(300)))
        assert abs(n1 - n2) < 1e-10

    def test_auto_escalation(self):
        st = squeeze_vacuum_auto(1.2, n_max=64)
        assert st.dim > 65  # had to grow
        assert expectation(
            number_operator(FockSpace(st.dim - 1)), st
        ) == pytest.approx(math.sinh(1.2) ** 2, abs=1e-8)


class TestMeanExcitations:
    def test_zero(self):
        res = mean_excitations(squeezing_parameter("low", 0.0))
        assert res.exact == 0.0

    def test_low_075(self):
        res = mean_excitations(squeezing_parameter("low", 0.75))
        assert res.exact == pytest.approx(0.125, abs=1e-12)
        assert res.near_critical == pytest.approx(0.5, abs=1e-12)

    def test_high_1(self):
        res = mean_excitations(squeezing_parameter("high", 1.0))
        expected = (math.sqrt(2.0) + 1.0 / math.sqrt(2.0) - 2.0) / 4.0
        assert res.exact == pytest.approx(expected, abs=1e-12)
        assert res.exact == pytest.approx(0.0303301, abs=1e-7)

    def test_returns_both_fields(self):
        assert isinstance(mean_excitations(squeezing_parameter("high", 4.0)), MeanExcitations)
