import logging
import math
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid, quad, trapezoid

from anticrit import models, qfi, spectral
from anticrit.errors import (
    ConvergenceGuard,
    CriticalPointGuard,
    DegeneracyGuard,
    GapGuard,
    TruncationGuard,
)
from anticrit.fock import FockSpace, number_operator, squeeze_vacuum
from anticrit.models import ModelInstance, ModelSpec
from anticrit.qfi import (
    RampSpec,
    normalized_metrics,
    qfi_adiabatic_generator,
    qfi_analytic_squeezed,
    qfi_oscillator_evolution,
    qfi_phase_imprint,
    qfi_spectral_sum,
    qfi_state_fd,
)
from anticrit.spectral import HermitianOperator, QuantumState
from test_acceptance import TOL  # the golden contract's eigensolver tolerance
from test_spectral import lazy_entries_spy  # band or block operators whose dense matrix is read


@contextmanager
def lapack_calls():
    """The LAPACK eigensolver drivers called inside the block, in order, by name."""
    calls = []

    def spy(name, call):
        def record(*args, **kwargs):
            calls.append(name)
            return call(*args, **kwargs)

        return record

    eigh = spectral.sla.eigh
    stebz = spectral._STEBZ

    def bisect(*args, **kwargs):  # stebz by index, or a count over a range of values
        calls.append("stebz" if args[2] == 2 else "stebz count")
        return stebz(*args, **kwargs)

    def dense(a, *args, **kwargs):
        calls.append(kwargs["driver"])
        return eigh(a, *args, **kwargs)

    with mock.patch.multiple(
        spectral, _STEVD=spy("stevd", spectral._STEVD), _STEBZ=bisect,
        _STEIN=spy("stein", spectral._STEIN),
    ), mock.patch.object(spectral.sla, "eigh", dense):
        yield calls


def ground_state_parities():
    """A spy on the ground solves of qfi_state_fd; each call records the parity it was given."""
    parities = []

    def spy(H, parity=None):
        parities.append(parity)
        return spectral.ground_state(H, parity)

    return mock.patch.object(qfi, "ground_state", spy), parities


class TestAnalytic:
    def test_zero_coupling(self):
        assert qfi_analytic_squeezed("low", 1.0, 0.0).value == 0.0

    def test_low_quarter(self):
        assert qfi_analytic_squeezed("low", 1.0, 0.25).value == pytest.approx(
            0.25**2 / (8 * 0.75**2), rel=1e-12
        )

    def test_high_unity_and_plateau(self):
        assert qfi_analytic_squeezed("high", 1.0, 1.0).value == pytest.approx(0.03125)
        vals = [qfi_analytic_squeezed("high", 1.0, x).value for x in (1, 4, 25, 400, 10000)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.125
        assert abs(qfi_analytic_squeezed("high", 1.0, 400.0).value - 0.125) / 0.125 < 0.01

    def test_critical_guard(self):
        with pytest.raises(CriticalPointGuard):
            qfi_analytic_squeezed("low", 1.0, 1.0)

    def test_critical_divergence_prefactor(self):
        # value * (1-x)^2 == x^2 / 8 exactly
        for x in (0.1, 0.5, 0.9, 0.99):
            v = qfi_analytic_squeezed("low", 1.0, x).value
            assert v * (1 - x) ** 2 == pytest.approx(x**2 / 8.0, rel=1e-12)


class TestSpectralSum:
    def test_lmg_free_is_zero(self):
        inst, dec = models.diagonalize_converged(ModelSpec(family="lmg", omega=1.0, g=0.0, N=50))
        assert qfi_spectral_sum(inst, dec).value == pytest.approx(0.0, abs=1e-20)

    @pytest.mark.parametrize(
        "sector,x,expected",
        [("low", 0.25, 0.25**2 / (8 * 0.75**2)), ("high", 1.0, 0.03125)],
    )
    def test_matches_analytic(self, sector, x, expected):
        inst, dec = models.diagonalize_converged(ModelSpec.effective(sector, x=x))
        result = qfi_spectral_sum(inst, dec)
        assert result.value == pytest.approx(expected, rel=1e-6)
        # only the second excited state contributes
        assert result.diagnostics["dominant_term_fraction"] > 1 - 1e-10

    def test_degeneracy_guard(self):
        H = HermitianOperator(np.diag([0.0, 0.0, 1.0]))
        dH = HermitianOperator(np.diag([1.0, 2.0, 3.0]))
        spec = ModelSpec(family="lmg", omega=1.0, g=0.0, N=2)
        fake = ModelInstance(H, dH, spec, "dicke(2)")
        with pytest.raises(DegeneracyGuard) as err:
            qfi_spectral_sum(fake)
        assert err.value.gap is not None

    def test_partial_sector_refused(self):
        # three of the block's 61 levels would drop every other term of the sum
        inst = models.build(ModelSpec(family="lmg", omega=1.0, g=0.7, N=120))
        sector = spectral.ground_sector(inst.H, count=3)
        with pytest.raises(ValueError, match="every level of psi_0's block, got 3 of 61"):
            qfi_spectral_sum(inst, sector)


class TestStateFd:
    def test_omega_independent_ground(self):
        assert qfi_state_fd(ModelSpec(family="lmg", omega=1.0, g=0.0, N=30)).value == pytest.approx(
            0.0, abs=1e-8
        )

    def test_effective_low(self):
        value = qfi_state_fd(ModelSpec.effective("low", x=0.25)).value
        assert value == pytest.approx(0.25**2 / (8 * 0.75**2), rel=1e-5)

    def test_lmg_cross_method(self):
        spec = ModelSpec(family="lmg", omega=1.0, g=0.5, N=200)
        inst, dec = models.diagonalize_converged(spec)
        reference = qfi_spectral_sum(inst, dec).value
        assert qfi_state_fd(spec).value == pytest.approx(reference, rel=1e-5)

    @pytest.mark.parametrize(
        "spec",
        [ModelSpec.effective("low", x=0.6, n_max=120), ModelSpec(family="lmg", omega=1.0, g=0.5, N=60)],
        ids=["effective_low", "lmg"],
    )
    def test_centre_reused(self, spec):
        centre = models.diagonalize_converged(spec)
        with mock.patch.object(qfi, "ground_state", wraps=spectral.ground_state) as grounds, \
                mock.patch.object(spectral, "eigendecompose", wraps=spectral.eigendecompose) as full, \
                mock.patch.object(models, "eigendecompose", wraps=models.eigendecompose) as solves:
            value = qfi_state_fd(spec, centre=centre).value
        assert grounds.call_count == 4  # +/- d and +/- d/2 only
        assert full.call_count == solves.call_count == 0  # ground-only solves there
        assert value == qfi_state_fd(spec).value

    def test_shifted_point_truncation_guarded(self):
        # the centre fits in 33 levels (weight 2e-11); omega - d lifts x from 0.9
        # to 0.928, whose ground state puts 4e-10 into the top two levels
        spec = ModelSpec.effective("low", x=0.9, n_max=32)
        inst = models.build(spec)
        centre = inst, models.ground_decomposition(inst)
        with pytest.raises(TruncationGuard, match="top Fock levels"):
            qfi_state_fd(spec, d_omega=0.03, check_step=False, centre=centre)

    @pytest.mark.parametrize(
        "spec",
        [
            ModelSpec.effective("low", x=0.9),
            ModelSpec.effective("high", x=8.0),
            ModelSpec(family="lmg", omega=1.0, g=0.9, N=200),
            ModelSpec(family="tfim", omega=1.0, g=0.7, N=8),
        ],
        ids=["effective_low", "effective_high", "lmg", "tfim"],
    )
    def test_certified_points_match_both_block_solves(self, spec, caplog):
        patch, parities = ground_state_parities()
        with patch, caplog.at_level(logging.DEBUG, logger="anticrit.qfi"):
            certified = qfi_state_fd(spec).value
        assert parities == [0, 0, 0, 0]
        assert "certified=True parity=0 weyl_margin=" in caplog.text
        # today's route: both blocks at every point, E_1 and the degeneracy guard included
        with mock.patch.object(qfi, "ground_state", lambda H, parity: spectral.ground_state(H)):
            both = qfi_state_fd(spec).value
        d = qfi.FD_STEP_FRACTION * spec.omega
        bound = 4.0 * math.sqrt(both) * TOL / d + 4.0 * (TOL / d) ** 2  # the golden qfi_fd bound
        assert abs(certified - both) <= bound

    def test_uncertified_points_solve_both_blocks(self, caplog):
        # omega -/+ 0.03 may move each of 33 levels by 0.03 x 32, beyond the gap 0.316
        spec = ModelSpec.effective("low", x=0.9, n_max=32)
        inst = models.build(spec)
        patch, parities = ground_state_parities()
        with patch, caplog.at_level(logging.DEBUG, logger="anticrit.qfi"), \
                pytest.raises(TruncationGuard, match="top Fock levels"):
            qfi_state_fd(spec, d_omega=0.03, check_step=False, centre=(inst, models.ground_block(inst)))
        assert parities == [None, None]  # omega + 0.03 fits; omega - 0.03 raises
        assert "certified=False parity=None weyl_margin=-1.604e+00" in caplog.text

    def test_quasi_degenerate_centre_refused(self):
        # ferromagnetic LMG: the two parity blocks' lowest levels agree to 1e-14
        with pytest.raises(DegeneracyGuard):
            qfi_state_fd(ModelSpec(family="lmg", omega=1.0, g=2.0, N=200))

    def test_centre_of_another_spec_rejected(self):
        spec = ModelSpec(family="lmg", omega=1.0, g=0.5, N=60)
        centre = models.diagonalize_converged(spec.with_omega(1.1))
        with pytest.raises(ValueError, match="centre"):
            qfi_state_fd(spec, centre=centre)

    def test_gauge_alignment_phase_invariant(self):
        from anticrit.qfi import _aligned
        from anticrit.spectral import eigendecompose

        inst, dec = models.diagonalize_converged(ModelSpec.effective("low", x=0.4))
        ref = dec.vectors[:, 0]
        rng = np.random.default_rng(5)
        for _ in range(4):
            phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
            rotated = eigendecompose(inst.H, basis=inst.basis)
            rotated_vecs = rotated.vectors * phase
            fake = type(rotated)(rotated.eigenvalues, rotated_vecs, rotated.basis)
            aligned = _aligned(fake.vectors[:, 0], ref)
            assert abs(np.vdot(ref, aligned).imag) <= 1e-12
            assert np.vdot(ref, aligned).real > 0


class TestPhaseImprint:
    def test_vacuum_and_t0(self):
        space = FockSpace(20)
        vac = QuantumState(np.eye(space.dim)[0], space.basis_label)
        n = number_operator(space)
        assert qfi_phase_imprint(vac, n, 2.0).value == 0.0
        st = squeeze_vacuum(0.3, space)
        assert qfi_phase_imprint(st, n, 0.0).value == 0.0

    def test_squeezed(self):
        xi = -0.25 * math.log(0.25)
        space = FockSpace(80)
        st = squeeze_vacuum(xi, space)
        n = number_operator(space)
        assert qfi_phase_imprint(st, n, 1.0).value == pytest.approx(1.125, abs=1e-8)


class TestOscillatorEvolution:
    def test_values(self):
        assert qfi_oscillator_evolution(0.0, 1.0, "low", 1.0, 0.5).value == 0.0
        assert qfi_oscillator_evolution(1.0, 1.0, "low", 1.0, 0.75).value == pytest.approx(6.25)
        assert qfi_oscillator_evolution(1.0, 2.0, "high", 1.0, 8.0).value == pytest.approx(
            16 * 100.0 / 36.0, rel=1e-12
        )

    @pytest.mark.parametrize("var_c,t", [(math.nan, 1.0), (1.0, math.nan), (-1.0, 1.0)])
    def test_nan_or_negative_refused(self, var_c, t):
        with pytest.raises(ValueError, match="var_c and t must be >= 0"):
            qfi_oscillator_evolution(var_c, t, "low", 1.0, 0.5)


class TestNanRefused:
    def test_result(self):
        with pytest.raises(ValueError, match="QFI must be non-negative, got nan"):
            qfi.QfiResult(math.nan, "spectral_sum")

    def test_phase_imprint_time(self):
        space = FockSpace(20)
        with pytest.raises(ValueError, match="evolution time must be >= 0, got nan"):
            qfi_phase_imprint(squeeze_vacuum(0.3, space), number_operator(space), math.nan)

    def test_ramp_time(self):
        with pytest.raises(ValueError, match="ramp time must be >= 0, got nan"):
            RampSpec(0.0, 0.5, math.nan)

    @pytest.mark.parametrize("d_omega", [0.0, 1e-300, -1e-17, math.nan, math.inf])
    def test_state_fd_step(self, d_omega):
        # omega +/- d_omega / 2 == omega for each finite step here: the difference would be 0 / 0 or 0
        with pytest.raises(ValueError, match="d_omega must be finite and move omega"):
            qfi_state_fd(ModelSpec.effective("low", x=0.5), d_omega=d_omega)


class TestAdiabaticGenerator:
    @staticmethod
    def closed_form(x, T, omega=1.0):
        inst, dec = models.diagonalize_converged(ModelSpec.effective("low", x=x, omega=omega))
        v0 = dec.vectors[:, 0]
        elems = dec.vectors.conj().T @ (inst.dH_domega.entries @ v0)
        dE = dec.eigenvalues - dec.eigenvalues[0]
        return float(
            np.sum(4 * np.abs(elems[1:]) ** 2 * 2 * (1 - np.cos(dE[1:] * T)) / dE[1:] ** 2)
        )

    def test_zero_time(self):
        ramp = RampSpec(0.25, 0.25, 0.0, steps=51, schedule="constant")
        assert qfi_adiabatic_generator("effective_low", ramp).value == pytest.approx(0.0, abs=1e-12)

    def test_full_period_zero(self):
        gap02 = 2.0 * math.sqrt(0.75)
        T = 2 * math.pi / gap02
        ramp = RampSpec(0.25, 0.25, T, steps=1001, schedule="constant")
        assert qfi_adiabatic_generator("effective_low", ramp).value == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize("T", [1.0, 2.5, 4.0])
    def test_constant_matches_closed_form(self, T):
        ramp = RampSpec(0.25, 0.25, T, steps=1001, schedule="constant")
        value = qfi_adiabatic_generator("effective_low", ramp).value
        assert value == pytest.approx(self.closed_form(0.25, T), rel=1e-4)

    def test_linear_ramp_runs(self):
        ramp = RampSpec(0.1, 0.3, 2.0, steps=201, schedule="linear")
        result = qfi_adiabatic_generator("effective_low", ramp, n_max=120)
        assert result.value >= 0
        assert result.diagnostics["min_gap"] > 0

    @pytest.mark.parametrize(
        "family,fields",
        [("effective_low", {"n_max": 120}), ("effective_high", {"n_max": 120}), ("lmg", {"N": 20})],
        ids=["low", "high", "lmg"],
    )
    def test_linear_ramp_matches_full_decompositions(self, family, fields):
        # the same adiabatic-frame sum, from eigendecompose's full solve at every step
        # and scipy's quadrature: guards the ground-block route's level order and gauge.
        # S_z connects the lmg ground state to more than three levels, so that ramp is
        # solved again with every level
        ramp = RampSpec(0.0, 0.6, 2.0, steps=201)
        ts, xs = np.linspace(0.0, ramp.T, ramp.steps), np.linspace(ramp.x_start, ramp.x_end, ramp.steps)
        energies, elems, prev = [], [], None
        for x in xs:
            inst = models.build(ModelSpec.at(family, float(x), **fields))
            dec = spectral.eigendecompose(inst.H)
            parity = 0 if not dec.vectors[1::2, 0].any() else 1
            columns = np.flatnonzero(~np.any(dec.vectors[1 - parity :: 2], axis=0))
            vecs = dec.vectors[parity::2][:, columns]
            if prev is not None:
                vecs = vecs * np.where(np.sum(prev * vecs, axis=0) < 0.0, -1.0, 1.0)
            prev = vecs
            energies.append(dec.eigenvalues[columns])
            elems.append(vecs.T @ (inst.dH_domega.diagonal[parity::2] * vecs[:, 0]))
        energies, elems = np.array(energies), np.array(elems)
        theta = cumulative_trapezoid(energies, ts, axis=0, initial=0.0)
        integrals = trapezoid(np.exp(1j * (theta[:, :1] - theta[:, 1:])) * elems[:, 1:], ts, axis=0)
        expected = 4.0 * np.sum(np.abs(integrals) ** 2)
        result = qfi_adiabatic_generator(family, ramp, **fields)
        assert result.value == pytest.approx(expected, rel=1e-12, abs=0.0)
        full = family == "lmg"
        assert result.diagnostics["levels_solved"] == (energies.shape[1] if full else qfi.RAMP_LEVELS)
        assert 0.0 <= result.diagnostics["dropped_bound"] <= (0.0 if full else 1e-14 * result.value)

    def test_three_level_steps_certified(self):
        # every effective step holds d_omega H psi_0 on its three levels: no stevd call.
        # Step 0 bisects the other block's two lowest levels; each later step counts its
        # levels below E_0 instead. lmg fails the check and ends on one stevd per step; a
        # chain's dense block keeps every level, with one evd call for a constant ramp
        effective = RampSpec(0.0, 0.6, 2.0, steps=21)
        with lapack_calls() as calls:
            qfi_adiabatic_generator("effective_high", effective, n_max=60, check_convergence=False)
        later = effective.steps - 1
        assert calls == ["stebz", "stein", "stebz"] + ["stebz", "stein", "stebz count"] * later
        lmg = RampSpec(0.1, 0.3, 2.0, steps=21)
        with lapack_calls() as calls:
            qfi_adiabatic_generator("lmg", lmg, N=20, check_convergence=False)
        assert "stein" in calls[: -2 * lmg.steps]
        assert calls[-2 * lmg.steps :] == ["stevd", "stebz"] + ["stevd", "stebz count"] * (lmg.steps - 1)
        chain = RampSpec(0.5, 0.5, 2.0, steps=21, schedule="constant")
        with lapack_calls() as calls:
            qfi_adiabatic_generator("tfim", chain, N=6, check_convergence=False)
        assert calls == ["evd", "evr"]

    @pytest.mark.parametrize("sector", ["low", "high"])
    def test_dropped_levels_bounded(self, sector):
        # the three-level value against every level, with the reported bound on the levels dropped
        ramp = RampSpec(0.0, 0.89, 2.0, steps=201)
        three = qfi_adiabatic_generator(f"effective_{sector}", ramp, n_max=120)
        with mock.patch.object(qfi, "RAMP_LEVELS", 10**6):
            every = qfi_adiabatic_generator(f"effective_{sector}", ramp, n_max=120)
        assert every.diagnostics["levels_solved"] == 61
        assert three.value == pytest.approx(every.value, rel=1e-14, abs=0.0)
        assert three.diagnostics["dropped_bound"] <= 1e-28 * three.value
        assert three.diagnostics["min_gap"] == pytest.approx(every.diagnostics["min_gap"], rel=1e-14)

    @pytest.mark.parametrize(
        "x_end,value",
        [
            (0.6263918057774132, 0.21275321695000876),
            (0.6263838256730766, 0.21274428188079414),
            (0.6263822777644845, 0.21274254877654897),
        ],
        ids=["seed1-round675", "seed320-round85", "seed504-round205"],
    )
    def test_step_halving_shift_covers_the_error(self, x_end, value):
        # ramps the ramp-adiabatic bench draws, where the shift of 201 steps against every
        # other step nearly vanishes; the shift of every other step against every fourth,
        # over 4, covers the error. The value itself is unchanged, bit for bit
        ramp = RampSpec(0.0, x_end, 2.0, steps=201)
        result = qfi_adiabatic_generator("effective_low", ramp, n_max=120)
        assert result.value == value

        # n couples psi_0 only to the two-quasiparticle level, 2 eps = 2 sqrt(1 - x) above it,
        # with <2|n|0> = sinh(2 |xi|) / sqrt(2)
        def x_at(t):
            return x_end * t / ramp.T

        def phase(t):  # int_0^t 2 sqrt(1 - x(s)) ds
            return 4.0 * ramp.T / (3.0 * x_end) * (1.0 - (1.0 - x_at(t)) ** 1.5)

        def element(t):
            return math.sinh(0.5 * abs(math.log1p(-x_at(t)))) / math.sqrt(2.0)

        opts = dict(epsabs=0.0, epsrel=1e-10, limit=500)
        re = quad(lambda t: math.cos(phase(t)) * element(t), 0.0, ramp.T, **opts)[0]
        im = quad(lambda t: math.sin(phase(t)) * element(t), 0.0, ramp.T, **opts)[0]
        reference = 4.0 * (re * re + im * im)
        shift = result.diagnostics["step_halving_relative_shift"]
        assert abs(result.value - reference) <= shift * result.value + 4e-10 * reference

    @pytest.mark.parametrize("x_end", [4.0, 9.0])
    def test_lmg_parity_change_refused(self, x_end):
        # past g_c the two parity blocks' lowest levels meet to rounding at N = 200
        with pytest.raises(GapGuard, match="changes parity along the ramp"):
            qfi_adiabatic_generator("lmg", RampSpec(0.0, x_end, 2.0, steps=201), N=200)

    @pytest.mark.parametrize(
        "N,value,min_gap",
        [(20, 21.573990928805703, 0.6362024939958477), (40, 38.76109421995748, 0.4739966641123772)],
    )
    def test_lmg_ramp_past_the_critical_point(self, N, value, min_gap):
        # the values solving the other block's two lowest levels at every step gave
        result = qfi_adiabatic_generator("lmg", RampSpec(0.0, 9.0, 2.0, steps=201), N=N)
        assert (result.value, result.diagnostics["min_gap"]) == (value, min_gap)
        assert result.diagnostics["levels_solved"] == N // 2 + 1
        assert result.diagnostics["dropped_bound"] == 0.0

    def test_gap_guard_reads_psi0s_block(self):
        # at g = 5 the full-space gap is the 1.9e-7 tunnelling gap to the other
        # parity block, which sum sigma_z never couples; psi_0's own block has a gap of 16.2
        N, x, T = 10, 25.0, 2.0
        inst, sector = models.ground_sector_converged(ModelSpec.at("tfim", x, N=N))
        assert spectral.energy_gap(sector) < qfi.RAMP_GAP_TOL
        elems = sector.vectors.T @ (inst.dH_domega.diagonal[sector.rows] * sector.vectors[:, 0])
        dE = sector.energies - sector.energies[0]
        oracle = float(np.sum(4 * elems[1:] ** 2 * 2 * (1 - np.cos(dE[1:] * T)) / dE[1:] ** 2))
        result = qfi_adiabatic_generator("tfim", RampSpec(x, x, T, steps=4001, schedule="constant"), N=N)
        assert result.value == pytest.approx(oracle, rel=1e-4)
        assert result.diagnostics["min_gap"] == dE[1] and dE[1] > 16.0  # both solved on one thread

    def test_banded_hamiltonians_stay_banded(self):
        ramp = RampSpec(0.1, 0.3, 2.0, steps=21, schedule="linear")
        with lazy_entries_spy() as read:
            qfi_adiabatic_generator("effective_high", ramp, n_max=60, check_convergence=False)
        assert read == []

    def test_escalation_along_the_ramp_refused(self):
        # x = 0.1 fits in 21 levels, x = 0.95 needs 41: the step solves differ in size
        ramp = RampSpec(0.1, 0.95, 2.0, steps=11)
        with pytest.raises(ConvergenceGuard, match="truncation level changed"):
            qfi_adiabatic_generator("effective_low", ramp, n_max=20, check_convergence=False)

    def test_constant_requires_equal_endpoints(self):
        with pytest.raises(ValueError):
            RampSpec(0.1, 0.2, 1.0, schedule="constant")

    @pytest.mark.parametrize("family", ["tfim", "tfim_transverse"])
    def test_varying_chain_ramp_refused(self, family):
        # index tracking cannot follow the chains' degenerate clusters
        ramp = RampSpec(0.1, 0.3, 2.0, steps=11)
        with pytest.raises(ValueError, match="unsupported family for ramps"):
            qfi_adiabatic_generator(family, ramp, N=4, check_convergence=False)

    def test_even_steps_refused_with_check(self):
        ramp = RampSpec(0.1, 0.3, 2.0, steps=200)
        with pytest.raises(ValueError, match="odd step count, got 200"):
            qfi_adiabatic_generator("effective_low", ramp, n_max=120)


class TestNormalizedMetrics:
    def test_zero(self):
        assert normalized_metrics(0.0, 0.5) == (0.0, 0.0)

    def test_unit(self):
        assert normalized_metrics(1.0, 1.0) == (1.0, 1.0)

    def test_arithmetic(self):
        qv = 0.25**2 / (8 * 0.75**2)
        gap02 = 2 * math.sqrt(0.75)
        per_t, per_t2 = normalized_metrics(qv, gap02)
        assert per_t == pytest.approx(qv * gap02, rel=1e-12)
        assert per_t2 == pytest.approx(qv * gap02**2, rel=1e-12)

    def test_guard(self):
        with pytest.raises(GapGuard):
            normalized_metrics(1.0, 0.0)


class TestIdentitiesAndBounds:
    @pytest.mark.parametrize("sector,x", [("low", 0.1), ("low", 0.75), ("high", 0.5), ("high", 16.0)])
    def test_variance_derivative_identity_closed_form(self, sector, x):
        # Var(n)/(omega^2 (1 -/+ x)) == 2 (d_omega xi)^2
        sign = -1.0 if sector == "low" else 1.0
        xi = -0.25 * math.log(1 + sign * x)
        nbar = math.sinh(xi) ** 2
        var_n = 2 * nbar * (nbar + 1)
        dxi = x / (4.0 * (1 + sign * x))
        assert abs(var_n / (1 + sign * x) - 2 * dxi**2) <= 1e-12

    @pytest.mark.parametrize(
        "spec",
        [
            ModelSpec(family="lmg", omega=1.0, g=0.8, N=200),
            ModelSpec(family="tfim", omega=1.0, g=0.6, N=10),
            ModelSpec(family="tfim_transverse", omega=1.0, g=-0.9, N=10),
        ],
        ids=lambda s: s.family,
    )
    def test_qfi_sandwich(self, spec):
        inst, dec = models.diagonalize_converged(spec)
        value = qfi_spectral_sum(inst, dec).value
        v0 = dec.vectors[:, 0]
        elems = dec.vectors.conj().T @ (inst.dH_domega.entries @ v0)
        gap = dec.eigenvalues[1] - dec.eigenvalues[0]
        lower = 4 * abs(elems[1]) ** 2 / gap**2
        from anticrit.spectral import variance

        upper = 4 * variance(inst.dH_domega, dec.eigenvector(0)) / gap**2
        assert lower <= value * (1 + 1e-12)
        assert value <= upper * (1 + 1e-12)

    def test_tfim_qfi_even_transverse_odd(self):
        def spectral(family, g):
            inst, dec = models.diagonalize_converged(
                ModelSpec(family=family, omega=1.0, g=g, N=10)
            )
            return qfi_spectral_sum(inst, dec).value

        assert spectral("tfim", 0.5) == pytest.approx(spectral("tfim", -0.5), rel=1e-8)
        a, b = spectral("tfim_transverse", 0.5), spectral("tfim_transverse", -0.5)
        assert abs(a - b) / max(a, b) > 1e-3
