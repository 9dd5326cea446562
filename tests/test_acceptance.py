"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line on the real terminal (capture
temporarily disabled) so the verdicts stay visible in any pytest
invocation.
"""

import csv
import json
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from anticrit import models, qfi
from anticrit.fock import DEFAULT_N_MAX, FockSpace, number_operator, squeeze_vacuum
from anticrit.models import ModelSpec
from anticrit.qfi import RampSpec
from anticrit.spectral import expectation, variance
from anticrit.sweep import SweepConfig, run_and_write

GOLDEN = Path(__file__).parent / "golden"

LOW_GRID = (0.1, 0.25, 0.5, 0.75, 0.9)
HIGH_GRID = (0.5, 1.0, 4.0, 16.0)


@contextmanager
def verdict(capsys, num, title):
    """Print the PASS/FAIL line, followed by any notes the test appended to the yielded list."""
    notes = []

    def emit(status):
        detail = "".join(f"; {note}" for note in notes)
        with capsys.disabled():
            print(f"acceptance {num:2d} ({title}): {status}{detail}", flush=True)

    try:
        yield notes
    except BaseException:
        emit("FAIL")
        raise
    else:
        emit("PASS")


def closed_form_qfi(sector, x):
    sign = -1.0 if sector == "low" else 1.0
    return x**2 / (8.0 * (1.0 + sign * x) ** 2)


def test_01_closure_critical_side(capsys):
    with verdict(capsys, 1, "spectral sum vs closed form, gap-closing sector"):
        t0 = time.perf_counter()
        for x in LOW_GRID:
            inst, dec = models.diagonalize_converged(ModelSpec.effective("low", x=x))
            value = qfi.qfi_spectral_sum(inst, dec).value
            expected = closed_form_qfi("low", x)
            assert abs(value - expected) / expected <= 1e-6, f"x={x}"
        assert time.perf_counter() - t0 < 5.0


def test_02_closure_anticritical_side(capsys):
    with verdict(capsys, 2, "spectral sum vs closed form, gap-opening sector"):
        for x in HIGH_GRID:
            inst, dec = models.diagonalize_converged(ModelSpec.effective("high", x=x))
            value = qfi.qfi_spectral_sum(inst, dec).value
            expected = closed_form_qfi("high", x)
            assert abs(value - expected) / expected <= 1e-6, f"x={x}"
        plateau = qfi.qfi_analytic_squeezed("high", 1.0, 400.0).value
        assert abs(plateau - 0.125) / 0.125 <= 0.01


def test_03_variance_identity(capsys):
    with verdict(capsys, 3, "number variance vs squeezing-derivative identity"):
        for sector, grid in (("low", LOW_GRID), ("high", HIGH_GRID)):
            sign = -1.0 if sector == "low" else 1.0
            for x in grid:
                denom = 1.0 + sign * x
                xi = -0.25 * math.log(denom)
                nbar = math.sinh(xi) ** 2
                var_closed = 2.0 * nbar * (nbar + 1.0)
                dxi = x / (4.0 * denom)
                assert abs(var_closed / denom - 2.0 * dxi**2) <= 1e-12
                inst, dec = models.diagonalize_converged(
                    ModelSpec.effective(sector, x=x)
                )
                var_num = variance(inst.dH_domega, dec.eigenvector(0))
                assert abs(var_num / denom - 2.0 * dxi**2) <= 1e-6


def test_04_phase_imprint(capsys):
    with verdict(capsys, 4, "free-evolution QFI of the squeezed vacuum"):
        xi = 0.25 * math.log(4.0)  # x = 0.75, printed elsewhere as 0.346574
        space = FockSpace(80)
        state = squeeze_vacuum(xi, space)
        n_op = number_operator(space)
        value = qfi.qfi_phase_imprint(state, n_op, 1.0).value
        assert abs(value - 1.125) <= 1e-8
        # fidelity route: overlap of time-evolved states at omega and omega+d
        t, d = 1.0, 1e-3
        probs = np.abs(state.amplitudes) ** 2
        ns = np.arange(space.dim)
        ovl = abs(np.sum(probs * np.exp(-1j * d * t * ns)))
        fidelity_value = 8.0 * (1.0 - ovl) / d**2
        assert abs(fidelity_value - value) / value <= 1e-4


def test_05_adiabatic_generator_oracle(capsys):
    with verdict(capsys, 5, "generator integral vs constant-Hamiltonian oracle"):
        inst, dec = models.diagonalize_converged(ModelSpec.effective("low", x=0.25))
        v0 = dec.vectors[:, 0]
        elems = dec.vectors.conj().T @ (inst.dH_domega.entries @ v0)
        dE = dec.eigenvalues - dec.eigenvalues[0]

        def oracle(T):
            return float(
                np.sum(
                    4.0 * np.abs(elems[1:]) ** 2 * 2.0 * (1.0 - np.cos(dE[1:] * T)) / dE[1:] ** 2
                )
            )

        T_zero = 2.0 * math.pi / (2.0 * math.sqrt(0.75))  # full period of the 0-2 gap
        for T in (1.0, 2.5, T_zero):
            ramp = RampSpec(0.25, 0.25, T, steps=1001, schedule="constant")
            value = qfi.qfi_adiabatic_generator("effective_low", ramp).value
            expected = oracle(T)
            if expected > 1e-12:
                assert abs(value - expected) / expected <= 1e-4, f"T={T}"
            else:
                assert value <= 1e-6, f"T={T}"


def test_06_qfi_sandwich(capsys):
    with verdict(capsys, 6, "two-sided spectral bounds across spin families"):
        t0 = time.perf_counter()
        cases = [
            ModelSpec(family="lmg", omega=1.0, g=g, N=200)
            for g in np.linspace(0.0, 0.98, 25)
        ]
        cases += [
            ModelSpec(family=family, omega=1.0, g=g, N=10)
            for family in ("tfim", "tfim_transverse")
            for g in np.linspace(-3.0, 3.0, 25)
        ]
        for spec in cases:
            inst, dec = models.diagonalize_converged(spec)
            value = qfi.qfi_spectral_sum(inst, dec).value
            v0 = dec.vectors[:, 0]
            elems = dec.vectors.conj().T @ (inst.dH_domega.entries @ v0)
            gap = dec.eigenvalues[1] - dec.eigenvalues[0]
            lower = 4.0 * abs(elems[1]) ** 2 / gap**2
            upper = 4.0 * variance(inst.dH_domega, dec.eigenvector(0)) / gap**2
            slack = 1e-12 * max(upper, 1.0)
            assert lower <= value + slack, spec
            assert value <= upper + slack, spec
        assert time.perf_counter() - t0 < 60.0


def test_07_symmetry_falsification(capsys):
    with verdict(capsys, 7, "coupling-sign symmetry vs asymmetric-gap chain"):
        def gap_and_qfi(family, g):
            inst, dec = models.diagonalize_converged(
                ModelSpec(family=family, omega=1.0, g=g, N=10)
            )
            gap = float(dec.eigenvalues[1] - dec.eigenvalues[0])
            return gap, qfi.qfi_spectral_sum(inst, dec).value

        for g in (0.5, 1.0, 2.0):
            gap_p, qfi_p = gap_and_qfi("tfim", g)
            gap_m, qfi_m = gap_and_qfi("tfim", -g)
            assert abs(gap_p - gap_m) <= 1e-8
            assert abs(qfi_p - qfi_m) <= 1e-8 * max(qfi_p, 1.0)
        gap_p, _ = gap_and_qfi("tfim_transverse", 0.5)
        gap_m, _ = gap_and_qfi("tfim_transverse", -0.5)
        assert abs(gap_p - gap_m) > 1e-3
        gap0, _ = gap_and_qfi("tfim_transverse", 0.0)
        for g in (0.5, 1.0, 1.5, 2.0):
            gap_neg, _ = gap_and_qfi("tfim_transverse", -g)
            assert gap_neg > gap0, f"|g|={g}"


def test_08_scaling_slopes(capsys):
    with verdict(capsys, 8, "log-log scaling exponents of the divergence laws"):
        xs = np.linspace(0.9, 0.99, 10)
        qfi_vals = np.array([qfi.qfi_analytic_squeezed("low", 1.0, x).value for x in xs])
        # the closed form x^2/(8(1-x)^2) carries a slowly varying x^2 factor;
        # the divergence exponent is read off after dividing it out
        slope_qfi = np.polyfit(np.log(1.0 - xs), np.log(qfi_vals / xs**2), 1)[0]
        assert abs(slope_qfi - (-2.0)) <= 0.05
        from anticrit.fock import mean_excitations, squeezing_parameter

        near = np.array(
            [mean_excitations(squeezing_parameter("low", x)).near_critical for x in xs]
        )
        slope_n_low = np.polyfit(np.log(1.0 - xs), np.log(near), 1)[0]
        assert abs(slope_n_low - (-0.5)) <= 0.05
        # the exact sinh^2 excitation number approaches the same exponent
        exact = np.array([math.sinh(-0.25 * math.log(1.0 - x)) ** 2 for x in xs])
        assert np.abs(exact / near - 1.0).max() < 0.6
        xh = np.geomspace(25.0, 400.0, 10)
        anti = np.array(
            [mean_excitations(squeezing_parameter("high", x)).near_critical for x in xh]
        )
        slope_n_high = np.polyfit(np.log(xh), np.log(anti), 1)[0]
        assert abs(slope_n_high - 0.5) <= 0.05


def test_09_full_model_consistency(capsys):
    with verdict(capsys, 9, "full light-matter model converges to the reduced sector"):
        target = math.sinh(-0.25 * math.log(0.5)) ** 2  # 0.0303301 at x = 0.5
        errors = []
        for Omega in (50.0, 200.0, 1000.0):
            inst, dec = models.diagonalize_converged(
                ModelSpec.rabi(1.0, Omega, 0.5, n_max=120)
            )
            nbar = expectation(inst.dH_domega, dec.eigenvector(0))
            errors.append(abs(nbar - target))
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] < 1e-3


# Golden sweeps: bytes are reproducible only on one numpy/LAPACK build, since
# another build rounds the eigensolver differently. Cells that carry no
# eigensolver rounding are compared exactly (grid and labels) or to a few ulps
# (libm results); each eigensolver-derived cell must satisfy
# |new - golden| <= bound, with the bound propagated from the solver's backward
# error. A build returns the exact eigenpairs of some H + dH with
# ||dH|| <= TOL ||H||, which moves each eigenvalue by at most TOL ||H|| and,
# across connected gaps of order omega on the default grids, each eigenvector
# by at most TOL (in units where omega = 1). Two builds differ by twice that.
#
# Measured between numpy 2.4.6 / scipy-openblas 0.3.31 and the goldens' build,
# the largest drift is 4.2 x (2 TOL ||H||) on gaps, 12 x (2 TOL ||A||) on
# means, 12 x (2 TOL ||A||^2) on variances, 4.3 x the qfi_spectral scale and
# 16.5 x the qfi_fd scale, each taken with TOL = eps. TOL = 128 eps leaves a
# factor >= 7 above every measured drift, while a 1e-6 relative change of any
# cell of magnitude >= 1e-3 still exceeds its bound (test_10_golden_comparator).
EXACT_COLUMNS = frozenset({"x_signed", "g_over_gc", "x", "sector", "status"})
LIBM_COLUMNS = frozenset({"xi", "qfi_analytic"})  # log/sqrt/arithmetic only
LIBM_ULPS = 4
TOL = 128 * np.finfo(float).eps
MEAN_COLUMNS = ("mean_n", "mean_sz", "mean_sz_plus_half_N")
VARIANCE_COLUMNS = ("var_sx", "var_sy", "var_sz")


def _operator_norms(family, meta, row):
    """Upper bounds on ||H|| and on ||A||, A the observable of the mean/var columns."""
    omega = meta["omega"]
    if family == "effective":
        # omega n -/+ (x omega / 4)(a + a^dag)^2 with ||(a + a^dag)^2|| <= 4 n_max;
        # rows that escalated n_max would have a larger norm, so this errs strict
        n_max = meta["n_max"] or DEFAULT_N_MAX
        return omega * n_max * (1.0 + float(row["x"])), float(n_max)
    N = meta["N"]
    g = abs(float(row["g_over_gc"])) * omega
    if family == "lmg":  # omega Sz - (g/N) Sx^2, ||Sx^2|| = (N/2)^2
        return omega * N / 2.0 + g * N / 4.0, N / 2.0
    couplings = 2 if family == "tfim_transverse" else 1  # sigma_x sigma_x (+ sigma_z sigma_z)
    return N * (omega + couplings * g), N / 2.0


def _product_bound(factors):
    """Worst-case error of a product of (value, bound) pairs."""
    exact = perturbed = 1.0
    for value, bound in factors:
        exact *= abs(value)
        perturbed *= abs(value) + bound
    return perturbed - exact


def _eigensolver_bounds(family, meta, row):
    """Accepted |new - golden| per eigensolver-derived column of one golden row."""
    h, a = _operator_norms(family, meta, row)
    omega = meta["omega"]
    d = meta["tolerances"]["fd_step_fraction"] * omega
    bounds = {}
    # gaps: difference of two eigenvalues, each within TOL ||H|| on either build
    bounds["gap01"] = bounds["gap02"] = 2.0 * TOL * h
    # <A> moves by 2 <A dpsi> <= 2 ||A|| TOL; the goldens' lmg mean_sz_plus_half_N
    # (mean_sz + N/2) and var_sz (<A^2> - <A>^2) carry cancellation errors of
    # 6.5 eps ||A|| and 9 eps ||A||^2, inside these bounds
    for col in MEAN_COLUMNS:
        bounds[col] = 2.0 * TOL * a
    # Var(A) moves by 2 <(A - <A>) psi | A dpsi> <= 2 ||A||^2 TOL
    for col in VARIANCE_COLUMNS:
        bounds[col] = 2.0 * TOL * a * a
    # QFI = 4 ||R A psi0||^2 with R the reduced resolvent (norm ~ 1/omega): the
    # vector R A psi0 (norm sqrt(QFI)/2) moves by ||A|| TOL / omega through
    # psi0 and the denominators by TOL ||H|| / omega relative; the square of
    # the matrix-element error keeps a floor where the QFI vanishes exactly
    if row.get("qfi_spectral"):
        q = abs(float(row["qfi_spectral"]))
        bounds["qfi_spectral"] = (
            TOL * (4.0 * a * math.sqrt(q) + 2.0 * h * q) / omega
            + 4.0 * (TOL * a / omega) ** 2
        )
        gap = abs(float(row["gap01"]))
        qfi_pair = (q, bounds["qfi_spectral"])
        gap_pair = (gap, bounds["gap01"])
        bounds["qfi_times_gap"] = _product_bound([qfi_pair, gap_pair])
        bounds["qfi_times_gap_sq"] = _product_bound([qfi_pair, gap_pair, gap_pair])
    # central differences of ground states divide their TOL error by d:
    # QFI_fd = 4 ||P dpsi/domega||^2 with ||P dpsi/domega|| = sqrt(QFI)/2
    if row.get("qfi_fd"):
        q = abs(float(row["qfi_fd"]))
        bounds["qfi_fd"] = 4.0 * math.sqrt(q) * TOL / d + 4.0 * (TOL / d) ** 2
    return bounds


def golden_margins(family, new_text, golden_text, meta):
    """Compare a sweep CSV with its golden under the contract above.

    Returns (problem, worst). problem describes a mismatch of the exact
    parts (header, row count, exact or emptied cells), else None. worst is
    (|new - golden|/bound, row, column, detail) for the bounded cell with the
    largest ratio, or None when no cell is bounded or a problem was found.
    """
    new_rows = list(csv.reader(new_text.splitlines()))
    golden_rows = list(csv.reader(golden_text.splitlines()))
    if new_rows[0] != golden_rows[0]:
        return f"{family}: header {new_rows[0]} != {golden_rows[0]}", None
    if len(new_rows) != len(golden_rows):
        return f"{family}: {len(new_rows) - 1} rows, golden has {len(golden_rows) - 1}", None
    header = golden_rows[0]
    worst = None
    for index, (new_cells, golden_cells) in enumerate(zip(new_rows[1:], golden_rows[1:])):
        if len(new_cells) != len(header):
            return f"{family} row {index}: {len(new_cells)} cells for {len(header)} columns", None
        new, golden = dict(zip(header, new_cells)), dict(zip(header, golden_cells))
        bounds = None
        for col in header:
            if col in EXACT_COLUMNS or new[col] == "" or golden[col] == "":
                if new[col] != golden[col]:
                    where = f"{family} row {index} column {col}"
                    return f"{where}: {new[col]!r} != golden {golden[col]!r}", None
                continue
            x, y = float(new[col]), float(golden[col])
            if col in LIBM_COLUMNS:
                bound = LIBM_ULPS * np.spacing(abs(y))
            else:
                if bounds is None:
                    bounds = _eigensolver_bounds(family, meta, golden)
                bound = bounds[col]  # a new column needs a documented bound
            diff = abs(x - y)
            ratio = diff / bound if bound else (0.0 if diff == 0 else math.inf)
            if math.isnan(ratio):  # a NaN cell matches no golden value
                ratio = math.inf
            if worst is None or ratio > worst[0]:
                detail = f"{x!r} vs golden {y!r}, |diff| {diff:.3e}, bound {bound:.3e}"
                worst = (ratio, index, col, detail)
    return None, worst


def golden_mismatch(family, new_text, golden_text, meta):
    """None if a sweep CSV matches its golden under the contract above, else
    a description of the worst violation (family, row, column, values, bound)."""
    return margins_mismatch(family, *golden_margins(family, new_text, golden_text, meta))


def margins_mismatch(family, problem, worst):
    """golden_mismatch's verdict from golden_margins' result."""
    if problem is None and worst is not None and worst[0] > 1.0:
        ratio, index, col, detail = worst
        problem = f"{family} row {index} column {col}: {detail}, ratio {ratio:.3g} > 1"
    return problem


@pytest.mark.parametrize("family", ["effective", "lmg", "tfim", "tfim_transverse"])
def test_10_reproducibility(family, tmp_path, capsys):
    with verdict(capsys, 10, f"default {family} sweep reproducible vs golden") as notes:
        out = tmp_path / f"{family}.csv"
        t0 = time.perf_counter()
        run_and_write(SweepConfig(family=family, out=out))
        elapsed = time.perf_counter() - t0
        assert elapsed < 120.0, f"{elapsed:.1f}s"
        golden = GOLDEN / f"{family}.csv"
        assert (
            out.with_suffix(".meta.json").read_bytes()
            == golden.with_suffix(".meta.json").read_bytes()
        )
        meta = json.loads(golden.with_suffix(".meta.json").read_text())
        new_text, golden_text = out.read_text(), golden.read_text()
        problem, worst = golden_margins(family, new_text, golden_text, meta)
        if worst is not None:
            notes.append(
                f"worst |new - golden|/bound = {worst[0]:.4g} at row {worst[1]} column {worst[2]}"
            )
        problem = margins_mismatch(family, problem, worst)
        assert problem is None, problem


def test_10_golden_comparator(capsys):
    with verdict(capsys, 10, "golden comparator rejects perturbed copies"):
        for golden in sorted(GOLDEN.glob("*.csv")):
            family = golden.stem
            meta = json.loads(golden.with_suffix(".meta.json").read_text())
            text = golden.read_text()
            assert golden_mismatch(family, text, text, meta) is None, family
            lines = text.splitlines()
            header = lines[0].split(",")
            cells = [line.split(",") for line in lines[1:]]

            def rejected(rows):
                edited = "\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n"
                return golden_mismatch(family, edited, text, meta) is not None

            for j, col in enumerate(header):
                if col in ("sector", "status"):
                    continue
                # the smallest cell of magnitude >= 1e-3 is the hardest to flag
                i = min(
                    (i for i, r in enumerate(cells) if abs(float(r[j])) >= 1e-3),
                    key=lambda i: abs(float(cells[i][j])),
                )
                changed = [list(r) for r in cells]
                changed[i][j] = repr(float(cells[i][j]) * (1.0 + 1e-6))
                assert rejected(changed), f"{family} {col} row {i}: 1e-6 change accepted"
            for j, col in enumerate(header):
                emptied = [list(r) for r in cells]
                emptied[len(cells) // 2][j] = ""
                assert rejected(emptied), f"{family} {col}: emptied cell accepted"
                if col not in ("sector", "status"):
                    emptied[len(cells) // 2][j] = "nan"
                    assert rejected(emptied), f"{family} {col}: NaN cell accepted"
            relabelled = [list(r) for r in cells]
            relabelled[0][-1] = "DegeneracyGuard"
            assert header[-1] == "status" and rejected(relabelled), family
            assert rejected(cells[:-1]), f"{family}: dropped row accepted"
            assert rejected(cells[:5] + cells[6:]), f"{family}: dropped row accepted"
