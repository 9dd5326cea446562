"""Independent references for the benchmark's outputs.

Every check compares one output row (CSV cells as strings, as a user reads
them) or one ramp result against a value computed here without the
anticrit package: closed forms of the squeezed oscillator, the free-fermion
sum of the periodic transverse-field Ising chain, the tridiagonal even-parity
block of the LMG model, a bit-level Z2-sector Hamiltonian of the chain, and
an adaptive quadrature of the two-quasiparticle adiabatic integral.

Tolerances come from conditioning. A dense solve returns the exact
eigenpairs of some H + E with ||E|| <= TOL ||H||, TOL = 128 eps (the
backward-error model of the acceptance suite's golden comparator). To
first order that moves an eigenvalue by TOL ||H|| and a ground state by
TOL ||H|| / D, D the gap to the states the observable connects
(Davis-Kahan). Finite differences of ground states use the acceptance
suite's model of TOL per unit eigenvector, since the worst-case alignment
Davis-Kahan assumes overstates their error by orders of magnitude.

Each check returns a list of (column, message) problems; empty means pass.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg as sla
from scipy.integrate import quad

EPS = float(np.finfo(float).eps)
TOL = 128 * EPS
LIBM_SLACK = 16 * EPS  # relative error of the closed forms evaluated here
DEFAULT_N_MAX = 300  # the library's default Fock truncation (dimension 301)
FD_TRUNCATION_STEP = 1e-3  # step (x omega) at which LMG's O(d^2) term is measured


def _compare(problems, column, value, reference, bound, what):
    bound = bound + LIBM_SLACK * abs(reference)
    if not abs(value - reference) <= bound:
        problems.append(
            (column, f"{column}={value!r} vs {what} {reference!r}: "
                     f"|diff| {abs(value - reference):.3e} > bound {bound:.3e}")
        )


def _cells(row, columns):
    """Float cells of a row; (None, problems) if any is missing or not ok."""
    if row.get("status") != "ok":
        return None, [("status", f"status {row.get('status')!r}, expected 'ok'")]
    missing = [c for c in columns if not row.get(c)]
    if missing:
        return None, [(c, f"{c} is empty") for c in missing]
    return {c: float(row[c]) for c in columns}, []


def _spectral_bound(q, a_norm, h_norm, gap):
    """|dQ| for Q = 4 ||R A psi0||^2 under a backward error TOL ||H||.

    R A psi0 (norm sqrt(Q)/2) moves through psi0 by ||A|| TOL ||H|| / D^2
    (twice: the ground state and the rotation inside R) and through the
    denominators by TOL ||H|| / D relative.
    """
    dv = 2.0 * a_norm * TOL * h_norm / gap**2 + TOL * h_norm * math.sqrt(q) / gap
    return 4.0 * math.sqrt(q) * dv + 4.0 * dv * dv


def _fd_rounding_bound(q, d):
    """|dQ| of 4 ||P (psi+ - psi-) / 2d||^2 when each ground state carries TOL."""
    return 4.0 * math.sqrt(q) * TOL / d + 4.0 * (TOL / d) ** 2


# --- effective oscillator ---------------------------------------------------

def _one_minus_sech_sqrt(t):
    """1 - cosh(t)^(-1/2) without cancellation for small t."""
    return -math.expm1(-0.5 * math.log1p(2.0 * math.sinh(0.5 * t) ** 2))


def effective_fd_exact(sigma, x, omega, d):
    """Exact central-difference QFI of the squeezed vacuum at step d.

    The ground state at omega' (fixed g, Omega) is S(xi')|0>, xi' =
    -ln(1 + sigma x omega/omega')/4, with real positive overlaps
    <S(a)0|S(b)0> = cosh(a - b)^(-1/2), which is the library's gauge.
    """
    def dxi(omega_p):  # xi(omega') - xi(omega)
        ratio_m1 = omega / omega_p - 1.0
        return -0.25 * math.log1p(sigma * x * ratio_m1 / (1.0 + sigma * x))

    up, down = dxi(omega + d), dxi(omega - d)
    norm_sq = 2.0 * _one_minus_sech_sqrt(up - down)  # ||psi+ - psi-||^2
    along = _one_minus_sech_sqrt(down) - _one_minus_sech_sqrt(up)  # <psi0|psi+ - psi->
    return 4.0 * (norm_sq / (4.0 * d * d) - (along / (2.0 * d)) ** 2)


def check_effective_row(row, meta):
    cols = ("x_signed", "x", "gap01", "gap02", "qfi_spectral", "qfi_fd", "mean_n")
    v, problems = _cells(row, cols)
    if v is None:
        return problems
    omega = float(meta["omega"])
    d = float(meta["tolerances"]["fd_step_fraction"]) * omega
    n_max = meta.get("n_max") or DEFAULT_N_MAX
    x = v["x"]
    sigma = -1.0 if v["x_signed"] >= 0 else 1.0  # low sector closes the gap
    expected_sector = "low" if sigma < 0 else "high"
    if row.get("sector") != expected_sector or x != abs(v["x_signed"]):
        problems.append(("sector", f"sector/x {row.get('sector')}/{x} for x_signed {v['x_signed']}"))
    one = 1.0 + sigma * x
    xi = -0.25 * math.log1p(sigma * x)
    eps_ref = omega * math.sqrt(one)
    q_ref = x * x / (8.0 * omega**2 * one**2)
    # the closed forms hold on the infinite Fock space; the exact ground state's
    # weight beyond level 300 is below 1e-50 on the workload's ranges
    h_norm = omega * n_max * (1.0 + x)
    gap = eps_ref  # n connects the ground state only to 2 eps; eps is stricter
    dpsi = TOL * h_norm / gap
    _compare(problems, "gap01", v["gap01"], eps_ref, 2 * TOL * h_norm, "omega sqrt(1-/+x)")
    _compare(problems, "gap02", v["gap02"], 2 * eps_ref, 2 * TOL * h_norm, "2 omega sqrt(1-/+x)")
    s2 = math.sinh(xi) ** 2
    n_psi = math.sqrt(2.0 * s2 * (1.0 + s2) + s2 * s2)  # ||n psi0|| = sqrt(<n^2>)
    _compare(problems, "mean_n", v["mean_n"], s2, 2 * n_psi * dpsi, "sinh^2 xi")
    _compare(problems, "qfi_spectral", v["qfi_spectral"], q_ref,
             _spectral_bound(q_ref, n_max, h_norm, gap), "x^2/(8 w^2 (1-/+x)^2)")
    fd_ref = effective_fd_exact(sigma, x, omega, d)
    _compare(problems, "qfi_fd", v["qfi_fd"], fd_ref, _fd_rounding_bound(q_ref, d),
             f"exact central difference at d={d:g}")
    return problems


# --- LMG ----------------------------------------------------------------------

def lmg_even_block(N, omega, g):
    """Diagonal, off-diagonal and m of omega Sz - (g/N) Sx^2 on m = -N/2, -N/2+2, ..."""
    S = N / 2.0
    m = np.arange(-S, S + 1.0, 2.0)
    casimir = S * (S + 1.0)
    diag = omega * m - (g / N) * (casimir - m * m) / 2.0  # <m|Sx^2|m>
    mm = m[:-1]
    # <m+2|S+^2|m> / 4 is the coupling of Sx^2 between m and m + 2
    off = -(g / N) * np.sqrt(casimir - mm * (mm + 1.0)) * np.sqrt(
        casimir - (mm + 1.0) * (mm + 2.0)) / 4.0
    return diag, off, m


def _lmg_ground(N, omega, g):
    diag, off, m = lmg_even_block(N, omega, g)
    vals, vecs = sla.eigh_tridiagonal(diag, off)
    return vals, vecs, m


def lmg_reference(N, omega, g, d):
    """(QFI, even-block gap, central-difference truncation at step d)."""
    vals, vecs, m = _lmg_ground(N, omega, g)
    v0 = vecs[:, 0]
    elems = vecs.T @ (m * v0)
    dE = vals - vals[0]
    q = float(4.0 * np.sum(elems[1:] ** 2 / dE[1:] ** 2))

    def fd(step):
        def ground(w):
            v = _lmg_ground(N, w, g)[1][:, 0]
            return v if v @ v0 >= 0 else -v
        diff = (ground(omega + step) - ground(omega - step)) / (2.0 * step)
        return 4.0 * (diff @ diff - (v0 @ diff) ** 2)

    # the O(d^2) term measured at a step where rounding is negligible
    big = FD_TRUNCATION_STEP * omega
    truncation = (fd(big) - q) * (d / big) ** 2
    return q, float(dE[1]), truncation


def check_lmg_row(row, meta):
    cols = ("g_over_gc", "qfi_spectral", "qfi_fd", "mean_sz", "var_sx", "var_sy", "var_sz")
    v, problems = _cells(row, cols)
    if v is None:
        return problems
    N, omega = int(meta["N"]), float(meta["omega"])
    d = float(meta["tolerances"]["fd_step_fraction"]) * omega
    g = v["g_over_gc"] * omega
    q_ref, gap, truncation = lmg_reference(N, omega, g, d)
    h_norm = omega * N / 2.0 + abs(g) * N / 4.0
    a_norm = N / 2.0
    spectral = _spectral_bound(q_ref, a_norm, h_norm, gap)
    # both the program and the reference carry a backward error
    _compare(problems, "qfi_spectral", v["qfi_spectral"], q_ref, 2 * spectral,
             "tridiagonal even block")
    _compare(problems, "qfi_fd", v["qfi_fd"], q_ref + truncation,
             _fd_rounding_bound(q_ref, d) + spectral + 0.1 * abs(truncation),
             "even-block QFI + O(d^2) term")
    # Sx, Sy change parity, so <Sx> = <Sy> = 0 and the Casimir fixes the sum;
    # each variance carries at most TOL ||A||^2
    casimir = (N / 2.0) * (N / 2.0 + 1.0)
    total = v["var_sx"] + v["var_sy"] + v["var_sz"] + v["mean_sz"] ** 2
    _compare(problems, "var_sx", total, casimir, 4 * TOL * a_norm**2,
             "S(S+1) via var_sx+var_sy+var_sz+mean_sz^2")
    return problems


# --- chains -------------------------------------------------------------------

def tfim_free_fermion(N, omega, g):
    """(QFI, connected gap) of omega sum sz - g sum sx sx from free fermions.

    The ground state lies in the even-parity sector, antiperiodic momenta
    k = (2m - 1) pi / N; sum sz creates quasiparticle pairs (k, -k).
    """
    k = (2.0 * np.arange(1, N // 2 + 1) - 1.0) * np.pi / N
    e2 = (omega - g * np.cos(k)) ** 2 + (g * np.sin(k)) ** 2
    q = float(np.sum(g**2 * np.sin(k) ** 2 / e2**2))
    return q, float(2.0 * np.sqrt(e2.min()))


def chain_sector_reference(N, omega, g, transverse):
    """(QFI, in-sector gap) from a bit-level H in the two Z2 sectors of prod sz.

    The QFI is the spectral sum in the sector holding the ground state, since
    sum sz conserves the sector.
    """
    states = np.arange(2**N)
    bits = (states[:, None] >> np.arange(N)) & 1  # bit i: site i+1, 1 = up
    spins = 2.0 * bits - 1.0
    z = spins.sum(axis=1)
    zz = (spins * np.roll(spins, -1, axis=1)).sum(axis=1)
    sectors = []
    for parity in (0, 1):
        idx = np.flatnonzero(bits.sum(axis=1) % 2 == parity)
        where = np.full(2**N, -1)
        where[idx] = np.arange(idx.size)
        H = np.diag(omega * z[idx] + (g * zz[idx] if transverse else 0.0))
        cols = np.arange(idx.size)
        for i in range(N):
            flipped = idx ^ ((1 << i) | (1 << ((i + 1) % N)))
            H[where[flipped], cols] -= g
        lowest = sla.eigh(H, eigvals_only=True, subset_by_index=[0, 0])[0]
        sectors.append((lowest, H, z[idx]))
    _, H, z_sector = min(sectors, key=lambda sector: sector[0])
    vals, vecs = sla.eigh(H)  # the full solve only in the sector holding the ground state
    elems = vecs.T @ (z_sector * vecs[:, 0])
    dE = vals - vals[0]
    return float(4.0 * np.sum(elems[1:] ** 2 / dE[1:] ** 2)), float(dE[1])


def check_chain_row(row, meta, transverse):
    v, problems = _cells(row, ("g_over_gc", "qfi_spectral"))
    if v is None:
        return problems
    N, omega = int(meta["N"]), float(meta["omega"])
    g = v["g_over_gc"] * omega
    if transverse:
        q_ref, gap = chain_sector_reference(N, omega, g, True)
        what = "Z2-sector bit-level H"
    else:
        q_ref, gap = tfim_free_fermion(N, omega, g)
        what = "free-fermion sum"
    h_norm = N * (omega + (2 if transverse else 1) * abs(g))
    bound = _spectral_bound(q_ref, float(N), h_norm, gap)
    if transverse:
        bound *= 2  # the reference's own solve carries the same backward error
    _compare(problems, "qfi_spectral", v["qfi_spectral"], q_ref, bound, what)
    return problems


# --- ramps ----------------------------------------------------------------------

def ramp_reference(sector, x_start, x_end, T, omega=1.0):
    """4 |int_0^T exp(-i int_0^t 2 eps(s) ds) sinh(2|xi(t)|)/sqrt(2) dt|^2.

    In an effective sector n connects the ground state only to the
    two-quasiparticle level, at energy 2 eps = 2 omega sqrt(1 -/+ x) above it,
    with matrix element sinh(2|xi|)/sqrt(2) in magnitude.
    """
    sigma = -1.0 if sector == "low" else 1.0
    rate = (x_end - x_start) / T

    def x_at(t):
        return x_start + rate * t

    def phase(t):  # int_0^t 2 omega sqrt(1 + sigma x(s)) ds, closed form
        u0, u1 = 1.0 + sigma * x_start, 1.0 + sigma * x_at(t)
        if rate == 0.0:
            return 2.0 * omega * math.sqrt(u0) * t
        return 2.0 * omega * (2.0 / (3.0 * sigma * rate)) * (u1**1.5 - u0**1.5)

    def element(t):
        xi = -0.25 * math.log1p(sigma * x_at(t))
        return math.sinh(2.0 * abs(xi)) / math.sqrt(2.0)

    opts = dict(epsabs=0.0, epsrel=1e-10, limit=500)
    re = quad(lambda t: math.cos(phase(t)) * element(t), 0.0, T, **opts)[0]
    im = quad(lambda t: -math.sin(phase(t)) * element(t), 0.0, T, **opts)[0]
    return 4.0 * (re * re + im * im)


def check_ramp(ramp):
    """The program's value within its own reported step-halving shift."""
    value, shift = ramp["value"], ramp["shift"]
    if shift is None:
        return [("value", "no step_halving_relative_shift reported")]
    problems = []
    ref = ramp_reference(ramp["sector"], ramp["x_start"], ramp["x_end"], ramp["T"])
    # the quadrature is converged to 1e-10 relative; the trapezoid rule's error
    # is about a third of the halving shift it reports
    _compare(problems, "value", value, ref, shift * abs(value) + 4e-10 * abs(ref),
             "quadrature of the two-quasiparticle integral")
    return problems
