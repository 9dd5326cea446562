"""Parameter-grid pipelines producing the comparison, LMG and chain tables.

Each sweep returns ordered rows (one per grid point) and can serialize
them as a stable CSV plus a JSON metadata sidecar. Guard refusals never
abort a sweep: the affected cells stay empty and the row's status column
names the guard.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable

import numpy as np

from . import __version__, fock, models, qfi
from .errors import NumericalGuard
from .fock import Sector, squeezing_parameter
from .models import ModelSpec
from .spectral import expectation, variance
from .spin import ChainBasis, DickeBasis, collective_spin_ops, total_spin_ops

LOW_SECTOR_EXCLUSION = 1e-3  # half-width of the window dropped around x = 1

EFFECTIVE_COLUMNS = (
    "x_signed",
    "g_over_gc",
    "x",
    "sector",
    "xi",
    "gap01",
    "gap02",
    "qfi_spectral",
    "qfi_analytic",
    "qfi_fd",
    "qfi_times_gap",
    "qfi_times_gap_sq",
    "mean_n",
    "status",
)
LMG_COLUMNS = (
    "g_over_gc",
    "x",
    "gap01",
    "qfi_spectral",
    "qfi_fd",
    "qfi_times_gap",
    "qfi_times_gap_sq",
    "mean_sz",
    "mean_sz_plus_half_N",
    "var_sx",
    "var_sy",
    "var_sz",
    "status",
)
CHAIN_COLUMNS = (
    "g_over_gc",
    "x",
    "gap01",
    "qfi_spectral",
    "qfi_fd",
    "qfi_times_gap",
    "qfi_times_gap_sq",
    "mean_sz",
    "var_sx",
    "var_sy",
    "var_sz",
    "status",
)
# chain grids run on the full 2^N space; finite differences would triple the
# diagonalization count, so qfi_fd is opt-in there via the column selector
CHAIN_DEFAULT_COLUMNS = tuple(c for c in CHAIN_COLUMNS if c != "qfi_fd")


def default_grid(family: str) -> tuple[float, ...]:
    if family == "effective":
        return tuple(np.linspace(-16.0, 0.95, 200))
    if family == "lmg":
        return tuple(np.linspace(0.0, 0.98, 100))
    if family in ("tfim", "tfim_transverse"):
        return tuple(np.linspace(-3.0, 3.0, 121))
    raise ValueError(f"no default grid for family {family!r}")


def grid_from_range(start: float, stop: float, count: int) -> tuple[float, ...]:
    if count < 2:
        raise ValueError(f"range grids need count >= 2, got {count}")
    return tuple(np.linspace(start, stop, count))


@dataclass(frozen=True)
class SweepConfig:
    family: str  # effective | lmg | tfim | tfim_transverse
    grid: tuple[float, ...] = ()
    omega: float = 1.0
    N: int | None = None
    n_max: int | None = None
    columns: tuple[str, ...] | None = None
    out: Path | None = None
    jobs: int = 1

    def __post_init__(self):
        if self.family not in ("effective", "lmg", "tfim", "tfim_transverse"):
            raise ValueError(f"unknown sweep family {self.family!r}")
        grid = tuple(float(v) for v in self.grid) or default_grid(self.family)
        if len(grid) > 1:
            diffs = np.diff(grid)
            if not (np.all(diffs > 0) or np.all(diffs < 0)):
                raise ValueError("grid must be strictly monotone")
        if self.family == "effective":
            grid = tuple(
                v for v in grid if not (abs(v - 1.0) <= LOW_SECTOR_EXCLUSION)
            )
        object.__setattr__(self, "grid", grid)
        if self.family == "lmg" and self.N is None:
            object.__setattr__(self, "N", 200)
        if self.family in ("tfim", "tfim_transverse") and self.N is None:
            object.__setattr__(self, "N", 10)

    @property
    def effective_columns(self) -> tuple[str, ...]:
        if self.columns is not None:
            return self.columns
        if self.family == "effective":
            return EFFECTIVE_COLUMNS
        if self.family == "lmg":
            return LMG_COLUMNS
        return CHAIN_DEFAULT_COLUMNS


def _effective_row(config: SweepConfig, x_signed: float) -> dict[str, Any]:
    sector = Sector.LOW if x_signed >= 0 else Sector.HIGH
    x = abs(x_signed)
    row: dict[str, Any] = {
        "x_signed": x_signed,
        "g_over_gc": math.copysign(math.sqrt(x), x_signed),
        "x": x,
        "sector": sector.value,
        "status": "ok",
    }
    try:
        row["xi"] = squeezing_parameter(sector, x).xi
        spec = ModelSpec.effective(sector, omega=config.omega, x=x, n_max=config.n_max)
        inst, dec = models.diagonalize_converged(spec)
        ground = dec.eigenvector(0)
        row["gap01"] = float(dec.eigenvalues[1] - dec.eigenvalues[0])
        row["gap02"] = float(dec.eigenvalues[2] - dec.eigenvalues[0])
        row["mean_n"] = expectation(inst.dH_domega, ground)
        row["qfi_analytic"] = qfi.qfi_analytic_squeezed(sector, config.omega, x).value
        spectral = qfi.qfi_spectral_sum(inst, dec).value
        row["qfi_spectral"] = spectral
        row["qfi_fd"] = qfi.qfi_state_fd(inst.spec).value
        per_time, per_time_sq = qfi.normalized_metrics(spectral, row["gap01"])
        row["qfi_times_gap"] = per_time
        row["qfi_times_gap_sq"] = per_time_sq
    except NumericalGuard as guard:
        row["status"] = type(guard).__name__
    return row


def _spin_row(config: SweepConfig, g_over_gc: float) -> dict[str, Any]:
    row: dict[str, Any] = {
        "g_over_gc": g_over_gc,
        "x": g_over_gc**2,
        "status": "ok",
    }
    try:
        g = g_over_gc * config.omega  # g_c = omega for every spin family here
        spec = ModelSpec(family=config.family, omega=config.omega, g=g, N=config.N)
        inst, dec = models.diagonalize_converged(spec)
        ground = dec.eigenvector(0)
        if config.family == "lmg":
            sx, sy, sz = collective_spin_ops(DickeBasis(config.N))
        else:
            sx, sy, sz = total_spin_ops(ChainBasis(config.N))
        row["gap01"] = float(dec.eigenvalues[1] - dec.eigenvalues[0])
        row["mean_sz"] = expectation(sz, ground)
        if config.family == "lmg":
            # <Sz + N/2> as the mean of the non-negative diagonal m + N/2 = 0..N;
            # mean_sz + N/2 would cancel about log10(N / (2 <Sz + N/2>)) digits
            probs = np.abs(ground.amplitudes) ** 2
            row["mean_sz_plus_half_N"] = float(np.arange(config.N + 1) @ probs)
        row["var_sx"] = variance(sx, ground)
        row["var_sy"] = variance(sy, ground)
        row["var_sz"] = variance(sz, ground)
        spectral = qfi.qfi_spectral_sum(inst, dec).value
        row["qfi_spectral"] = spectral
        if "qfi_fd" in config.effective_columns:
            row["qfi_fd"] = qfi.qfi_state_fd(spec, check_step=config.family == "lmg").value
        per_time, per_time_sq = qfi.normalized_metrics(spectral, row["gap01"])
        row["qfi_times_gap"] = per_time
        row["qfi_times_gap_sq"] = per_time_sq
    except NumericalGuard as guard:
        row["status"] = type(guard).__name__
    return row


def _map_rows(
    func: Callable[[SweepConfig, float], dict[str, Any]],
    config: SweepConfig,
    points: Iterable[float],
) -> list[dict[str, Any]]:
    points = list(points)
    if config.jobs <= 1:
        return [func(config, p) for p in points]
    with ProcessPoolExecutor(max_workers=config.jobs) as pool:
        return list(pool.map(func, [config] * len(points), points))


def sweep_effective(config: SweepConfig) -> list[dict[str, Any]]:
    """Signed-axis sweep: low sector for x_signed > 0, high for x_signed < 0."""
    return _map_rows(_effective_row, config, config.grid)


def run_sweep(config: SweepConfig) -> list[dict[str, Any]]:
    if config.family == "effective":
        return sweep_effective(config)
    return _map_rows(_spin_row, config, config.grid)


def convergence_report(
    family: str, omega: float, x: float, levels: list[int]
) -> list[dict[str, Any]]:
    """Ground energy, gap and <n> per truncation level for a bosonic family."""
    if family not in models.BOSONIC_FAMILIES:
        raise ValueError(f"convergence report needs a bosonic family, got {family!r}")
    if len(set(levels)) != len(levels):
        raise ValueError("duplicate truncation levels")
    rows: list[dict[str, Any]] = []
    previous = None
    for level in levels:
        if family == "rabi_full":
            spec = ModelSpec.rabi(omega, models.DEFAULT_OMEGA_RATIO * omega, x, n_max=level)
        else:
            sector = Sector.LOW if family == "effective_low" else Sector.HIGH
            spec = ModelSpec.effective(sector, omega=omega, x=x, n_max=level)
        inst = models.build(spec)
        dec = models.ground_decomposition(inst, check_truncation=False)
        ground = dec.eigenvector(0)
        row = {
            "n_max": float(level),
            "ground_energy": float(dec.eigenvalues[0]),
            "gap01": float(dec.eigenvalues[1] - dec.eigenvalues[0]),
            "mean_n": expectation(inst.dH_domega, ground),
            "converged": "",
        }
        if previous is not None:
            scale = max(abs(previous["mean_n"]), abs(row["mean_n"]), 1e-300)
            row["converged"] = (
                "yes" if abs(previous["mean_n"] - row["mean_n"]) / scale <= 1e-10 else "no"
            )
        rows.append(row)
        previous = row
    return rows


def format_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return repr(float(value))


def write_csv(
    rows: list[dict[str, Any]],
    columns: tuple[str, ...],
    path: Path,
    metadata: dict[str, Any] | None = None,
) -> None:
    """Stable CSV: fixed header, shortest round-trip floats, empty = unavailable."""
    path = Path(path)
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(format_cell(row.get(col)) for col in columns))
    path.write_text("\n".join(lines) + "\n")
    if metadata is not None:
        sidecar = path.with_suffix(".meta.json")
        sidecar.write_text(json.dumps(metadata, sort_keys=True, indent=2) + "\n")


def sweep_metadata(config: SweepConfig) -> dict[str, Any]:
    return {
        "artifact": "anticrit",
        "version": __version__,
        "family": config.family,
        "omega": config.omega,
        "N": config.N,
        "n_max": config.n_max,
        "grid": list(config.grid),
        "columns": list(config.effective_columns),
        "tolerances": {
            "degeneracy_tol": qfi.DEGENERACY_TOL,
            "truncation_tol": fock.TRUNCATION_TOL,
            "low_sector_exclusion": LOW_SECTOR_EXCLUSION,
            "fd_step_fraction": qfi.FD_STEP_FRACTION,
        },
    }


def run_and_write(config: SweepConfig) -> list[dict[str, Any]]:
    rows = run_sweep(config)
    if config.out is not None:
        write_csv(rows, config.effective_columns, config.out, sweep_metadata(config))
    return rows
