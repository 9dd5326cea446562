"""Parameter-grid pipelines producing the comparison, LMG and chain tables.

Each sweep returns ordered rows (one per grid point) and can serialize
them as a stable CSV plus a JSON metadata sidecar. Guard refusals never
abort a sweep: the affected cells stay empty and the row's status column
names the guard.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable

import numpy as np

from . import __version__, fock, models, qfi
from .errors import NumericalGuard
from .fock import Sector, squeezing_parameter
from .models import ModelInstance, ModelSpec
from .spectral import GroundSector, eigendecompose, energy_gap, expectation, image_variance
from .spin import ChainBasis, DickeBasis, apply_collective_spin, apply_total_spin

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
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValueError(f"range grids need finite ends, got {start}:{stop}")
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
        if self.N is None:  # recorded in .meta.json, so filled here and not only by ModelSpec
            object.__setattr__(self, "N", models.DEFAULT_N.get(self.family))

    @property
    def effective_columns(self) -> tuple[str, ...]:
        if self.columns is not None:
            return self.columns
        if self.family == "effective":
            return EFFECTIVE_COLUMNS
        if self.family == "lmg":
            return LMG_COLUMNS
        return CHAIN_DEFAULT_COLUMNS


def _fill_qfi_cells(
    row: dict[str, Any],
    inst: ModelInstance,
    sector: GroundSector,
    with_fd: bool,
    check_step: bool = True,
) -> None:
    """gap01, qfi_spectral, qfi_fd if asked for, and the gap-normalized QFI, in that order.

    A guard raised on the way leaves the cells filled before it.
    """
    row["gap01"] = energy_gap(sector)
    spectral = qfi.qfi_spectral_sum(inst, sector).value
    row["qfi_spectral"] = spectral
    if with_fd:
        row["qfi_fd"] = qfi.qfi_state_fd(inst.spec, check_step=check_step, centre=(inst, sector)).value
    row["qfi_times_gap"], row["qfi_times_gap_sq"] = qfi.normalized_metrics(spectral, row["gap01"])


def _effective_row(config: SweepConfig, x_signed: float) -> dict[str, Any]:
    """Signed axis: low sector for x_signed >= 0, high for x_signed < 0."""
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
        inst, block = models.ground_sector_converged(spec)
        row["gap02"] = float(block.levels[2] - block.levels[0])
        row["mean_n"] = expectation(inst.dH_domega, block.state)
        row["qfi_analytic"] = qfi.qfi_analytic_squeezed(sector, config.omega, x).value
        _fill_qfi_cells(row, inst, block, with_fd=True)
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
        inst, block = models.ground_sector_converged(spec)
        psi = block.state.amplitudes
        if config.family == "lmg":
            images = apply_collective_spin(DickeBasis(config.N), psi)
            # <Sz + N/2> as the mean of the non-negative diagonal m + N/2 = 0..N;
            # mean_sz + N/2 would cancel about log10(N / (2 <Sz + N/2>)) digits
            row["mean_sz_plus_half_N"] = float(np.arange(config.N + 1) @ np.abs(psi) ** 2)
        else:
            images = apply_total_spin(ChainBasis(config.N), psi)
        row["mean_sz"] = float(np.vdot(psi, images[2]).real)
        for name, image in zip(("var_sx", "var_sy", "var_sz"), images):
            row[name] = image_variance(psi, image)
        _fill_qfi_cells(
            row, inst, block,
            with_fd="qfi_fd" in config.effective_columns,
            check_step=config.family == "lmg",
        )
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
    # imported here: it loads multiprocessing (about 0.35 MB of RSS), which a
    # one-process sweep never uses
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=config.jobs) as pool:
        return list(pool.map(func, [config] * len(points), points))


def run_sweep(config: SweepConfig) -> list[dict[str, Any]]:
    make_row = _effective_row if config.family == "effective" else _spin_row
    return _map_rows(make_row, config, config.grid)


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
        inst = models.build(ModelSpec.at(family, x, omega, n_max=level))
        dec = eigendecompose(inst.H, basis=inst.basis)
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


def csv_text(rows: list[dict[str, Any]], columns: tuple[str, ...]) -> str:
    """Stable CSV: fixed header, shortest round-trip floats, empty = unavailable."""
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(format_cell(row.get(col)) for col in columns))
    return "\n".join(lines) + "\n"


def write_csv(
    rows: list[dict[str, Any]],
    columns: tuple[str, ...],
    path: Path,
    metadata: dict[str, Any] | None = None,
) -> None:
    """``csv_text`` at path, with the metadata as a .meta.json sidecar when given."""
    path = Path(path)
    path.write_text(csv_text(rows, columns))
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
