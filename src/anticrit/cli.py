"""Command-line entry point.

Exit codes: 0 success, 2 validation/usage errors, 3 numerical guard
refusals in single-evaluation mode. Every number printed here is
produced by the library; the CLI does no arithmetic of its own.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__, fock, models, qfi, spectral, sweep
from .errors import NumericalGuard
from .fock import Sector
from .models import ModelSpec

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_GUARD = 3

# key = (default value, comment); order defines the template layout
CONFIG_DEFAULTS: dict[str, tuple[str, str]] = {
    "omega": ("1.0", "oscillator / spin frequency, the unit of energy"),
    "Omega": ("", "qubit splitting (rabi_full); empty = 1000 * omega"),
    "n_max": ("300", "initial Fock truncation; doubled automatically up to 4096"),
    "N": ("", "spin count; defaults: 200 (lmg), 10 (chains)"),
    "d_omega": ("", "finite-difference step; empty = 1e-5 * omega"),
    "method": ("spectral_sum", "default QFI estimator for the qfi subcommand"),
    "grid": ("", "start:stop:count grid override for sweeps"),
    "jobs": ("1", "parallel workers for grid evaluation"),
    "steps": ("1001", "time points for the adiabatic generator integral"),
    "schedule": ("linear", "ramp schedule: linear or constant"),
    "levels": ("100,200,400", "truncation levels for the converge subcommand"),
    "t": ("1.0", "free evolution time for phase_imprint / oscillator_evolution"),
    "var_c": ("1.0", "initial-state number variance for oscillator_evolution"),
    "degeneracy_tol": ("1e-09", "ground-state gap below which estimators refuse"),
    "truncation_tol": ("1e-10", "max population allowed in the top two Fock levels"),
    "ramp_gap_tol": ("1e-06", "minimal instantaneous gap along adiabatic ramps"),
    "max_dim": ("16384", "largest matrix the eigensolver will accept"),
}

_TOLERANCE_KEYS = ("degeneracy_tol", "truncation_tol", "ramp_gap_tol", "max_dim")


def emit_config_template(values: dict[str, str] | None = None) -> str:
    """Commented key=value template covering every configurable default."""
    merged = {k: default for k, (default, _) in CONFIG_DEFAULTS.items()}
    if values:
        merged.update(values)
    lines = ["# anticrit configuration (flat key=value; flags override these)"]
    for key, (_, comment) in CONFIG_DEFAULTS.items():
        lines.append(f"# {comment}")
        lines.append(f"{key}={merged[key]}")
    return "\n".join(lines) + "\n"


def parse_config(text: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in CONFIG_DEFAULTS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        values[key] = value.strip()
    return values


def _apply_tolerances(cfg: dict[str, str]) -> None:
    if "degeneracy_tol" in cfg:
        qfi.DEGENERACY_TOL = float(cfg["degeneracy_tol"])
    if "truncation_tol" in cfg:
        fock.TRUNCATION_TOL = float(cfg["truncation_tol"])
    if "ramp_gap_tol" in cfg:
        qfi.RAMP_GAP_TOL = float(cfg["ramp_gap_tol"])
    if "max_dim" in cfg:
        spectral.MAX_DIM = int(cfg["max_dim"])


def _setting(args, cfg: dict[str, str], key: str, cast, default=None):
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if cfg.get(key):
        return cast(cfg[key])
    return default


def _parse_grid(text: str) -> tuple[float, ...]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be start:stop:count, got {text!r}")
    return sweep.grid_from_range(float(parts[0]), float(parts[1]), int(parts[2]))


def _model_spec(args, cfg: dict[str, str]) -> ModelSpec:
    family = args.family
    omega = _setting(args, cfg, "omega", float, 1.0)
    n_max = _setting(args, cfg, "n_max", int)
    N = _setting(args, cfg, "N", int)
    if family in ("effective_low", "effective_high"):
        if args.x is None:
            raise ValueError(f"{family} needs --x")
        sector = Sector.LOW if family == "effective_low" else Sector.HIGH
        return ModelSpec.effective(sector, omega=omega, x=args.x, n_max=n_max)
    if family == "rabi_full":
        Omega = _setting(args, cfg, "Omega", float, models.DEFAULT_OMEGA_RATIO * omega)
        if args.x is not None:
            return ModelSpec.rabi(omega, Omega, args.x, n_max=n_max)
        return ModelSpec(family=family, omega=omega, g=args.g or 0.0, Omega=Omega, n_max=n_max)
    if N is None:
        N = 200 if family == "lmg" else 10
    if args.g is not None:
        g = args.g
    elif args.x is not None:
        # spin families: g_c = omega, signed couplings enter through --g
        g = (args.x**0.5) * omega
    else:
        g = 0.0
    return ModelSpec(family=family, omega=omega, g=g, N=N)


def _print_result(result: qfi.QfiResult, verbose: bool) -> None:
    print(repr(result.value))
    if verbose:
        print(f"method={result.method}")
        for key, value in sorted(result.diagnostics.items()):
            print(f"{key}={value}")


def _cmd_qfi(args, cfg: dict[str, str]) -> int:
    method = args.method or cfg.get("method") or "spectral_sum"
    omega = _setting(args, cfg, "omega", float, 1.0)
    if method == "analytic":
        if args.family not in ("effective_low", "effective_high"):
            raise ValueError("analytic method applies to the effective sectors only")
        sector = Sector.LOW if args.family == "effective_low" else Sector.HIGH
        result = qfi.qfi_analytic_squeezed(sector, omega, args.x)
    elif method == "spectral_sum":
        inst, dec = models.diagonalize_converged(_model_spec(args, cfg))
        result = qfi.qfi_spectral_sum(inst, dec)
    elif method == "state_fd":
        d_omega = _setting(args, cfg, "d_omega", float)
        result = qfi.qfi_state_fd(_model_spec(args, cfg), d_omega=d_omega)
    elif method == "phase_imprint":
        if args.family not in ("effective_low", "effective_high"):
            raise ValueError("phase_imprint here uses the effective squeezed vacuum")
        sector = Sector.LOW if args.family == "effective_low" else Sector.HIGH
        t = _setting(args, cfg, "t", float, 1.0)
        xi = fock.squeezing_parameter(sector, args.x).xi
        state = fock.squeeze_vacuum_auto(xi)
        n_op = fock.number_operator(fock.FockSpace(state.dim - 1))
        result = qfi.qfi_phase_imprint(state, n_op, t)
    elif method == "oscillator_evolution":
        if args.family not in ("effective_low", "effective_high"):
            raise ValueError("oscillator_evolution applies to the effective sectors only")
        sector = Sector.LOW if args.family == "effective_low" else Sector.HIGH
        t = _setting(args, cfg, "t", float, 1.0)
        var_c = _setting(args, cfg, "var_c", float, 1.0)
        result = qfi.qfi_oscillator_evolution(var_c, t, sector, omega, args.x)
    else:
        raise ValueError(f"unknown method {method!r}")
    _print_result(result, args.verbose)
    return EXIT_OK


def _cmd_gap(args, cfg: dict[str, str]) -> int:
    _, dec = models.diagonalize_converged(_model_spec(args, cfg))
    gap = spectral.energy_gap(dec)
    print(repr(gap))
    if args.verbose:
        print(f"dim={dec.dim}")
        print(f"ground_energy={dec.eigenvalues[0]!r}")
    return EXIT_OK


def _cmd_sweep(args, cfg: dict[str, str]) -> int:
    grid: tuple[float, ...] = ()
    grid_text = args.grid or cfg.get("grid") or ""
    if grid_text:
        grid = _parse_grid(grid_text)
    columns = tuple(args.columns.split(",")) if args.columns else None
    config = sweep.SweepConfig(
        family=args.family,
        grid=grid,
        omega=_setting(args, cfg, "omega", float, 1.0),
        N=_setting(args, cfg, "N", int),
        n_max=_setting(args, cfg, "n_max", int),
        columns=columns,
        out=Path(args.out) if args.out else None,
        jobs=_setting(args, cfg, "jobs", int, 1),
    )
    rows = sweep.run_and_write(config)
    if config.out is None:
        print(",".join(config.effective_columns))
        for row in rows:
            print(",".join(sweep.format_cell(row.get(c)) for c in config.effective_columns))
    else:
        print(str(config.out))
    return EXIT_OK


def _cmd_adiabatic(args, cfg: dict[str, str]) -> int:
    ramp = qfi.RampSpec(
        x_start=args.x_start,
        x_end=args.x_end if args.x_end is not None else args.x_start,
        T=args.T,
        steps=_setting(args, cfg, "steps", int, 1001),
        schedule=args.schedule or cfg.get("schedule") or "linear",
    )
    result = qfi.qfi_adiabatic_generator(
        args.family,
        ramp,
        omega=_setting(args, cfg, "omega", float, 1.0),
        n_max=_setting(args, cfg, "n_max", int),
        N=_setting(args, cfg, "N", int),
    )
    _print_result(result, args.verbose)
    return EXIT_OK


def _cmd_converge(args, cfg: dict[str, str]) -> int:
    levels_text = args.levels or cfg.get("levels") or "100,200,400"
    levels = [int(v) for v in levels_text.split(",") if v.strip()]
    rows = sweep.convergence_report(
        args.family, _setting(args, cfg, "omega", float, 1.0), args.x, levels
    )
    columns = ("n_max", "ground_energy", "gap01", "mean_n", "converged")
    if args.out:
        sweep.write_csv(rows, columns, Path(args.out))
        print(args.out)
    else:
        print(",".join(columns))
        for row in rows:
            print(",".join(sweep.format_cell(row.get(c)) for c in columns))
    return EXIT_OK


def _cmd_config_template(args, cfg: dict[str, str]) -> int:
    text = emit_config_template(cfg or None)
    if args.out:
        Path(args.out).write_text(text)
        print(args.out)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anticrit",
        description="Exact-diagonalization and QFI toolkit for gap-engineered metrology",
    )
    parser.add_argument("--config", type=Path, help="flat key=value configuration file")
    sub = parser.add_subparsers(dest="command", required=True)

    families = models.FAMILIES

    def add_common(p, with_family=True):
        if with_family:
            p.add_argument("--family", required=True, choices=families)
        p.add_argument("--omega", type=float, default=None)
        p.add_argument("--Omega", type=float, default=None)
        p.add_argument("--g", type=float, default=None)
        p.add_argument("--x", type=float, default=None)
        p.add_argument("--N", type=int, default=None)
        p.add_argument("--n-max", dest="n_max", type=int, default=None)
        p.add_argument("--verbose", action="store_true")

    p_qfi = sub.add_parser("qfi", help="single-point QFI evaluation")
    add_common(p_qfi)
    p_qfi.add_argument(
        "--method",
        choices=("analytic", "spectral_sum", "state_fd", "phase_imprint", "oscillator_evolution"),
        default=None,
    )
    p_qfi.add_argument("--t", type=float, default=None)
    p_qfi.add_argument("--var-c", dest="var_c", type=float, default=None)
    p_qfi.add_argument("--d-omega", dest="d_omega", type=float, default=None)
    p_qfi.set_defaults(func=_cmd_qfi)

    p_gap = sub.add_parser("gap", help="ground-state energy gap")
    add_common(p_gap)
    p_gap.set_defaults(func=_cmd_gap)

    p_sweep = sub.add_parser("sweep", help="parameter-grid sweep to CSV")
    p_sweep.add_argument(
        "--family", required=True, choices=("effective", "lmg", "tfim", "tfim_transverse")
    )
    p_sweep.add_argument(
        "--grid", help="start:stop:count; write a negative start as --grid=-3:3:121"
    )
    p_sweep.add_argument("--columns", help="comma-separated column subset")
    p_sweep.add_argument("--out", help="CSV output path (stdout if omitted)")
    p_sweep.add_argument("--omega", type=float, default=None)
    p_sweep.add_argument("--N", type=int, default=None)
    p_sweep.add_argument("--n-max", dest="n_max", type=int, default=None)
    p_sweep.add_argument("--jobs", type=int, default=None)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_ad = sub.add_parser("adiabatic", help="adiabatic-generator QFI along a ramp")
    add_common(p_ad)
    p_ad.add_argument("--x-start", dest="x_start", type=float, required=True)
    p_ad.add_argument("--x-end", dest="x_end", type=float, default=None)
    p_ad.add_argument("--T", type=float, required=True)
    p_ad.add_argument("--steps", type=int, default=None)
    p_ad.add_argument("--schedule", choices=("linear", "constant"), default=None)
    p_ad.set_defaults(func=_cmd_adiabatic)

    p_conv = sub.add_parser("converge", help="truncation convergence report")
    p_conv.add_argument("--family", required=True, choices=models.BOSONIC_FAMILIES)
    p_conv.add_argument("--x", type=float, required=True)
    p_conv.add_argument("--omega", type=float, default=None)
    p_conv.add_argument("--levels", help="comma-separated n_max levels")
    p_conv.add_argument("--out")
    p_conv.set_defaults(func=_cmd_converge)

    p_ver = sub.add_parser("version", help="print version")
    p_ver.set_defaults(func=lambda args, cfg: (print(__version__), EXIT_OK)[1])

    p_tpl = sub.add_parser("config-template", help="emit a commented config template")
    p_tpl.add_argument("--out")
    p_tpl.set_defaults(func=_cmd_config_template)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = {}
        if args.config is not None:
            cfg = parse_config(Path(args.config).read_text())
            _apply_tolerances({k: v for k, v in cfg.items() if k in _TOLERANCE_KEYS and v})
        return args.func(args, cfg)
    except NumericalGuard as guard:
        print(f"{type(guard).__name__}: {guard}", file=sys.stderr)
        return EXIT_GUARD
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
