"""Command-line entry point.

Exit codes: 0 success, 2 validation/usage errors (a number that overflows
the arithmetic included), 3 numerical guard refusals in single-evaluation
mode. Every number printed here is produced by the library; the CLI does
no arithmetic of its own.
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

# key = (default value, comment); order defines the template layout. A key
# is also the dest of the options that read it, so a --config value becomes
# their default and a flag still wins over it.
CONFIG_DEFAULTS: dict[str, tuple[str, str]] = {
    "omega": ("1.0", "oscillator / spin frequency, the unit of energy"),
    "Omega": ("", "qubit splitting (rabi_full); empty = 1000 * omega"),
    "n_max": (
        str(fock.DEFAULT_N_MAX),
        f"initial Fock truncation; doubled automatically up to {fock.N_MAX_CAP}",
    ),
    "N": ("", "spin count; defaults: {lmg} (lmg), {tfim} (chains)".format_map(models.DEFAULT_N)),
    "d_omega": ("", "finite-difference step; empty = 1e-5 * omega"),
    "method": ("spectral_sum", "default QFI estimator for the qfi subcommand"),
    "grid": ("", "start:stop:count grid override for sweeps"),
    "jobs": (str(sweep.SweepConfig.jobs), "parallel workers for grid evaluation"),
    "steps": (str(qfi.RampSpec.steps), "time points for the adiabatic generator integral"),
    "schedule": ("linear", "ramp schedule: linear or constant"),
    "levels": ("100,200,400", "truncation levels for the converge subcommand"),
    "t": ("1.0", "free evolution time for phase_imprint / oscillator_evolution"),
    "var_c": ("1.0", "initial-state number variance for oscillator_evolution"),
    "degeneracy_tol": (str(qfi.DEGENERACY_TOL), "ground-state gap below which estimators refuse"),
    "truncation_tol": (
        str(fock.TRUNCATION_TOL), "max population allowed in the top two Fock levels"
    ),
    "ramp_gap_tol": (
        str(qfi.RAMP_GAP_TOL), "minimal instantaneous gap inside the ground state's block along adiabatic ramps"
    ),
    "max_dim": (str(spectral.MAX_DIM), "largest matrix the eigensolver will accept"),
}

# config key -> (module, attribute, type); main sets them for one call only
_TOLERANCES = {
    "degeneracy_tol": (qfi, "DEGENERACY_TOL", float),
    "truncation_tol": (fock, "TRUNCATION_TOL", float),
    "ramp_gap_tol": (qfi, "RAMP_GAP_TOL", float),
    "max_dim": (spectral, "MAX_DIM", int),
}


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


def _apply_tolerances(values: dict) -> None:
    for key, (module, name, cast) in _TOLERANCES.items():
        if key in values:
            setattr(module, name, cast(values[key]))


def _default(key: str) -> str | None:
    """The template's value of key as an option default; empty means unset."""
    return CONFIG_DEFAULTS[key][0] or None


def _parse_grid(text: str) -> tuple[float, ...]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be start:stop:count, got {text!r}")
    return sweep.grid_from_range(float(parts[0]), float(parts[1]), int(parts[2]))


def _model_spec(args) -> ModelSpec:
    """The spec at --g when given, else at --x; unset fields take the family defaults."""
    fields = dict(omega=args.omega, Omega=args.Omega, N=args.N, n_max=args.n_max)
    if args.g is not None:
        return ModelSpec(family=args.family, g=args.g, **fields)
    return ModelSpec.at(args.family, args.x, **fields)


def _sector(args) -> Sector:
    """The effective sector of --family, which the closed-form methods need."""
    if args.family not in models.SECTORS:
        raise ValueError(f"{args.method} applies to the effective sectors only")
    return models.SECTORS[args.family]


def _print_result(result: qfi.QfiResult, verbose: bool) -> None:
    print(repr(result.value))
    if verbose:
        print(f"method={result.method}")
        for key, value in sorted(result.diagnostics.items()):
            print(f"{key}={value}")


def _cmd_qfi(args) -> int:
    spec = _model_spec(args)  # x from --g (and --Omega) when given, for every method
    if args.method == "analytic":
        result = qfi.qfi_analytic_squeezed(_sector(args), args.omega, spec.x)
    elif args.method == "spectral_sum":
        inst, dec = models.diagonalize_converged(spec)
        result = qfi.qfi_spectral_sum(inst, dec)
    elif args.method == "state_fd":
        result = qfi.qfi_state_fd(spec, d_omega=args.d_omega)
    elif args.method == "phase_imprint":
        xi = fock.squeezing_parameter(_sector(args), spec.x).xi
        state = fock.squeeze_vacuum_auto(xi, spec.n_max)  # escalates from --n-max
        n_op = fock.number_operator(fock.FockSpace(state.dim - 1))
        result = qfi.qfi_phase_imprint(state, n_op, args.t)
    elif args.method == "oscillator_evolution":
        result = qfi.qfi_oscillator_evolution(args.var_c, args.t, _sector(args), args.omega, spec.x)
    else:
        raise ValueError(f"unknown method {args.method!r}")
    _print_result(result, args.verbose)
    return EXIT_OK


def _cmd_gap(args) -> int:
    _, dec = models.diagonalize_converged(_model_spec(args))
    gap = spectral.energy_gap(dec)
    print(repr(gap))
    if args.verbose:
        print(f"dim={dec.dim}")
        print(f"ground_energy={dec.eigenvalues[0]!r}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    config = sweep.SweepConfig(
        family=args.family,
        grid=_parse_grid(args.grid) if args.grid else (),
        omega=args.omega,
        N=args.N,
        n_max=args.n_max,
        columns=tuple(args.columns.split(",")) if args.columns else None,
        out=Path(args.out) if args.out else None,
        jobs=args.jobs,
    )
    rows = sweep.run_and_write(config)
    if config.out is None:
        sys.stdout.write(sweep.csv_text(rows, config.effective_columns))
    else:
        print(str(config.out))
    return EXIT_OK


def _cmd_adiabatic(args) -> int:
    ramp = qfi.RampSpec(
        x_start=args.x_start,
        x_end=args.x_end if args.x_end is not None else args.x_start,
        T=args.T,
        steps=args.steps,
        schedule=args.schedule,
    )
    result = qfi.qfi_adiabatic_generator(
        args.family, ramp, omega=args.omega, n_max=args.n_max, N=args.N
    )
    _print_result(result, args.verbose)
    return EXIT_OK


def _cmd_converge(args) -> int:
    levels = [int(v) for v in args.levels.split(",") if v.strip()]
    rows = sweep.convergence_report(args.family, args.omega, args.x, levels)
    columns = ("n_max", "ground_energy", "gap01", "mean_n", "converged")
    if args.out:
        sweep.write_csv(rows, columns, Path(args.out))
        print(args.out)
    else:
        sys.stdout.write(sweep.csv_text(rows, columns))
    return EXIT_OK


def _cmd_config_template(args) -> int:
    text = emit_config_template({k: v for k, v in vars(args).items() if k in CONFIG_DEFAULTS})
    if args.out:
        Path(args.out).write_text(text)
        print(args.out)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="anticrit",
        description="Exact-diagonalization and QFI toolkit for gap-engineered metrology",
    )
    parser.add_argument("--config", type=Path, help="flat key=value configuration file")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model(p, families, verbose=True):
        p.add_argument("--family", required=True, choices=families)
        p.add_argument("--omega", type=float, default=_default("omega"))
        p.add_argument("--N", type=int, default=_default("N"))
        # left to ModelSpec: a sweep records the n_max it was given in .meta.json
        p.add_argument("--n-max", dest="n_max", type=int, default=None)
        if verbose:
            p.add_argument("--verbose", action="store_true")

    def add_coupling(p):
        p.add_argument("--Omega", type=float, default=_default("Omega"))
        p.add_argument("--g", type=float, default=None)
        p.add_argument("--x", type=float, default=0.0)

    p_qfi = sub.add_parser("qfi", help="single-point QFI evaluation")
    add_model(p_qfi, models.FAMILIES)
    add_coupling(p_qfi)
    p_qfi.add_argument(
        "--method",
        choices=("analytic", "spectral_sum", "state_fd", "phase_imprint", "oscillator_evolution"),
        default=_default("method"),
    )
    p_qfi.add_argument("--t", type=float, default=_default("t"))
    p_qfi.add_argument("--var-c", dest="var_c", type=float, default=_default("var_c"))
    p_qfi.add_argument("--d-omega", dest="d_omega", type=float, default=_default("d_omega"))
    p_qfi.set_defaults(func=_cmd_qfi)

    p_gap = sub.add_parser("gap", help="ground-state energy gap")
    add_model(p_gap, models.FAMILIES)
    add_coupling(p_gap)
    p_gap.set_defaults(func=_cmd_gap)

    p_sweep = sub.add_parser("sweep", help="parameter-grid sweep to CSV")
    add_model(p_sweep, ("effective", "lmg", "tfim", "tfim_transverse"), verbose=False)
    p_sweep.add_argument("--grid", default=_default("grid"), help="start:stop:count, e.g. -3:3:121")
    p_sweep.add_argument("--columns", help="comma-separated column subset")
    p_sweep.add_argument("--out", help="CSV output path (stdout if omitted)")
    p_sweep.add_argument("--jobs", type=int, default=_default("jobs"))
    p_sweep.set_defaults(func=_cmd_sweep)

    p_ad = sub.add_parser("adiabatic", help="adiabatic-generator QFI along a ramp")
    add_model(p_ad, models.FAMILIES)
    p_ad.add_argument("--x-start", dest="x_start", type=float, required=True)
    p_ad.add_argument("--x-end", dest="x_end", type=float, default=None)
    p_ad.add_argument("--T", type=float, required=True)
    p_ad.add_argument("--steps", type=int, default=_default("steps"))
    p_ad.add_argument("--schedule", choices=("linear", "constant"), default=_default("schedule"))
    p_ad.set_defaults(func=_cmd_adiabatic)

    p_conv = sub.add_parser("converge", help="truncation convergence report")
    p_conv.add_argument("--family", required=True, choices=models.BOSONIC_FAMILIES)
    p_conv.add_argument("--x", type=float, required=True)
    p_conv.add_argument("--omega", type=float, default=_default("omega"))
    p_conv.add_argument("--levels", default=_default("levels"), help="comma-separated n_max levels")
    p_conv.add_argument("--out")
    p_conv.set_defaults(func=_cmd_converge)

    p_ver = sub.add_parser("version", help="print version")
    p_ver.set_defaults(func=lambda args: (print(__version__), EXIT_OK)[1])

    p_tpl = sub.add_parser("config-template", help="emit a commented config template")
    p_tpl.add_argument("--out")
    p_tpl.set_defaults(func=_cmd_config_template)

    return parser, sub.choices


def _attach_grid_value(argv: list[str]) -> list[str]:
    """Join "--grid VALUE" into "--grid=VALUE".

    argparse takes a separate value that starts with "-" (a negative
    start such as -3:3:121) for an option and rejects the command.
    """
    joined: list[str] = []
    args = iter(argv)
    for arg in args:
        value = next(args, None) if arg == "--grid" else None
        joined.append(arg if value is None else f"{arg}={value}")
    return joined


def main(argv: list[str] | None = None) -> int:
    argv = _attach_grid_value(sys.argv[1:] if argv is None else argv)
    parser, commands = build_parser()
    saved = {key: getattr(module, name) for key, (module, name, _) in _TOLERANCES.items()}
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            values = {k: v for k, v in parse_config(args.config.read_text()).items() if v}
            _apply_tolerances(values)
            commands[args.command].set_defaults(**values)
            args = parser.parse_args(argv)
        return args.func(args)
    except NumericalGuard as guard:
        print(f"{type(guard).__name__}: {guard}", file=sys.stderr)
        return EXIT_GUARD
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        _apply_tolerances(saved)


if __name__ == "__main__":
    sys.exit(main())
