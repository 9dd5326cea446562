"""Self-test of the checks: real output passes, perturbed copies are rejected.

Runs each family at fixed points (no seed, no timing), checks that every
output passes, then that each check rejects a copy with its checked cell
changed by 1e-6 relative, and that the ramp check rejects a value moved by
twice the step-halving shift the program reported.
"""

from __future__ import annotations

from anticrit import qfi, sweep

import workloads

POINTS = {
    "effective": (-12.0, -2.0, 0.3, 0.9),
    "lmg": (0.3, 0.6, 0.9),
    "tfim": (-2.2, 0.7, 1.6),
    "tfim_transverse": (-1.4, 0.4, 2.3),
}
CHECKED = {
    "effective": ("gap01", "gap02", "mean_n", "qfi_spectral", "qfi_fd"),
    "lmg": ("qfi_spectral", "qfi_fd", "var_sx"),
    "tfim": ("qfi_spectral",),
    "tfim_transverse": ("qfi_spectral",),
}
RAMP_X_END = 0.6


def _rejected(op, column, data):
    problems = workloads.Op(op.kind, data, op.meta).check()
    return any(col == column for col, _ in problems)


def main(out_dir):
    out_dir.mkdir(parents=True, exist_ok=True)
    verdicts = []
    for family, grid in POINTS.items():
        path = out_dir / f"{family}.csv"
        sweep.run_and_write(sweep.SweepConfig(family=family, grid=grid, out=path))
        for op in workloads.read_sweep(path, family, grid):
            where = f"{family} at {op.data.get('x_signed') or op.data.get('g_over_gc')}"
            verdicts.append((f"{where}: real output passes", not op.check()))
            for column in CHECKED[family]:
                for sign in (1.0, -1.0):
                    changed = dict(op.data)
                    changed[column] = repr(float(op.data[column]) * (1.0 + sign * 1e-6))
                    verdicts.append((f"{where}: {column} x (1 {sign:+.0f}e-6) rejected",
                                     _rejected(op, column, changed)))
    for sector in ("low", "high"):
        ramp = qfi.RampSpec(0.0, RAMP_X_END, workloads.RAMP_T, steps=workloads.RAMP_STEPS)
        result = qfi.qfi_adiabatic_generator(f"effective_{sector}", ramp, n_max=workloads.RAMP_N_MAX)
        shift = result.diagnostics["step_halving_relative_shift"]
        data = {"sector": sector, "x_start": 0.0, "x_end": RAMP_X_END, "T": workloads.RAMP_T,
                "value": result.value, "shift": shift}
        op = workloads.Op("ramp", data)
        verdicts.append((f"ramp {sector}: real output passes", not op.check()))
        for sign in (1.0, -1.0):
            moved = dict(data, value=result.value * (1.0 + 2.0 * sign * shift))
            verdicts.append((f"ramp {sector}: value x (1 {sign:+.0f} 2 shift) rejected",
                             _rejected(op, "value", moved)))
    for name, ok in verdicts:
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    failed = sum(not ok for _, ok in verdicts)
    print(f"self-test: {len(verdicts) - failed} of {len(verdicts)} passed")
    return 1 if failed else 0
