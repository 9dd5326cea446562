"""The benchmark's workloads: seeded inputs and rounds of public anticrit calls.

A round is a fixed list of operations drawn from the seed: sweep rows through
``sweep.run_and_write`` (what ``anticrit sweep`` calls) or ramps through
``qfi.qfi_adiabatic_generator`` (what ``anticrit adiabatic`` calls). Only the
program calls are timed; reading the CSV back happens after the clock stops,
and the checks run after the last round.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass

from anticrit import qfi, sweep
from anticrit.errors import NumericalGuard

import checks

EFFECTIVE_RANGE = (-16.0, 0.95)  # x_signed: < 0 high sector (gap opens), >= 0 low (closes)
LMG_RANGE = (0.0, 0.98)  # g/g_c at the sweep default N = 200
CHAIN_RANGE = (-3.0, 3.0)  # g/g_c at the sweep default N = 10
RAMP_X_END = (0.3, 0.9)  # linear ramps of x from 0 to x_end, in both sectors
RAMP_T = 2.0  # time budget, units 1/omega
RAMP_STEPS = 201
RAMP_N_MAX = 120


@dataclass
class Op:
    """One operation: an output row or a ramp, with what its check needs."""

    kind: str  # effective | lmg | tfim | tfim_transverse | ramp
    data: dict  # CSV cells of a row, or the ramp's parameters and result
    meta: dict | None = None
    problems: list | None = None  # set when the operation failed before any check

    def check(self):
        if self.problems:
            return self.problems
        if self.kind == "effective":
            return checks.check_effective_row(self.data, self.meta)
        if self.kind == "lmg":
            return checks.check_lmg_row(self.data, self.meta)
        if self.kind in ("tfim", "tfim_transverse"):
            return checks.check_chain_row(self.data, self.meta, self.kind == "tfim_transverse")
        return checks.check_ramp(self.data)


@dataclass
class RoundResult:
    elapsed: float  # wall seconds inside program calls
    cpu: float  # CPU seconds of this process, all its threads, inside program calls
    units: int  # rows written, or ramp time points
    ops: list


def _stratified(rng, low, high, count):
    """One uniform draw from each of `count` equal slices of [low, high), ascending."""
    edges = [low + (high - low) * i / count for i in range(count + 1)]
    return tuple(float(rng.uniform(edges[i], edges[i + 1])) for i in range(count))


def read_sweep(path, family, grid):
    """Ops for the rows of a written sweep, matched against the requested grid."""
    rows = list(csv.DictReader(path.read_text().splitlines()))
    meta = json.loads(path.with_suffix(".meta.json").read_text())
    grid_column = "x_signed" if family == "effective" else "g_over_gc"
    ops = []
    for i, point in enumerate(grid):
        row = rows[i] if i < len(rows) else {}
        op = Op(family, row, meta)
        if row.get(grid_column) != repr(point):
            op.problems = [(grid_column, f"row {i}: {row.get(grid_column)!r} for point {point!r}")]
        ops.append(op)
    return ops


class SweepWorkload:
    unit = "rows"

    def __init__(self, draw, warmup_points):
        self._draw = draw  # rng -> ((family, grid), ...)
        self._warmup_points = warmup_points  # ((family, point), ...)

    def warmup(self, out_dir):
        for family, point in self._warmup_points:
            config = sweep.SweepConfig(family=family, grid=(point,), out=out_dir / f"warmup-{family}.csv")
            sweep.run_and_write(config)

    def run_round(self, rng, out_dir):
        plan = self._draw(rng)
        elapsed, cpu, units, ops = 0.0, 0.0, 0, []
        for family, grid in plan:
            path = out_dir / f"{family}.csv"
            config = sweep.SweepConfig(family=family, grid=grid, out=path)
            start, cpu_start = time.perf_counter(), time.process_time()
            rows = sweep.run_and_write(config)
            elapsed += time.perf_counter() - start
            cpu += time.process_time() - cpu_start
            units += len(rows)
            ops.extend(read_sweep(path, family, grid))
        return RoundResult(elapsed, cpu, units, ops)


class RampWorkload:
    unit = "steps"

    def warmup(self, out_dir):
        for family in ("effective_low", "effective_high"):
            ramp = qfi.RampSpec(0.5, 0.5, RAMP_T, steps=11, schedule="constant")
            # one solve per family; eleven steps are too coarse for the step check
            qfi.qfi_adiabatic_generator(family, ramp, n_max=RAMP_N_MAX, check_convergence=False)

    def run_round(self, rng, out_dir):
        x_end = _stratified(rng, *RAMP_X_END, 1)[0]
        elapsed, cpu, units, ops = 0.0, 0.0, 0, []
        for sector in ("low", "high"):
            data = {"sector": sector, "x_start": 0.0, "x_end": x_end, "T": RAMP_T}
            ramp = qfi.RampSpec(0.0, x_end, RAMP_T, steps=RAMP_STEPS)
            op = Op("ramp", data)
            start, cpu_start = time.perf_counter(), time.process_time()
            try:
                result = qfi.qfi_adiabatic_generator(f"effective_{sector}", ramp, n_max=RAMP_N_MAX)
            except NumericalGuard as guard:
                op.problems = [("value", f"{type(guard).__name__}: {guard}")]
            else:
                data["value"] = result.value
                data["shift"] = result.diagnostics.get("step_halving_relative_shift")
            elapsed += time.perf_counter() - start
            cpu += time.process_time() - cpu_start
            units += RAMP_STEPS
            ops.append(op)
        return RoundResult(elapsed, cpu, units, ops)


def _oscillator_plan(rng):
    high = _stratified(rng, EFFECTIVE_RANGE[0], 0.0, 1)
    low = _stratified(rng, 0.0, EFFECTIVE_RANGE[1], 1)
    return (("effective", high + low), ("lmg", _stratified(rng, *LMG_RANGE, 2)))


def _chain_plan(rng):
    return (
        ("tfim", _stratified(rng, *CHAIN_RANGE, 1)),
        ("tfim_transverse", _stratified(rng, *CHAIN_RANGE, 1)),
    )


WORKLOADS = {
    "sweep-oscillator": SweepWorkload(_oscillator_plan, (("effective", 0.5), ("lmg", 0.5))),
    "sweep-chain": SweepWorkload(_chain_plan, (("tfim", 0.5), ("tfim_transverse", 0.5))),
    "ramp-adiabatic": RampWorkload(),
}

# rounds of a traced run: fixed, so that its counts repeat exactly
TRACE_ROUNDS = {"sweep-oscillator": 3, "sweep-chain": 3, "ramp-adiabatic": 1}
