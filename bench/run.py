#!/usr/bin/env python3
"""Benchmark of anticrit, driven in-process through its public calls.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-test

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src``. With ``--trace 0`` the last line of standard output is a
JSON object with the end-to-end metrics, with ``--trace 1`` one with the
per-layer metrics of a traced run. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
RESULTS = BENCH / "results"
# fresh processes timed for setup_s besides the run's own; the median of all is
# reported. sweep-chain's set-up takes about 5 s, so it gets fewer
SETUP_PROBES = {"sweep-oscillator": 4, "sweep-chain": 2, "ramp-adiabatic": 4}
WORKLOAD_NAMES = ("sweep-oscillator", "sweep-chain", "ramp-adiabatic")
# printed names of the rate per CPU second (the metric) and per wall second
UNIT_NAMES = {"rows": ("rows_per_cpu_s", "rows_per_s"), "steps": ("ramp_steps_per_cpu_s", "ramp_steps_per_s")}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", help="check the checks, run no workload")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    return args


def _import_package():
    """Put the checkout's src and this directory first on the path and import anticrit."""
    if not (SRC / "anticrit" / "__init__.py").is_file():
        raise SystemExit(f"bench: no anticrit package under {SRC}")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import anticrit

    if Path(anticrit.__file__).resolve().parent != SRC / "anticrit":
        raise SystemExit(f"bench: imported anticrit from {anticrit.__file__}, not {SRC}")


def _setup_probe(workload):
    """Child process: time importing anticrit plus the workload's warm-up."""
    start = time.perf_counter()
    _import_package()
    import workloads

    out = RESULTS / f"{workload}-setup"
    out.mkdir(parents=True, exist_ok=True)
    workloads.WORKLOADS[workload].warmup(out)
    print(time.perf_counter() - start)
    return 0


def _setup_s(workload, own):
    """Median of `own`, this process's set-up, and those of fresh probe processes."""
    samples = [own]
    for _ in range(SETUP_PROBES[workload]):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples), samples


def _blas_threads():
    """Thread count of each OpenBLAS that numpy and scipy load, by library file."""
    import ctypes
    import glob

    import numpy
    import scipy

    found = {}
    for package in (numpy, scipy):
        libs = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
        for lib in sorted(glob.glob(str(libs / "*openblas*"))):
            handle = ctypes.CDLL(lib)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                getter = getattr(handle, symbol, None)
                if getter is not None:
                    getter.restype = ctypes.c_int
                    found[Path(lib).name] = getter()
                    break
    return found


def fingerprint(loadavg):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": loadavg,
    }


def _peak_rss_mb():
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _run_rounds(workload, seed, out_dir, seconds=None, rounds=None):
    """Whole rounds until `seconds` of program time have passed, or exactly `rounds`."""
    import numpy as np

    rng = np.random.default_rng(seed)
    results, elapsed = [], 0.0
    while elapsed < seconds if rounds is None else len(results) < rounds:
        results.append(workload.run_round(rng, out_dir))
        elapsed += results[-1].elapsed
    return results


def _check(results):
    ops = [op for r in results for op in r.ops]
    failures = []
    for op in ops:
        problems = op.check()
        if problems:
            failures.append((op.kind, problems))
    return len(ops), failures


def main(argv=None):
    args = _parse(argv)
    loadavg = list(os.getloadavg())
    if args.setup_probe:
        return _setup_probe(args.workload)
    start = time.perf_counter()  # the same span a setup probe times
    _import_package()
    if args.self_test:
        import selftest

        return selftest.main(RESULTS / "self-test")

    import workloads

    workload = workloads.WORKLOADS[args.workload]
    out_dir = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.trace == 0:
        workload.warmup(out_dir)  # also writes the bytecode the setup probes then reuse
        own_setup_s = time.perf_counter() - start
    env = fingerprint(loadavg)
    print("fingerprint " + json.dumps(env, sort_keys=True))
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "fingerprint": env}
    correct = True

    if args.trace == 0:
        setup_s, setup_samples = _setup_s(args.workload, own_setup_s)
        results = _run_rounds(workload, args.seed, out_dir, seconds=args.seconds)
        peak = _peak_rss_mb()
        # the rate per CPU second of this process leaves out the time the
        # hypervisor holds the virtual CPUs (steal), which the wall rate counts
        rates = [r.units / r.cpu for r in results]
        wall_rates = [r.units / r.elapsed for r in results]
        ops_per_cpu_s = statistics.median(rates)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_cpu_s": {"value": ops_per_cpu_s, "unit": "ops/cpu-s"},  # rows or ramp steps
            "peak_rss_mb": {"value": peak, "unit": "MB"},
        }
        print(f"setup_s = {setup_s:.4f} s (median of {len(setup_samples)} fresh processes, this one first: "
              + ", ".join(f"{s:.3f}" for s in setup_samples) + ")")
        cpu_name, wall_name = UNIT_NAMES[workload.unit]
        print(f"{cpu_name} = {ops_per_cpu_s:.4f} {workload.unit}/cpu-s "
              f"(median of {len(rates)} rounds, {sum(r.units for r in results)} {workload.unit} "
              f"in {sum(r.cpu for r in results):.2f} CPU s)")
        print(f"{wall_name} = {statistics.median(wall_rates):.4f} {workload.unit}/s "
              f"(median of {len(rates)} rounds in {sum(r.elapsed for r in results):.2f} s; not a metric)")
        print(f"peak_rss_mb = {peak:.1f} MB")
        report["round_rates"] = rates
        report["round_wall_rates"] = wall_rates
        report["setup_samples"] = setup_samples
    else:
        import spans

        rounds = workloads.TRACE_ROUNDS[args.workload]
        tracer = spans.Tracer()
        tracer.install()
        start = time.perf_counter()
        try:
            workload.warmup(out_dir)  # cold: the per-size tables are built under spans
        finally:
            warm_s = time.perf_counter() - start
            tracer.uninstall()
        plain = _run_rounds(workload, args.seed, out_dir, rounds=rounds)
        tracer.install()
        try:
            traced = _run_rounds(workload, args.seed, out_dir, rounds=rounds)
        finally:
            tracer.uninstall()
        traced_s = sum(r.elapsed for r in traced)
        layer = tracer.metrics(warm_s + traced_s)
        layer["trace.overhead_s"] = traced_s - sum(r.elapsed for r in plain)
        self_total = sum(v for k, v in layer.items() if k.endswith(".self_s"))
        residual = self_total + layer["trace.uncovered_s"] - layer["trace.wall_s"]
        if abs(residual) > 1e-9 * layer["trace.wall_s"] + 1e-12:
            print(f"self times + uncovered differ from traced wall time by {residual:.3e} s")
            correct = False
        spans_path = out_dir / "spans.json"
        tracer.dump(spans_path)
        metrics = {}
        for key, value in layer.items():
            metrics[key] = {"value": value, "unit": spans.unit(key)}
            print(f"{key} = {value:.6g} {spans.unit(key)}")
        print(f"{len(tracer.spans)} spans written to {spans_path}")
        results = plain + traced

    attempted, failures = _check(results)
    for kind, problems in failures[:10]:
        print(f"FAILED {kind}: " + "; ".join(message for _, message in problems))
    print(f"attempted = {attempted} operations, failed = {len(failures)}")
    report["metrics"] = metrics
    report["failures"] = [[kind, [m for _, m in problems]] for kind, problems in failures]
    (out_dir / "result.json").write_text(json.dumps(report, indent=2, default=str) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
