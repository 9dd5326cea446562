"""The benchmark's independent references, run as part of the test suite.

``bench/run.py --self-test`` checks the squeezed-oscillator closed forms, the
tridiagonal LMG block, the free-fermion tfim sum and the ramp quadrature
against real sweep and ramp output, and that each check rejects a perturbed
cell. One-second ``sweep-oscillator`` and ``ramp-adiabatic`` runs check every
row and ramp they compute.
"""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent.parent / "bench" / "run.py"


def test_bench_self_test_passes():
    proc = subprocess.run(
        [sys.executable, str(RUN), "--self-test"], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "self-test: 89 of 89 passed" in proc.stdout


def test_sweep_oscillator_rows_pass_their_checks():
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", "sweep-oscillator", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["attempted"] > 0 and result["failed"] == 0


def test_ramp_adiabatic_ramps_pass_their_checks():
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", "ramp-adiabatic", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["attempted"] > 0 and result["failed"] == 0
