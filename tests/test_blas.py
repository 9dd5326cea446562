"""One BLAS thread per unit of work: sweep rows, ramps and the CLI's computations.

Each test that needs an OpenBLAS thread control skips where numpy and scipy
load none (MKL, Accelerate, a system OpenBLAS).
"""

import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from anticrit import _blas, qfi, spectral
from anticrit.cli import main
from anticrit.errors import CriticalPointGuard
from anticrit.sweep import SweepConfig, csv_text, run_sweep

needs_control = pytest.mark.skipif(
    not _blas.CONTROLS, reason="no OpenBLAS thread control found in numpy.libs or scipy.libs"
)
SRC = Path(__file__).resolve().parent.parent / "src"


def counts():
    return [get() for get, _ in _blas.CONTROLS]


@pytest.fixture
def two_threads():
    """Every control at two threads, as a caller might leave it; restored afterwards."""
    saved = counts()
    for _, set_ in _blas.CONTROLS:
        set_(2)
    yield [2] * len(saved)
    for (_, set_), count in zip(_blas.CONTROLS, saved):
        set_(count)


def assert_one_thread(seen):
    """Some solve was recorded, and every control read 1 at each."""
    assert seen and all(c == [1] * len(_blas.CONTROLS) for c in seen)


def solve_counts():
    """A spy on the block solve recording every control's count at each call."""
    seen = []
    solve = spectral._solve_block

    def spy(*args, **kwargs):
        seen.append(counts())
        return solve(*args, **kwargs)

    return mock.patch.object(spectral, "_solve_block", spy), seen


@needs_control
@pytest.mark.parametrize("family", ["effective", "lmg", "tfim", "tfim_transverse"])
def test_sweep_row_solves_on_one_thread(family, two_threads):
    N = {"lmg": 20, "tfim": 4, "tfim_transverse": 4}.get(family)
    config = SweepConfig(family=family, grid=(0.5,), N=N)
    patch, seen = solve_counts()
    with patch:
        rows = run_sweep(config)
    assert rows[0]["status"] == "ok"
    assert_one_thread(seen)
    assert counts() == two_threads


@needs_control
def test_ramp_steps_solve_on_one_thread(two_threads):
    ramp = qfi.RampSpec(0.0, 0.5, 2.0, steps=201)
    patch, seen = solve_counts()
    with patch:
        qfi.qfi_adiabatic_generator("effective_low", ramp, n_max=120)
    assert len(seen) >= 201
    assert_one_thread(seen)
    assert counts() == two_threads


@needs_control
def test_jobs_sweep_restores_the_callers_counts(two_threads):
    rows = run_sweep(SweepConfig(family="tfim", grid=(-1.0, 0.5), N=4, jobs=2))
    assert [r["status"] for r in rows] == ["ok", "ok"]
    assert counts() == two_threads


@needs_control
def test_raise_inside_the_scope_restores_the_callers_counts(two_threads):
    ramp = qfi.RampSpec(0.0, 1.5, 1.0, steps=11)  # step 7 is at x = 1.05, past the critical point
    patch, seen = solve_counts()
    with patch, pytest.raises(CriticalPointGuard):
        qfi.qfi_adiabatic_generator("effective_low", ramp, n_max=120)
    assert_one_thread(seen)
    assert counts() == two_threads


@needs_control
def test_nested_scope_changes_nothing(two_threads):
    with _blas.single_thread():
        with mock.patch.object(_blas, "CONTROLS", [(get, mock.Mock()) for get, _ in _blas.CONTROLS]):
            with _blas.single_thread():
                assert all(not set_.called for _, set_ in _blas.CONTROLS)
    assert counts() == two_threads


@needs_control
@pytest.mark.parametrize(
    "argv",
    [
        ("qfi", "--family", "lmg", "--N", "20", "--x", "0.3"),
        ("gap", "--family", "tfim", "--N", "4", "--g", "0.7"),
        ("converge", "--family", "effective_high", "--x", "0.3", "--levels", "40,80"),
    ],
)
def test_cli_computations_solve_on_one_thread(argv, two_threads, capsys):
    patch, seen = solve_counts()
    with patch:
        assert main(list(argv)) == 0
    assert_one_thread(seen)
    assert counts() == two_threads


def test_sweep_runs_without_a_control(monkeypatch):
    config = SweepConfig(family="tfim", grid=(-1.0, 0.5, 2.0), N=4)
    expected = csv_text(run_sweep(config), config.effective_columns)
    monkeypatch.setattr(_blas, "CONTROLS", ())
    assert csv_text(run_sweep(config), config.effective_columns) == expected


@needs_control
def test_chain_csv_bytes_do_not_depend_on_the_thread_count():
    argv = [sys.executable, "-m", "anticrit.cli", "sweep", "--family", "tfim_transverse", "--grid=-3:3:7"]
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run(argv, capture_output=True, timeout=300, env=env)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
