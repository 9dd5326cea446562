"""One BLAS thread at the two LAPACK calls whose rounding depends on the thread count:
``stevd`` and the dense ``eigh``, whichever entry point reaches them.

Each test that needs an OpenBLAS thread control skips where numpy and scipy
load none (MKL, Accelerate, a system OpenBLAS).
"""

import ast
import os
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.linalg as sla

from anticrit import _blas, models, qfi, spectral
from anticrit.cli import main
from anticrit.models import ModelSpec
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
    """Some call was recorded, and every control read 1 at each."""
    assert seen and all(c == [1] * len(_blas.CONTROLS) for c in seen)


@contextmanager
def lapack_counts(fail=False):
    """A spy on stevd and the dense eigh recording every control's count at each call; with
    `fail`, each call raises LinAlgError once its count is recorded."""
    seen = []

    def spy(call):
        def record(*args, **kwargs):
            seen.append(counts())
            if fail:
                raise np.linalg.LinAlgError("spy")
            return call(*args, **kwargs)

        return record

    with mock.patch.object(spectral, "_STEVD", spy(spectral._STEVD)), mock.patch.object(sla, "eigh", spy(sla.eigh)):
        yield seen


@needs_control
@pytest.mark.parametrize("family", ["effective", "lmg", "tfim", "tfim_transverse"])
def test_sweep_row_solves_on_one_thread(family, two_threads):
    N = {"lmg": 20, "tfim": 4, "tfim_transverse": 4}.get(family)
    config = SweepConfig(family=family, grid=(0.5,), N=N)
    with lapack_counts() as seen:
        rows = run_sweep(config)
    assert rows[0]["status"] == "ok"
    assert_one_thread(seen)
    assert counts() == two_threads


@needs_control
def test_ramp_steps_solve_on_one_thread(two_threads):
    # S_z reaches more than three levels of the lmg ground state's block, so the ramp is
    # solved again with every level: one stevd per step
    ramp = qfi.RampSpec(0.1, 0.3, 2.0, steps=201)
    with lapack_counts() as seen:
        result = qfi.qfi_adiabatic_generator("lmg", ramp, N=20)
    assert result.diagnostics["levels_solved"] == 11
    assert len(seen) == 201
    assert_one_thread(seen)
    assert counts() == two_threads


@needs_control
@pytest.mark.parametrize("family", ["effective_low", "effective_high"])
def test_ramp_bits_do_not_depend_on_the_thread_count(family, two_threads):
    # the three-level steps run stebz and stein at the caller's count: level-1 BLAS only
    ramp = qfi.RampSpec(0.0, 0.6, 2.0, steps=201)
    direct = qfi.qfi_adiabatic_generator(family, ramp, n_max=600)
    assert counts() == two_threads
    with _blas.single_thread():
        scoped = qfi.qfi_adiabatic_generator(family, ramp, n_max=600)
    assert direct.diagnostics["levels_solved"] == 3
    assert repr(direct.value) == repr(scoped.value)
    assert repr(direct.diagnostics) == repr(scoped.diagnostics)


@needs_control
def test_direct_solves_do_not_depend_on_the_thread_count(two_threads):
    # a library call outside every outer scope: spectral's solves open their own
    spec = ModelSpec.at("tfim", 25.0, N=10)
    with lapack_counts() as seen:
        direct = models.ground_sector_converged(spec)[1]
    assert_one_thread(seen)
    assert counts() == two_threads
    with _blas.single_thread():
        scoped = models.ground_sector_converged(spec)[1]
    for name in ("energies", "vectors", "levels", "psi0"):
        assert np.array_equal(getattr(direct, name), getattr(scoped, name)), name


@needs_control
def test_block_levels_does_not_depend_on_the_thread_count(two_threads):
    # a 301-level tridiagonal block: stevd's merges call dgemm
    H = models.build(ModelSpec.at("effective_low", 0.3, n_max=600)).H
    with lapack_counts() as seen:
        direct = spectral.block_levels(H, 0)
    assert_one_thread(seen)
    assert counts() == two_threads
    with _blas.single_thread():
        scoped = spectral.block_levels(H, 0)
    assert direct[2] == scoped[2] == 0
    assert np.array_equal(direct[0], scoped[0]) and np.array_equal(direct[1], scoped[1])


@needs_control
@pytest.mark.parametrize("solve", ["eigendecompose", "ground_sector", "ground_state", "block_levels"])
def test_each_spectral_solve_runs_on_one_thread(solve, two_threads):
    H = models.build(ModelSpec(family="tfim", omega=1.0, g=0.7, N=4)).H
    with lapack_counts() as seen:
        getattr(spectral, solve)(H, *((0,) if solve == "block_levels" else ()))
    assert_one_thread(seen)
    assert counts() == two_threads


@needs_control
def test_fd_points_solve_on_one_thread(two_threads):
    with lapack_counts() as seen:
        result = qfi.qfi_state_fd(ModelSpec(family="tfim", omega=1.0, g=0.7, N=4))
    assert result.value > 0
    assert len(seen) == 6  # the centre's two blocks, then one evr per shifted point
    assert_one_thread(seen)
    assert counts() == two_threads


@needs_control
def test_jobs_sweep_restores_the_callers_counts(two_threads):
    rows = run_sweep(SweepConfig(family="tfim", grid=(-1.0, 0.5), N=4, jobs=2))
    assert [r["status"] for r in rows] == ["ok", "ok"]
    assert counts() == two_threads


@needs_control
def test_raise_inside_the_scope_restores_the_callers_counts(two_threads):
    banded = models.build(ModelSpec(family="lmg", omega=1.0, g=0.5, N=20)).H  # stevd
    dense = models.build(ModelSpec(family="tfim", omega=1.0, g=0.7, N=4)).H  # evd
    for H in (banded, dense):
        with lapack_counts(fail=True) as seen, pytest.raises(np.linalg.LinAlgError, match="spy"):
            spectral.eigendecompose(H)
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
    with lapack_counts() as seen:
        assert main(list(argv)) == 0
    assert_one_thread(seen)
    assert counts() == two_threads


def test_only_spectral_imports_blas():
    importers = set()
    for path in (SRC / "anticrit").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None) or ""] + [alias.name for alias in node.names]
                if any(name.split(".")[-1] == "_blas" for name in names):
                    importers.add(path.stem)
    assert importers == {"spectral"}


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
