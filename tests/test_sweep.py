import gc
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from anticrit import models, spectral, sweep
from anticrit.models import ModelSpec
from anticrit.sweep import (
    CHAIN_DEFAULT_COLUMNS,
    EFFECTIVE_COLUMNS,
    LMG_COLUMNS,
    SweepConfig,
    convergence_report,
    default_grid,
    format_cell,
    grid_from_range,
    run_and_write,
    run_sweep,
    sweep_metadata,
    write_csv,
)
from oracles import site_pauli
from test_spectral import block_solves  # block solves as (size, select, vectors)
from test_spectral import dense_calls  # dense LAPACK solves as (size, driver, vectors)
from test_spectral import lazy_entries_spy  # band or block operators whose dense matrix is read


class TestGrids:
    def test_defaults(self):
        assert len(default_grid("effective")) == 200
        assert len(default_grid("lmg")) == 100
        assert len(default_grid("tfim")) == 121
        assert default_grid("effective")[0] == -16.0
        assert default_grid("effective")[-1] == 0.95

    def test_range(self):
        assert grid_from_range(0.0, 1.0, 3) == (0.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            grid_from_range(0.0, 1.0, 1)

    def test_monotone_required(self):
        with pytest.raises(ValueError):
            SweepConfig(family="lmg", grid=(0.0, 0.5, 0.3))

    def test_low_sector_exclusion(self):
        config = SweepConfig(family="effective", grid=(0.5, 0.9995, 1.0, 1.0005, 1.5))
        assert config.grid == (0.5, 1.5)

    def test_spin_defaults(self):
        assert SweepConfig(family="lmg").N == 200
        assert SweepConfig(family="tfim").N == 10

    def test_default_columns(self):
        assert SweepConfig(family="effective").effective_columns == EFFECTIVE_COLUMNS
        assert SweepConfig(family="lmg").effective_columns == LMG_COLUMNS
        assert SweepConfig(family="tfim").effective_columns == CHAIN_DEFAULT_COLUMNS
        assert "qfi_fd" not in CHAIN_DEFAULT_COLUMNS


@pytest.fixture(scope="module")
def rows():
    config = SweepConfig(family="effective", grid=(-4.0, -1.0, 0.25, 0.75))
    return run_sweep(config)


class TestEffectiveSweep:
    def test_row_count_and_order(self, rows):
        assert [r["x_signed"] for r in rows] == [-4.0, -1.0, 0.25, 0.75]

    def test_sectors(self, rows):
        assert [r["sector"] for r in rows] == ["high", "high", "low", "low"]

    def test_known_point(self, rows):
        row = next(r for r in rows if r["x_signed"] == 0.25)
        assert row["status"] == "ok"
        assert row["qfi_analytic"] == pytest.approx(0.25**2 / (8 * 0.75**2), rel=1e-12)
        assert row["qfi_spectral"] == pytest.approx(row["qfi_analytic"], rel=1e-6)
        assert row["qfi_fd"] == pytest.approx(row["qfi_analytic"], rel=1e-4)
        assert row["gap01"] == pytest.approx(math.sqrt(0.75), abs=1e-8)
        assert row["gap02"] == pytest.approx(2 * math.sqrt(0.75), abs=1e-8)
        assert row["xi"] == pytest.approx(-0.25 * math.log(0.75), abs=1e-14)
        assert row["mean_n"] == pytest.approx(math.sinh(row["xi"]) ** 2, abs=1e-8)

    def test_high_sector_point(self, rows):
        row = next(r for r in rows if r["x_signed"] == -1.0)
        assert row["x"] == 1.0
        assert row["g_over_gc"] == -1.0
        assert row["qfi_analytic"] == pytest.approx(0.03125)

    def test_gap_normalized_invariant(self, rows):
        # qfi * gap01^2 equals the number variance of the squeezed ground state
        for row in rows:
            nbar = math.sinh(row["xi"]) ** 2
            var_n = 2 * nbar * (nbar + 1)
            assert row["qfi_times_gap_sq"] == pytest.approx(var_n, rel=1e-6)

    def test_reproducible(self):
        config = SweepConfig(family="effective", grid=(0.3, 0.6))
        a = run_sweep(config)
        b = run_sweep(config)
        assert a == b


@pytest.mark.parametrize(
    "family,grid",
    [("effective", (-8.0, 0.5)), ("lmg", (0.3, 0.9)), ("tfim", (-1.2, 0.7)), ("tfim_transverse", (-0.4, 2.1))],
)
def test_rows_never_build_a_dense_hamiltonian(family, grid):
    with lazy_entries_spy() as read:
        rows = run_sweep(SweepConfig(family=family, grid=grid))
    assert [row["status"] for row in rows] == ["ok", "ok"]
    assert read == []


@pytest.mark.parametrize(
    "family,grid,full_vectors",
    [("effective", (-8.0,), 151), ("effective", (0.5,), 151), ("lmg", (0.7,), 101)],
    ids=["effective_high", "effective_low", "lmg"],
)
def test_row_solves_one_block_with_all_vectors(family, grid, full_vectors):
    patch, calls = block_solves()
    with patch, mock.patch.object(spectral, "eigendecompose", wraps=spectral.eigendecompose) as full:
        [row] = run_sweep(SweepConfig(family=family, grid=grid))
    assert row["status"] == "ok"
    assert full.call_count == 0
    # the centre: the ground block with every vector, the other block's two lowest levels;
    # each of the four certified points: one eigenpair of the ground block
    assert [call for call in calls if call[1] == "a"] == [(full_vectors, "a", True)]
    assert [call for call in calls if call[1] != "a"] == (
        [(full_vectors - 1, (0, 1), False)] + [(full_vectors, (0, 0), True)] * 4
    )


def test_chain_row_solves_one_block_with_vectors():
    with mock.patch.object(spectral, "eigendecompose", wraps=spectral.eigendecompose) as full, \
            dense_calls() as calls:
        [row] = run_sweep(SweepConfig(family="tfim", grid=(0.7,), N=4))
    assert row["status"] == "ok" and full.call_count == 0
    # every eigenpair of psi_0's parity block, the two lowest levels of the other
    assert calls == [(8, "evd", True), (8, "evr", False)]


class TestSpinSweeps:
    def test_lmg_free_point(self):
        rows = run_sweep(SweepConfig(family="lmg", grid=(0.0, 0.5), N=60))
        free = rows[0]
        assert free["status"] == "ok"
        assert free["gap01"] == pytest.approx(1.0, abs=1e-10)
        assert free["qfi_spectral"] == pytest.approx(0.0, abs=1e-16)
        assert free["mean_sz"] == pytest.approx(-30.0, abs=1e-10)
        assert free["mean_sz_plus_half_N"] == pytest.approx(0.0, abs=1e-10)
        assert free["var_sx"] == pytest.approx(15.0, abs=1e-8)
        assert free["var_sz"] == pytest.approx(0.0, abs=1e-10)

    def test_lmg_mean_sz_plus_half_n_near_free_point(self):
        # <Sz> + N/2 ~ 6e-6 next to <Sz> ~ -100: the cell must not inherit the
        # cancellation of the sum, so compare with an exactly rounded sum
        g = 0.009898989898989899
        rows = run_sweep(SweepConfig(family="lmg", grid=(g,), N=200))
        _, dec = models.diagonalize_converged(ModelSpec(family="lmg", omega=1.0, g=g, N=200))
        probs = np.abs(dec.vectors[:, 0]) ** 2
        expected = math.fsum(k * p for k, p in enumerate(probs))
        assert rows[0]["status"] == "ok"
        assert abs(rows[0]["mean_sz_plus_half_N"] - expected) / expected <= 1e-12

    def test_lmg_softening(self):
        rows = run_sweep(SweepConfig(family="lmg", grid=(0.0, 0.9), N=60))
        assert rows[1]["gap01"] < rows[0]["gap01"]
        assert rows[1]["var_sx"] > rows[0]["var_sx"]
        assert rows[1]["qfi_spectral"] > rows[0]["qfi_spectral"]

    def test_chain_rows(self):
        rows = run_sweep(SweepConfig(family="tfim", grid=(-0.5, 0.0, 0.5), N=6))
        assert all(r["status"] == "ok" for r in rows)
        assert rows[1]["gap01"] == pytest.approx(2.0, abs=1e-10)
        # symmetric couplings give identical gaps for this family
        assert rows[0]["gap01"] == pytest.approx(rows[2]["gap01"], abs=1e-10)
        assert "qfi_fd" not in rows[0]

    def test_chain_fd_opt_in(self):
        rows = run_sweep(
            SweepConfig(family="tfim", grid=(0.4, 0.6), N=4, columns=sweep.CHAIN_COLUMNS)
        )
        for row in rows:
            assert row["qfi_fd"] == pytest.approx(row["qfi_spectral"], rel=1e-4)

    @pytest.mark.parametrize("family", ["tfim", "tfim_transverse"])
    def test_chain_moments_match_dense_site_paulis(self, family):
        from anticrit.spectral import HermitianOperator, expectation, variance
        from anticrit.spin import ChainBasis

        basis = ChainBasis(6)
        sx, sy, sz = (
            HermitianOperator(sum(site_pauli(basis, i, axis).entries for i in range(1, 7)) / 2)
            for axis in "xyz"
        )
        grid = (-1.5, 0.3, 0.9)
        for g, row in zip(grid, run_sweep(SweepConfig(family=family, grid=grid, N=6))):
            _, dec = models.diagonalize_converged(ModelSpec(family=family, omega=1.0, g=g, N=6))
            ground = dec.eigenvector(0)
            assert row["mean_sz"] == pytest.approx(expectation(sz, ground), abs=1e-12)
            for name, op in (("var_sx", sx), ("var_sy", sy), ("var_sz", sz)):
                assert row[name] == pytest.approx(variance(op, ground), abs=1e-12), name

    def test_chain_row_retains_only_d_omega_h(self):
        # after one N=10 row only the cached d_omega H (2^N x 2^N float64) may stay held
        models._chain_terms.cache_clear()
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            rows = run_sweep(SweepConfig(family="tfim", grid=(0.5,), N=10))
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert rows[0]["status"] == "ok"
        assert retained <= 8 * 4**10 + 2**20

    def test_chain_row_retains_no_dense_matrix(self):
        # d_omega H is held as its diagonal: what one N=10 row leaves cached is
        # the bit tables and the bands (about 0.4 MiB), far below one 2^N x 2^N
        # matrix (8 MiB)
        models._chain_terms.cache_clear()
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            rows = run_sweep(SweepConfig(family="tfim", grid=(0.5,), N=10))
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert rows[0]["status"] == "ok"
        assert retained <= 2**20


class TestConvergenceReport:
    def test_effective_low(self):
        rows = convergence_report("effective_low", 1.0, 0.5, [40, 80, 160])
        assert [r["n_max"] for r in rows] == [40.0, 80.0, 160.0]
        assert rows[0]["converged"] == ""
        assert rows[-1]["converged"] == "yes"
        assert rows[-1]["mean_n"] == pytest.approx(
            math.sinh(-0.25 * math.log(0.5)) ** 2, abs=1e-10
        )

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            convergence_report("effective_low", 1.0, 0.5, [40, 40])

    def test_spin_family_rejected(self):
        with pytest.raises(ValueError):
            convergence_report("lmg", 1.0, 0.5, [40, 80])


class TestSerialization:
    def test_format_cell(self):
        assert format_cell(None) == ""
        assert format_cell("ok") == "ok"
        assert format_cell(0.1) == "0.1"
        assert float(format_cell(1 / 3)) == 1 / 3  # round-trips exactly

    def test_write_csv_and_sidecar(self, tmp_path):
        config = SweepConfig(
            family="effective", grid=(0.25, 0.5), out=tmp_path / "eff.csv"
        )
        rows = run_and_write(config)
        text = (tmp_path / "eff.csv").read_text()
        lines = text.splitlines()
        assert lines[0] == ",".join(EFFECTIVE_COLUMNS)
        assert len(lines) == 1 + len(rows)
        first = dict(zip(EFFECTIVE_COLUMNS, lines[1].split(",")))
        assert float(first["qfi_analytic"]) == rows[0]["qfi_analytic"]
        assert first["status"] == "ok"
        meta = json.loads((tmp_path / "eff.meta.json").read_text())
        assert meta["family"] == "effective"
        assert meta["grid"] == [0.25, 0.5]
        assert "degeneracy_tol" in meta["tolerances"]

    @pytest.mark.parametrize(
        "family, grid, N",
        [
            pytest.param("effective", (-1.0, 0.25), None, id="effective"),
            pytest.param("lmg", (0.0, 0.7), 40, id="lmg"),
            pytest.param("tfim", (-0.5, 0.0, 0.5), 6, id="tfim"),
            pytest.param("tfim_transverse", (-0.5, 0.0, 0.5), 6, id="tfim_transverse"),
        ],
    )
    def test_byte_identical_reruns(self, tmp_path, family, grid, N):
        # bytes are promised for reruns on one numpy/LAPACK build; across
        # builds the golden sweeps are compared within conditioning bounds
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out_a, out_b):
            run_and_write(SweepConfig(family=family, grid=grid, N=N, out=out))
        assert out_a.read_bytes() == out_b.read_bytes()
        assert (
            out_a.with_suffix(".meta.json").read_bytes()
            == out_b.with_suffix(".meta.json").read_bytes()
        )

    @pytest.mark.parametrize(
        "family, grid, N",
        [
            pytest.param("tfim", (-0.5, 0.0, 0.5), 4, id="tfim"),
            pytest.param("lmg", (0.0, 0.4, 0.8), 20, id="lmg"),
        ],
    )
    def test_parallel_jobs_match_serial(self, tmp_path, family, grid, N):
        serial, parallel = tmp_path / "serial.csv", tmp_path / "parallel.csv"
        for out, jobs in ((serial, 1), (parallel, 2)):
            run_and_write(SweepConfig(family=family, grid=grid, N=N, out=out, jobs=jobs))
        assert serial.read_bytes() == parallel.read_bytes()
        assert (
            serial.with_suffix(".meta.json").read_bytes()
            == parallel.with_suffix(".meta.json").read_bytes()
        )

    def test_guarded_row_cells_empty(self):
        # force a degeneracy refusal by shrinking the tolerance window
        config = SweepConfig(family="effective", grid=(0.25,))
        rows = run_sweep(config)
        assert rows[0]["status"] == "ok"
        # a status other than ok leaves value cells absent -> empty in CSV
        fake_row = {"x_signed": 0.999, "status": "DegeneracyGuard"}
        line = ",".join(format_cell(fake_row.get(c)) for c in EFFECTIVE_COLUMNS)
        assert line.split(",")[EFFECTIVE_COLUMNS.index("qfi_spectral")] == ""
        assert line.split(",")[-1] == "DegeneracyGuard"

    def test_metadata_deterministic(self):
        config = SweepConfig(family="tfim", grid=(0.1, 0.2), N=4)
        a = json.dumps(sweep_metadata(config), sort_keys=True)
        b = json.dumps(sweep_metadata(config), sort_keys=True)
        assert a == b
