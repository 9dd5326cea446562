import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from anticrit import fock, qfi, spectral, sweep
from anticrit.cli import emit_config_template, main, parse_config
from anticrit.sweep import CHAIN_DEFAULT_COLUMNS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestQfiCommand:
    def test_analytic(self, capsys):
        code, out, _ = run_cli(
            capsys, "qfi", "--family", "effective_low", "--x", "0.25",
            "--method", "analytic",
        )
        assert code == 0
        assert float(out.splitlines()[0]) == pytest.approx(
            0.25**2 / (8 * 0.75**2), rel=1e-12
        )

    def test_spectral_default_method(self, capsys):
        code, out, _ = run_cli(
            capsys, "qfi", "--family", "effective_low", "--x", "0.25"
        )
        assert code == 0
        assert float(out.splitlines()[0]) == pytest.approx(
            0.25**2 / (8 * 0.75**2), rel=1e-6
        )

    def test_verbose_diagnostics(self, capsys):
        code, out, _ = run_cli(
            capsys, "qfi", "--family", "effective_low", "--x", "0.25",
            "--method", "analytic", "--verbose",
        )
        assert code == 0
        assert "method=analytic" in out
        assert any(line.startswith("xi=") for line in out.splitlines())

    def test_guard_exit_code(self, capsys):
        code, out, err = run_cli(
            capsys, "qfi", "--family", "effective_low", "--x", "1.0",
            "--method", "analytic",
        )
        assert code == 3
        assert out == ""
        assert err.startswith("CriticalPointGuard:")

    def test_analytic_needs_effective(self, capsys):
        code, _, err = run_cli(
            capsys, "qfi", "--family", "lmg", "--g", "0.5", "--method", "analytic"
        )
        assert code == 2
        assert err.startswith("error:")

    def test_oscillator_evolution(self, capsys):
        code, out, _ = run_cli(
            capsys, "qfi", "--family", "effective_low", "--x", "0.75",
            "--method", "oscillator_evolution", "--t", "1.0", "--var-c", "1.0",
        )
        assert code == 0
        assert float(out.splitlines()[0]) == pytest.approx(6.25)

    @pytest.mark.parametrize("method", ["analytic", "phase_imprint", "oscillator_evolution"])
    def test_closed_forms_read_g(self, capsys, method):
        # g = 0.5 at the default Omega = 1000 omega is x = g^2/(omega Omega) = 2.5e-4
        outputs = [
            run_cli(capsys, "qfi", "--family", "effective_low", *point, "--method", method)
            for point in (("--g", "0.5"), ("--x", "2.5e-4"))
        ]
        assert outputs[0][0] == 0
        assert outputs[0] == outputs[1]
        assert float(outputs[0][1]) > 0.0

    @pytest.mark.parametrize(
        "flags, n_max", [((), fock.DEFAULT_N_MAX), (("--n-max", "40"), 40)], ids=["default", "40"]
    )
    def test_phase_imprint_reads_n_max(self, capsys, monkeypatch, flags, n_max):
        # escalation starts from --n-max, and the state keeps that truncation when it fits
        seen = []
        original = fock.squeeze_vacuum_auto

        def spy(xi, *args, **kwargs):
            seen.append(args[0] if args else kwargs.get("n_max"))
            state = original(xi, *args, **kwargs)
            seen.append(state.dim)
            return state

        monkeypatch.setattr(fock, "squeeze_vacuum_auto", spy)
        code, out, _ = run_cli(
            capsys, "qfi", "--family", "effective_low", "--x", "0.5",
            "--method", "phase_imprint", "--t", "1", *flags,
        )
        assert code == 0
        assert seen == [n_max, n_max + 1]
        assert float(out) == pytest.approx(0.25, rel=1e-12)

    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["qfi", "--family", "effective_low", "--x", "0.25", "--bogus"])
        assert exc.value.code == 2


class TestGapCommand:
    def test_lmg_free(self, capsys):
        code, out, _ = run_cli(capsys, "gap", "--family", "lmg", "--N", "200")
        assert code == 0
        assert float(out.splitlines()[0]) == pytest.approx(1.0, abs=1e-10)

    def test_effective_low(self, capsys):
        code, out, _ = run_cli(
            capsys, "gap", "--family", "effective_low", "--x", "0.75"
        )
        assert code == 0
        assert float(out.splitlines()[0]) == pytest.approx(0.5, abs=1e-8)


class TestNegativeX:
    @pytest.mark.parametrize("command", ["qfi", "gap"])
    @pytest.mark.parametrize(
        "family,extra",
        [
            ("lmg", ()),
            ("tfim", ("--N", "4")),
            ("rabi_full", ("--n-max", "40")),
            ("effective_low", ()),
        ],
    )
    def test_usage_error(self, capsys, command, family, extra):
        code, out, err = run_cli(capsys, command, "--family", family, "--x", "-0.5", *extra)
        assert code == 2
        assert out == ""
        assert err == "error: x must be >= 0, got -0.5\n"

    @pytest.mark.parametrize(
        "method", ["analytic", "state_fd", "phase_imprint", "oscillator_evolution"]
    )
    def test_every_qfi_method(self, capsys, method):
        code, out, err = run_cli(
            capsys, "qfi", "--family", "effective_high", "--x", "-0.5", "--method", method
        )
        assert (code, out, err) == (2, "", "error: x must be >= 0, got -0.5\n")


class TestNonFiniteX:
    """A NaN coupling reaches a banded Hamiltonian, which refuses it when it is built."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("qfi", "--family", "effective_high", "--x", "nan"),
            ("qfi", "--family", "lmg", "--x", "nan", "--N", "20"),
            ("adiabatic", "--family", "effective_high", "--x-start", "0", "--x-end", "nan",
             "--T", "2", "--steps", "101"),
        ],
        ids=["qfi_effective_high", "qfi_lmg", "adiabatic_effective_high"],
    )
    def test_usage_error(self, capsys, argv):
        assert run_cli(capsys, *argv) == (2, "", "error: array must not contain infs or NaNs\n")


class TestNullOrNonFiniteStep:
    """A step of zero, one that leaves omega unchanged, or a NaN time never prints a QFI."""

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("qfi", "--method", "state_fd", "--d-omega", "0"), "d_omega must be finite"),
            (("qfi", "--method", "state_fd", "--d-omega", "1e-300"), "d_omega must be finite"),
            (("qfi", "--method", "phase_imprint", "--t", "nan"), "evolution time must be >= 0, got nan"),
            (("adiabatic", "--x-start", "0", "--x-end", "0.5", "--T", "nan"), "ramp time must be >= 0, got nan"),
        ],
        ids=["state_fd_zero", "state_fd_below_ulp", "phase_imprint_nan_t", "adiabatic_nan_T"],
    )
    def test_usage_error(self, capsys, argv, message):
        command, *rest = argv
        point = ("--x", "0.5") if command == "qfi" else ()
        code, out, err = run_cli(capsys, command, "--family", "effective_low", *point, *rest)
        assert (code, out) == (2, "") and err.startswith(f"error: {message}")


@pytest.mark.parametrize(
    "argv,named",
    [
        (("gap", "--family", "effective_high", "--g", "1e200"), "effective_high: H overflows float64 at g=1e+200"),
        (("qfi", "--family", "effective_low", "--g", "1e200"), None),
        (("qfi", "--family", "effective_high", "--x", "1e160", "--method", "analytic"), None),
        (("qfi", "--family", "effective_high", "--x", "1e160", "--method", "oscillator_evolution"), None),
        (("adiabatic", "--family", "effective_low", "--x-start", "0", "--x-end", "0.5", "--T", "inf"), None),
        (("sweep", "--family", "lmg", "--N", "20", "--grid=0:inf:3"), None),
        (("qfi", "--family", "tfim", "--g", "inf", "--N", "4"), None),
        (("gap", "--family", "lmg", "--g", "1e308"), "lmg: H overflows float64 at g=1e+308"),
        (("gap", "--family", "tfim", "--omega", "1e308", "--g", "1"), "tfim: H overflows float64 at omega=1e+308"),
        (("gap", "--family", "rabi_full", "--omega", "1e306", "--Omega", "1"),
         "rabi_full: H overflows float64 at omega=1e+306"),
    ],
    ids=["gap_overflow", "qfi_overflow", "analytic_overflow", "evolution_overflow", "infinite_T",
         "infinite_grid_end", "infinite_g", "lmg_g_overflow", "tfim_omega_overflow", "rabi_full_omega_overflow"],
)
def test_out_of_range_number_is_a_usage_error(capsys, argv, named):
    # `named`: the line that names the family and the parameter whose term of H overflowed
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, *argv)
    assert (code, out, caught) == (2, "", [])
    assert err.startswith("error: ") and "Traceback" not in err and "Warning" not in err
    if named is not None:
        assert err == f"error: {named}\n"


class TestSweepCommand:
    def test_stdout_grid(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--family", "effective", "--grid", "0.25:0.5:2"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("x_signed,")
        assert len(lines) == 3

    def test_csv_out(self, capsys, tmp_path):
        out_path = tmp_path / "rows.csv"
        code, out, _ = run_cli(
            capsys, "sweep", "--family", "tfim", "--N", "4",
            "--grid", "0.0:0.5:2", "--out", str(out_path),
        )
        assert code == 0
        assert out.strip() == str(out_path)
        assert out_path.exists()
        assert out_path.with_suffix(".meta.json").exists()

    def test_stdout_deterministic(self, capsys):
        args = ("sweep", "--family", "lmg", "--N", "30", "--grid", "0.0:0.8:3")
        _, out_a, _ = run_cli(capsys, *args)
        _, out_b, _ = run_cli(capsys, *args)
        assert out_a == out_b

    def test_negative_grid_start(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--family", "tfim", "--N", "4", "--grid=-1:1:3"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == ",".join(CHAIN_DEFAULT_COLUMNS)
        assert len(lines) == 4

    def test_negative_grid_start_with_space(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--family", "tfim", "--N", "4", "--grid", "-1:1:3"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == ",".join(CHAIN_DEFAULT_COLUMNS)
        assert [line.split(",")[0] for line in lines[1:]] == ["-1.0", "0.0", "1.0"]

    def test_bad_grid(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--family", "lmg", "--grid", "0.0:0.5"
        )
        assert code == 2
        assert "start:stop:count" in err


class TestAdiabaticCommand:
    def test_constant_schedule(self, capsys):
        code, out, _ = run_cli(
            capsys, "adiabatic", "--family", "effective_low",
            "--x-start", "0.25", "--T", "1.0", "--schedule", "constant",
            "--steps", "201",
        )
        assert code == 0
        assert float(out.splitlines()[0]) > 0


    @pytest.mark.parametrize(
        "family,default_n,ramp",
        [
            ("lmg", "200", ("--x-start", "0.1", "--x-end", "0.3", "--T", "2", "--steps", "101")),
            # x_start == x_end: the ramp solves the 2^10-dim chain once
            ("tfim", "10", ("--x-start", "0.3", "--T", "2", "--steps", "1001")),
            ("tfim_transverse", "10", ("--x-start", "0.3", "--T", "2", "--steps", "1001")),
        ],
    )
    def test_spin_count_default(self, capsys, family, default_n, ramp):
        code, out, err = run_cli(capsys, "adiabatic", "--family", family, *ramp)
        assert (code, err) == (0, "")
        explicit = run_cli(capsys, "adiabatic", "--family", family, *ramp, "--N", default_n)
        assert explicit == (0, out, "")

    def test_level_diagnostics_verbose_only(self, capsys):
        ramp = ("adiabatic", "--family", "effective_high", "--x-start", "0", "--x-end", "0.5",
                "--T", "2", "--steps", "101", "--n-max", "60")
        code, out, _ = run_cli(capsys, *ramp)
        assert code == 0 and len(out.splitlines()) == 1
        code, verbose, _ = run_cli(capsys, *ramp, "--verbose")
        lines = verbose.splitlines()
        assert code == 0 and lines[0] == out.strip() and "levels_solved=3" in lines
        assert 0.0 <= float(dict(line.split("=") for line in lines[1:])["dropped_bound"]) <= 1e-28

    @pytest.mark.parametrize("flag", [("--x", "3"), ("--g", "5"), ("--Omega", "2")])
    def test_coupling_flags_rejected(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main([
                "adiabatic", "--family", "lmg", "--x-start", "0.1", "--x-end", "0.3",
                "--T", "2", "--steps", "101", *flag,
            ])
        assert exc.value.code == 2
        assert flag[0] in capsys.readouterr().err.splitlines()[-1]


class TestConvergeCommand:
    def test_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "converge", "--family", "effective_low", "--x", "0.5",
            "--levels", "40,80,160",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n_max,ground_energy,gap01,mean_n,converged"
        assert len(lines) == 4
        assert lines[-1].endswith("yes")


class TestConfig:
    def test_template_round_trip(self):
        text = emit_config_template()
        values = parse_config(text)
        assert emit_config_template(values) == text  # idempotent

    def test_template_reads_library_constants(self):
        values = parse_config(emit_config_template())
        assert int(values["n_max"]) == fock.DEFAULT_N_MAX
        assert float(values["degeneracy_tol"]) == qfi.DEGENERACY_TOL
        assert float(values["truncation_tol"]) == fock.TRUNCATION_TOL
        assert float(values["ramp_gap_tol"]) == qfi.RAMP_GAP_TOL
        assert int(values["max_dim"]) == spectral.MAX_DIM
        assert int(values["steps"]) == qfi.RampSpec.steps
        assert int(values["jobs"]) == sweep.SweepConfig.jobs
        assert f"up to {fock.N_MAX_CAP}\n" in emit_config_template()

    def test_unknown_key(self):
        with pytest.raises(ValueError):
            parse_config("mystery=1\n")

    def test_n_max_cap_key_removed(self):
        with pytest.raises(ValueError):
            parse_config("n_max_cap=8192\n")

    def test_malformed_line(self):
        with pytest.raises(ValueError):
            parse_config("omega 2.0\n")

    def test_config_file_used(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("omega=2.0\n")
        code, out, _ = run_cli(
            capsys, "--config", str(cfg), "qfi", "--family", "effective_low",
            "--x", "0.25", "--method", "analytic",
        )
        assert code == 0
        assert float(out.splitlines()[0]) == pytest.approx(
            0.25**2 / (8 * 4.0 * 0.75**2), rel=1e-12
        )

    def test_config_unknown_key_exit(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("mystery=1\n")
        code, _, err = run_cli(capsys, "--config", str(cfg), "version")
        assert code == 2
        assert "unknown key" in err

    def test_flag_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("omega=2.0\n")
        code, out, _ = run_cli(
            capsys, "--config", str(cfg), "qfi", "--family", "effective_low",
            "--x", "0.25", "--method", "analytic", "--omega", "1.0",
        )
        assert code == 0
        assert float(out.splitlines()[0]) == pytest.approx(
            0.25**2 / (8 * 0.75**2), rel=1e-12
        )


    def test_bad_value_exits_through_argparse(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("steps=abc\n")
        with pytest.raises(SystemExit) as exc:
            main([
                "--config", str(cfg), "adiabatic", "--family", "effective_low",
                "--x-start", "0.25", "--T", "1.0",
            ])
        assert exc.value.code == 2
        assert "argument --steps: invalid int value: 'abc'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ("qfi", "--family", "effective_low", "--x", "0.25"),
            ("qfi", "--family", "lmg", "--N", "20", "--x", "0.5", "--method", "state_fd"),
            ("gap", "--family", "lmg", "--N", "20", "--x", "0.5", "--verbose"),
            ("adiabatic", "--family", "lmg", "--N", "20", "--x-start", "0.1", "--x-end", "0.3",
             "--T", "2"),
            ("converge", "--family", "effective_low", "--x", "0.5"),
            ("sweep", "--family", "lmg", "--N", "20", "--grid", "0.0:0.5:3"),
        ],
    )
    def test_template_as_config_changes_nothing(self, capsys, tmp_path, argv):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(emit_config_template())
        plain = run_cli(capsys, *argv)
        assert plain[0] == 0
        assert run_cli(capsys, "--config", str(cfg), *argv) == plain

    def test_tolerances_last_one_call(self, capsys, tmp_path):
        modules = (qfi, fock, qfi, spectral)
        names = ("DEGENERACY_TOL", "TRUNCATION_TOL", "RAMP_GAP_TOL", "MAX_DIM")
        before = [getattr(m, n) for m, n in zip(modules, names)]
        cfg = tmp_path / "tight.cfg"
        cfg.write_text(
            "degeneracy_tol=0.5\ntruncation_tol=0.5\nramp_gap_tol=0.5\nmax_dim=10\n"
        )
        assert run_cli(capsys, "--config", str(cfg), "version")[0] == 0
        assert [getattr(m, n) for m, n in zip(modules, names)] == before
        code, _, err = run_cli(capsys, "--config", str(cfg), "gap", "--family", "lmg", "--N", "20")
        assert (code, err.split(":")[0]) == (3, "DimensionGuard")
        assert [getattr(m, n) for m, n in zip(modules, names)] == before
        # argparse's exit after the config is read restores them too
        cfg.write_text(cfg.read_text() + "steps=abc\n")
        with pytest.raises(SystemExit):
            main(["--config", str(cfg), "adiabatic", "--family", "lmg", "--x-start", "0.1",
                  "--T", "2"])
        assert [getattr(m, n) for m, n in zip(modules, names)] == before
        assert run_cli(capsys, "gap", "--family", "lmg", "--N", "20")[0] == 0


def test_import_loads_neither_integrate_nor_sparse():
    # no anticrit module imports scipy.sparse or scipy.integrate, and scipy.linalg loads neither
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import sys, anticrit; print(sorted({'scipy.integrate', 'scipy.sparse'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


class TestVersion:
    def test_prints(self, capsys):
        code, out, _ = run_cli(capsys, "version")
        assert code == 0
        assert out.strip().count(".") == 2
