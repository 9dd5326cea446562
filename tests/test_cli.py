import math

import pytest

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


class TestVersion:
    def test_prints(self, capsys):
        code, out, _ = run_cli(capsys, "version")
        assert code == 0
        assert out.strip().count(".") == 2
