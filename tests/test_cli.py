import csv
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import irsbf
from irsbf.cli import build_setup, main, parse_config_file
from irsbf.sim import SweepSpec, SweepVariable, db2pow, run_sweep, write_results_csv


def run_cli(args):
    # the child imports the same irsbf as this process, installed or not
    src = str(Path(irsbf.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "irsbf.cli", *args],
        capture_output=True,
        text=True,
        timeout=600,
        env={**os.environ, "PYTHONPATH": path},
    )


class TestConfigFile:
    def test_parse_and_build(self, tmp_path):
        path = tmp_path / "setup.cfg"
        path.write_text(
            "# overrides\n"
            "N_S = 2\n"
            "n_i = 8\n"
            "P_dBW = 6\n"
            "kappa = 0.05\n"
            "sigma_n2_dbw = -80\n"
            "d_sd_h = 45\n"
        )
        overrides = parse_config_file(str(path))
        cfg, geo = build_setup(overrides)
        assert cfg.n_s == 2 and cfg.n_i == 8
        assert cfg.p == pytest.approx(db2pow(6.0))
        assert cfg.kappa_s == cfg.kappa_d == 0.05
        assert cfg.sigma_n2 == pytest.approx(db2pow(-80.0))
        assert geo.d_sd_h == 45.0

    def test_defaults_match_reference_point(self):
        cfg, geo = build_setup({})
        assert (cfg.n_s, cfg.n_i) == (4, 50)
        assert cfg.p == pytest.approx(db2pow(12.0))
        assert cfg.kappa_s == cfg.kappa_d == 0.07
        assert cfg.sigma_n2 == pytest.approx(db2pow(-85.0))
        assert (geo.d_si, geo.d_v, geo.d_sd_h) == (50.0, 2.0, 49.0)
        assert (geo.pl0_db, geo.d0) == (-30.0, 1.0)
        assert (geo.gamma_si, geo.gamma_id, geo.gamma_sd) == (2.5, 2.5, 3.5)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("frequency = 2e9\n")
        with pytest.raises(ValueError, match="frequency"):
            parse_config_file(str(path))

    def test_bad_config_file_exits_nonzero(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("nonsense line\n")
        rc = main(["sweep-n", "--config", str(path), "--channels", "1"])
        assert rc != 0

    def test_sweep_with_every_realization_failed_reports_error(self, tmp_path, capsys):
        # the destination sits on the surface, so every channel draw is rejected
        path = tmp_path / "on_surface.cfg"
        path.write_text("d_v = 0\nd_sd_h = 50\n")
        rc = main([
            "sweep-n", "--config", str(path), "--values", "4", "--channels", "2",
            "--symbols", "0", "--no-bound",
        ])
        assert rc == 1
        errors = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("error:")]
        assert len(errors) == 1
        assert "all 2 realizations failed at n_i=4" in errors[0]
        assert "ConfigError: destination coincides with the IRS" in errors[0]


class TestDeterminism:
    def test_sweep_csv_matches_library_writer(self, tmp_path):
        out = tmp_path / "cli.csv"
        assert main([
            "sweep-n", "--seed", "5", "--channels", "2", "--symbols", "40",
            "--values", "4,8", "--out", str(out),
        ]) == 0
        cfg, geo = build_setup({})
        spec = SweepSpec(
            variable=SweepVariable.N_I, values=(4, 8), n_channels=2, n_symbols=40, seed=5
        )
        buf = io.StringIO()
        write_results_csv(buf, run_sweep(spec, cfg, geo))
        assert out.read_bytes() == buf.getvalue().encode("utf-8")

    def test_same_seed_byte_identical_csv(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = [
            "sweep-n", "--seed", "7", "--channels", "2", "--symbols", "50",
            "--values", "4,8", "--no-bound",
        ]
        assert main([*args, "--out", str(out1)]) == 0
        assert main([*args, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_worker_count_does_not_change_csv(self, tmp_path):
        out1, out2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
        args = [
            "sweep-kappa", "--seed", "3", "--channels", "4", "--symbols", "40",
            "--values", "0.05,0.1", "--no-bound",
        ]
        assert main([*args, "--workers", "1", "--out", str(out1)]) == 0
        assert main([*args, "--workers", "2", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_shared_pool_does_not_change_csv(self, tmp_path):
        # one process pool serves all three points of the run
        out1, out2 = tmp_path / "n1.csv", tmp_path / "n2.csv"
        args = [
            "sweep-n", "--seed", "11", "--channels", "3", "--symbols", "40",
            "--values", "4,8,12", "--no-bound",
        ]
        assert main([*args, "--workers", "1", "--out", str(out1)]) == 0
        assert main([*args, "--workers", "2", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_symbol_count_does_not_change_csv(self, tmp_path):
        # the SER column is exact, so the nominal symbol count cannot move it
        out1, out2 = tmp_path / "s60.csv", tmp_path / "s2000.csv"
        args = ["sweep-n", "--seed", "3", "--channels", "3", "--values", "4,16", "--no-bound"]
        assert main([*args, "--symbols", "60", "--out", str(out1)]) == 0
        assert main([*args, "--symbols", "2000", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_bound_column_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "c.csv", tmp_path / "d.csv"
        args = ["sweep-n", "--seed", "11", "--channels", "2", "--symbols", "0", "--values", "6"]
        assert main([*args, "--out", str(out1)]) == 0
        assert main([*args, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestSubcommands:
    def test_sweep_power_json(self, capsys):
        rc = main([
            "sweep-power", "--seed", "5", "--channels", "2", "--symbols", "20",
            "--values", "0,12", "--no-bound", "--json",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        rows = payload["results"]
        assert {r["scheme"] for r in rows} == {
            "robust_irs", "nonrobust_irs", "robust_no_irs", "nonrobust_no_irs",
        }
        assert {r["value"] for r in rows} == {0.0, 12.0}

    def test_discrete_bits_flag(self, tmp_path):
        out = tmp_path / "bits.csv"
        rc = main([
            "sweep-n", "--seed", "9", "--channels", "2", "--symbols", "0",
            "--values", "8", "--bits", "2", "--no-bound", "--out", str(out),
        ])
        assert rc == 0
        assert out.exists()

    def test_iteration_study_csv(self, tmp_path):
        out = tmp_path / "iters.csv"
        rc = main([
            "iteration-study", "--seed", "2", "--channels", "3", "--values", "4,8",
            "--out", str(out),
        ])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "n_i,robust_plain,robust_accel,nonrobust_plain,nonrobust_accel"
        assert len(lines) == 3

    def test_los_demo_json(self, capsys):
        rc = main(["los-demo", "--seed", "4", "--n-i", "12", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["closed_form_snr_db"] == pytest.approx(
            payload["direct_evaluation_snr_db"], abs=1e-6
        )
        assert payload["mm_psi_tilde"] == pytest.approx(
            payload["closed_form_psi_tilde"], rel=1e-5
        )

    def test_bound_check_reports_no_violations(self, capsys):
        rc = main(["bound-check", "--seed", "6", "--channels", "2", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["dominance_violations"] == 0
        assert payload["mean_gap_db"] >= 0.0

    def test_bound_check_reports_certified_gap(self, capsys, tmp_path):
        out = tmp_path / "bound.csv"
        rc = main(["bound-check", "--seed", "6", "--channels", "3", "--json", "--out", str(out)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert 0.0 <= payload["mean_certified_gap_db"] <= payload["max_certified_gap_db"]
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        assert len(rows) == 3
        for row in rows:
            primal, bound = float(row["psi_tilde_primal"]), float(row["psi_tilde_bound"])
            assert float(row["psi_tilde_mm"]) <= bound and primal <= bound
            assert float(row["certified_gap_db"]) >= 0.0
        assert max(float(r["certified_gap_db"]) for r in rows) == pytest.approx(
            payload["max_certified_gap_db"], rel=1e-9, abs=1e-12
        )

    def test_usage_error_exits_nonzero(self):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code != 0

    def test_module_entry_point(self):
        proc = run_cli(["sweep-n", "--seed", "1", "--channels", "1", "--symbols", "0",
                        "--values", "4", "--no-bound"])
        assert proc.returncode == 0
        assert "robust_irs" in proc.stdout


def error_lines(capsys):
    return [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("error:")]


class TestArgumentChecks:
    def test_iteration_study_without_channels_is_one_error_line(self, capsys):
        rc = main(["iteration-study", "--channels", "0", "--values", "4"])
        assert rc == 1
        assert error_lines(capsys) == ["error: n_channels must be >= 1, got 0"]

    def test_bound_check_without_channels_is_rejected_up_front(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["bound-check", "--channels", "0"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.splitlines() == ["error: n_channels must be >= 1, got 0"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["los-demo", "--out", "ignored.csv"],
            ["los-demo", "--workers", "2"],
            ["bound-check", "--workers", "2"],
        ],
    )
    def test_flags_a_command_does_not_act_on_are_usage_errors(self, argv, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert not (tmp_path / "ignored.csv").exists()

    @pytest.mark.parametrize(
        "command",
        [
            ["sweep-n", "--channels", "1", "--values", "4", "--symbols", "0", "--no-bound"],
            ["iteration-study", "--channels", "1", "--values", "4"],
            ["los-demo", "--n-i", "4"],
            ["bound-check", "--channels", "1"],
        ],
    )
    @pytest.mark.parametrize("seed", ["-1", str(2**64), "seven"])
    def test_seed_checked_for_every_command(self, command, seed, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--seed", seed])
        assert exc.value.code == 2
        assert "seed must be an integer in [0, 2**64)" in capsys.readouterr().err

    def test_largest_seed_accepted(self, capsys):
        assert main(["los-demo", "--n-i", "4", "--seed", str(2**64 - 1), "--json"]) == 0

    @pytest.mark.parametrize(
        "command",
        [
            ["sweep-n", "--channels", "1", "--symbols", "0", "--no-bound"],
            ["iteration-study", "--channels", "1"],
        ],
    )
    def test_non_integer_surface_size_rejected(self, command, capsys):
        assert main([*command, "--values", "4,4.6"]) == 1
        assert error_lines(capsys) == ["error: n_i must be an integer, got 4.6"]

    def test_zero_bits_is_an_error_not_continuous(self, capsys):
        rc = main(["sweep-n", "--channels", "1", "--values", "4", "--symbols", "0", "--bits", "0"])
        assert rc == 1
        assert error_lines(capsys) == ["error: discrete phases need bits >= 1, got 0"]
