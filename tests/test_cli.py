import csv
import io
import json
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import irsbf
import irsbf.cli as cli_mod
import irsbf.sim as sim_mod
from irsbf.cli import CSV_HEADER, _cell, build_parser, main
from irsbf.mm import MMSettings, lifted_objective
from irsbf.model import ConfigError
from irsbf.sim import (
    Scheme,
    SweepSpec,
    _design_rows,
    _draw,
    _sweep_task,
    child_seed,
    db2pow,
    load_setup,
    pow2db,
    run_sweep,
    table_defaults,
)
from irsbf.txbf import snr_from_psi_tilde

SETUP = Path(__file__).resolve().parent / "golden" / "setup.cfg"


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
        cfg, geo = load_setup(str(path))
        assert cfg.n_s == 2 and cfg.n_i == 8
        assert cfg.p == pytest.approx(db2pow(6.0))
        assert cfg.kappa_s == cfg.kappa_d == 0.05
        assert cfg.sigma_n2 == pytest.approx(db2pow(-80.0))
        assert geo.d_sd_h == 45.0

    def test_defaults_match_reference_point(self):
        cfg, geo = table_defaults()
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
            load_setup(str(path))

    @pytest.mark.parametrize(
        "line, message",
        [
            ("n_i = 4.5", "n_i must be an integer, got 4.5"),
            ("p_dbw = abc", "p_dbw must be a number, got abc"),
            ("Frequency = 2e9", "unknown setting 'frequency'"),
            ("nonsense line", "expected 'name = value', got 'nonsense line'"),
            ("kappa = 1.5", "kappa_s out of range [0, 1): 1.5"),
            # numpy could not index the draw block of one realization
            ("n_s = 1e30", "n_s must be in [1, 576460752303423486], got 1000000000000000019884624838656"),
        ],
    )
    def test_error_names_file_line_and_key(self, tmp_path, line, message):
        path = tmp_path / "bad.cfg"
        path.write_text(f"# comment\nn_s = 2\n{line}\n")
        with pytest.raises(ConfigError) as exc:
            load_setup(str(path))
        assert str(exc.value) == f"{path}:3: {message}"

    @pytest.mark.parametrize("line, message", [
        ("n_i = 4.5", "n_i must be an integer, got 4.5"),
        # 10 ** 500 overflows a float
        ("p_dbw = 5000", "p_dbw out of range, got 5000"),
    ])
    def test_cli_error_line_names_the_file(self, tmp_path, capsys, line, message):
        path = tmp_path / "bad.cfg"
        path.write_text(f"{line}\n")
        assert main(["los-demo", "--config", str(path)]) == 1
        (error,) = capsys.readouterr().err.splitlines()
        assert error == f"error: {path}:1: {message}"

    def test_an_undecodable_config_file_is_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "latin1.cfg"
        path.write_bytes("# d\u00e9faut\nn_i = 8\n".encode("latin-1"))
        assert main(["los-demo", "--config", str(path)]) == 1
        (error,) = capsys.readouterr().err.splitlines()
        assert error.startswith("error: 'utf-8' codec can't decode byte 0xe9")

    def test_lines_apply_in_file_order(self, tmp_path):
        path = tmp_path / "order.cfg"
        path.write_text("kappa_d = 0.1\nkappa = 0.05\nkappa_d = 0.2\nn_i = 8\nN_I = 12\n")
        cfg, _ = load_setup(str(path))
        assert (cfg.kappa_s, cfg.kappa_d, cfg.n_i) == (0.05, 0.2, 12)

    def test_los_demo_takes_n_i_from_the_config(self, capsys):
        base = ["los-demo", "--seed", "9", "--config", str(SETUP), "--json"]
        assert main(base) == 0
        from_config = capsys.readouterr().out
        assert main([*base, "--n-i", "12"]) == 0
        assert from_config == capsys.readouterr().out
        assert main([*base, "--n-i", "16"]) == 0
        assert from_config != capsys.readouterr().out

    def test_bad_config_file_exits_nonzero(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("nonsense line\n")
        rc = main(["sweep-n", "--config", str(path), "--channels", "1"])
        assert rc != 0

    @pytest.fixture
    def degenerate_draws(self, monkeypatch):
        # every realization drawn without any channel: no beam direction exists
        draw = sim_mod._draw

        def zero(cfg, geo, seeds):
            psis, inits = draw(cfg, geo, seeds)
            psis[...] = 0.0
            return psis, inits

        monkeypatch.setattr(sim_mod, "_draw", zero)

    def test_sweep_with_every_realization_failed_reports_error(self, degenerate_draws, capsys):
        rc = main([
            "sweep-n", "--values", "4", "--channels", "2", "--symbols", "0", "--no-bound",
        ])
        assert rc == 1
        errors = error_lines(capsys)
        assert len(errors) == 1
        assert "all 2 realizations failed at n_i=4" in errors[0]
        assert "DegenerateChannelError: degenerate channel: composite vector is zero" in errors[0]

    # a reference path loss of +4000 dB overflows every link gain to inf, a
    # path-loss exponent of -400 the direct link's, and -4000 dB underflows
    # every gain to 0
    BAD_PATH_LOSS = [
        pytest.param("pl_0 = 4000", "pl0_db = 4000 and gamma_si = 2.5 give h_si a path-loss"
                     " gain of inf", id="pl_0=4000"),
        pytest.param("gamma_sd = -400", "pl0_db = -30 and gamma_sd = -400 give h_sd a path-loss"
                     " gain of inf", id="gamma_sd=-400"),
        pytest.param("pl_0 = -4000", "pl0_db = -4000 and gamma_si = 2.5 give h_si a path-loss"
                     " gain of 0", id="pl_0=-4000"),
    ]

    @pytest.mark.parametrize("line, message", BAD_PATH_LOSS)
    def test_bad_path_loss_is_rejected_when_loaded(self, tmp_path, line, message):
        path = tmp_path / "bad.cfg"
        path.write_text(f"{line}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError) as exc:
                load_setup(str(path))
        assert str(exc.value).startswith(f"{path}:1: {message} at ")
        assert str(exc.value).endswith(" m; it must be finite and positive")

    @pytest.mark.parametrize("line, message", BAD_PATH_LOSS)
    @pytest.mark.parametrize("command", ["sweep-n", "bound-check"])
    def test_bad_path_loss_reports_one_error_line(self, tmp_path, capsys, command, line, message):
        path = tmp_path / "bad.cfg"
        path.write_text(f"{line}\n")
        out = tmp_path / "rows.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main([command, "--config", str(path), "--channels", "2", "--out", str(out)])
        assert rc == 1
        (error,) = capsys.readouterr().err.splitlines()
        assert error.startswith(f"error: {path}:1: {message} at ")
        assert not out.exists()

    def test_bound_check_on_a_degenerate_channel_reports_error(self, degenerate_draws, capsys):
        rc = main(["bound-check", "--channels", "2"])
        assert rc == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [
            "error: channel 0: degenerate channel: composite vector is zero"
        ]

    def test_destination_on_the_surface_fails_before_any_row(self, tmp_path, capsys):
        # the second point puts the destination on the surface (d_v = 0, d_sd_h = d_si)
        path = tmp_path / "collinear.cfg"
        path.write_text("d_v = 0\n")
        out = tmp_path / "rows.csv"
        rc = main([
            "sweep-distance", "--config", str(path), "--values", "45,50", "--channels", "1",
            "--symbols", "0", "--no-bound", "--out", str(out),
        ])
        assert rc == 1
        assert error_lines(capsys) == ["error: destination coincides with the IRS (d_id = 0)"]
        assert not out.exists()


class TestDeterminism:
    def test_sweep_csv_matches_run_sweep(self, tmp_path):
        out = tmp_path / "cli.csv"
        assert main([
            "sweep-n", "--seed", "5", "--channels", "2", "--symbols", "40",
            "--values", "4,8", "--out", str(out),
        ]) == 0
        cfg, geo = table_defaults()
        spec = SweepSpec(
            variable="n_i", values=(4, 8), n_channels=2, n_symbols=40, seed=5
        )
        expected = [list(CSV_HEADER)] + [
            [res.sweep_variable, f"{res.sweep_value:.10g}", scheme.value,
             f"{st.mean_snr_db:.10g}", "" if st.ser is None else f"{st.ser:.10g}",
             "" if st.mean_iterations is None else f"{st.mean_iterations:.10g}"]
            for res in run_sweep(spec, cfg, geo)
            for scheme, st in res.stats.items()
        ]
        assert list(csv.reader(io.StringIO(out.read_text()))) == expected

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

    @pytest.mark.parametrize("args", [
        # two chunks per point, designed as stacks by either worker
        pytest.param(["sweep-n", "--seed", "6", "--channels", "34", "--values", "4,8",
                      "--symbols", "40", "--no-bound"], id="small"),
        # a sweep task designs a chunk of up to 32 of one point's realizations
        # as MM stacks at every surface size; 34 channels make two chunks per
        # point, the first a stack of 32 rows even at n_i 200
        pytest.param(["sweep-n", "--values", "8,50,200", "--channels", "34", "--no-bound",
                      "--seed", "1"], id="n_i-200"),
        # with --bits a chunk scores the kept quantized profiles as one stack,
        # and the bound starts from each realization's robust design
        pytest.param(["sweep-n", "--values", "8,50", "--channels", "34", "--bits", "2",
                      "--seed", "1"], id="bits2-bound"),
    ])
    def test_worker_count_does_not_change_the_sweep_csv(self, tmp_path, args):
        assert sim_mod._CHUNK < 34
        out1, out2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
        assert main([*args, "--workers", "1", "--out", str(out1)]) == 0
        assert main([*args, "--workers", "2", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("args", [
        # more channels than one chunk of the study's lockstep runs
        pytest.param(["iteration-study", "--seed", "6", "--channels", "34", "--values", "4,6"],
                     id="two-chunks"),
        # the study's runs step in lockstep over one point's realizations, up
        # to n_i 200; the CSV must not depend on how workers share them
        pytest.param(["iteration-study", "--values", "8,50,200", "--channels", "6",
                      "--seed", "1"], id="n_i-200"),
    ])
    def test_worker_count_does_not_change_the_study_csv(self, tmp_path, args):
        assert sim_mod._CHUNK < 34
        out1, out2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
        assert main([*args, "--workers", "1", "--out", str(out1)]) == 0
        assert main([*args, "--workers", "2", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_parser_is_built_once_and_keeps_no_state(self, tmp_path):
        assert build_parser() is build_parser()
        first, study, again = (tmp_path / f"{name}.csv" for name in ("first", "study", "again"))
        # sweep-n takes --epsilon and --workers from their defaults, which the
        # iteration study in between overrides
        args = ["sweep-n", "--seed", "4", "--channels", "2", "--symbols", "40", "--values", "4,8"]
        assert main([*args, "--out", str(first)]) == 0
        assert main([
            "iteration-study", "--seed", "9", "--channels", "2", "--values", "4",
            "--epsilon", "1e-3", "--workers", "2", "--out", str(study),
        ]) == 0
        assert main([*args, "--out", str(again)]) == 0
        assert again.read_bytes() == first.read_bytes()

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


def table_cells(stdout):
    """The cells of the table a command prints, cut at the header's column starts."""
    lines = stdout.splitlines()
    starts, pos = [], 0
    for name in lines[0].split():
        pos = lines[0].index(name, pos)
        starts.append(pos)
        pos += len(name)
    assert set(lines[1]) == {"-"}
    body = [ln for ln in lines[2:] if not ln.startswith("mean gap:")]
    return [lines[0].split()] + [
        [ln[a:b].strip() for a, b in zip(starts, starts[1:] + [None])] for ln in body
    ]


class TestTable:
    COMMANDS = {
        "sweep-n": ["sweep-n", "--seed", "4", "--channels", "2", "--symbols", "30",
                    "--values", "4,8"],
        "iteration-study": ["iteration-study", "--seed", "4", "--channels", "2",
                            "--values", "4,6"],
        "bound-check": ["bound-check", "--seed", "4", "--channels", "2"],
    }
    JSON_KEYS = {"sweep-n": "results", "iteration-study": "iteration_study"}

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_csv_table_and_json_carry_the_same_cells(self, command, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        argv = self.COMMANDS[command]
        assert main([*argv, "--out", str(out)]) == 0
        printed = table_cells(capsys.readouterr().out)
        written = list(csv.reader(io.StringIO(out.read_text())))
        assert written == printed
        assert len(written) > 2
        if command in self.JSON_KEYS:
            assert main([*argv, "--json"]) == 0
            rows = json.loads(capsys.readouterr().out)[self.JSON_KEYS[command]]
            assert [list(rows[0])] + [[_cell(v) for v in r.values()] for r in rows] == written

    def test_round_trip_is_serialization_fixed_point(self, tmp_path):
        out = tmp_path / "rt.csv"
        assert main([
            "sweep-n", "--seed", "2", "--channels", "2", "--symbols", "100",
            "--values", "4,6", "--no-bound", "--out", str(out),
        ]) == 0
        cfg, geo = table_defaults()
        spec = SweepSpec(
            variable="n_i", values=(4.0, 6.0), n_channels=2, n_symbols=100, seed=2,
            bound=False,
        )
        results = run_sweep(spec, cfg, geo)
        # without the bound, the four designed schemes in canonical order
        schemes = tuple(Scheme)[:4]
        # parsed back, every value re-formats to the bytes it was read from
        rows = list(csv.reader(io.StringIO(out.read_text())))
        assert tuple(rows[0]) == CSV_HEADER
        body = rows[1:]
        assert len(body) == len(results) * len(schemes)
        for row, (orig, scheme) in zip(body, [(r, s) for r in results for s in schemes]):
            variable, value, name, snr_db, ser, iters = row
            assert (variable, name) == (orig.sweep_variable, scheme.value)
            assert float(value) == pytest.approx(orig.sweep_value, rel=1e-9)
            st = orig.stats[scheme]
            assert float(snr_db) == pytest.approx(st.mean_snr_db, rel=1e-9)
            assert float(ser) == pytest.approx(st.ser, rel=1e-9, abs=1e-12)
            assert (iters == "") == (st.mean_iterations is None)
            for text in (value, snr_db, ser, iters):
                assert _cell(float(text) if text else None) == text

    @pytest.mark.parametrize(
        "argv, computation",
        [
            (["sweep-n", "--channels", "1", "--values", "4"], "run_sweep"),
            (["iteration-study", "--channels", "1", "--values", "4"], "run_iteration_study"),
            (["bound-check", "--channels", "1"], "run_bound_check"),
        ],
    )
    def test_out_is_opened_before_any_computation(
        self, argv, computation, tmp_path, monkeypatch, capsys
    ):
        def computed(*args, **kwargs):
            raise AssertionError("computed before --out was opened")

        monkeypatch.setattr(cli_mod, computation, computed)
        rc = main([*argv, "--out", str(tmp_path / "missing" / "rows.csv")])
        assert rc == 1
        errors = error_lines(capsys)
        assert len(errors) == 1 and "No such file or directory" in errors[0]


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

    def test_iteration_study_writes_each_row_as_its_point_finishes(self, tmp_path, monkeypatch):
        out = tmp_path / "iters.csv"
        written = []
        study = cli_mod.run_iteration_study

        def watched(*args, on_point, **kwargs):
            def on_row(row):
                on_point(row)
                written.append(out.read_text().splitlines())

            return study(*args, on_point=on_row, **kwargs)

        monkeypatch.setattr(cli_mod, "run_iteration_study", watched)
        args = ["iteration-study", "--seed", "2", "--channels", "3", "--values", "4,8"]
        assert main([*args, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert written == [lines[:2], lines[:3]]
        monkeypatch.undo()
        unwatched = tmp_path / "unwatched.csv"
        assert main([*args, "--out", str(unwatched)]) == 0
        assert unwatched.read_bytes() == out.read_bytes()

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

    def test_bound_check_counts_any_bound_below_the_design(self, capsys, monkeypatch):
        # a bound 1e-9 relative below the design is a violation: no allowance
        design_rows = sim_mod._design_rows

        def below(psis, inits, cfg, *args):
            return [
                (designs, replace(ub, bound_psi_tilde=lifted_objective(
                    designs[Scheme.ROBUST_IRS][1], psi, cfg) * (1.0 - 1e-9)))
                for psi, (designs, ub) in zip(psis, design_rows(psis, inits, cfg, *args))
            ]

        monkeypatch.setattr(sim_mod, "_design_rows", below)
        rc = main(["bound-check", "--seed", "6", "--channels", "2", "--json"])
        assert rc == 1
        assert json.loads(capsys.readouterr().out)["dominance_violations"] == 2

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

    def test_bound_check_scores_the_sweeps_design(self, capsys, tmp_path):
        # channel r is the realization a sweep draws from child_seed(seed, 0xB0, r),
        # and its design and bound are the ones that sweep reports
        out = tmp_path / "bound.csv"
        assert main(["bound-check", "--seed", "6", "--channels", "3", "--out", str(out)]) == 0
        cfg, geo = table_defaults()
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        assert len(rows) == 3
        for r, row in enumerate(rows):
            stats = _sweep_task(
                (cfg, geo, MMSettings(), None, 0, True, (child_seed(6, 0xB0, r),))
            )[0]
            for column, scheme in (("snr_mm_db", Scheme.ROBUST_IRS),
                                   ("snr_bound_db", Scheme.UPPER_BOUND)):
                reported = pow2db(stats[scheme.value][0])
                assert float(row[column]) == pytest.approx(reported, rel=1e-9), (r, column)

    def test_bound_check_across_a_chunk_boundary_is_each_channels_own(
        self, tmp_path, monkeypatch
    ):
        # 34 channels: a chunk of 32 designed as MM stacks, then a chunk of 2
        # that _MIN_STACK sends through run_mm one row at a time
        stacked, single = [], []
        run_stacked_mm, run_mm = sim_mod.run_stacked_mm, sim_mod.run_mm

        def counted_stack(inits, psis, *args):
            stacked.append(len(psis))
            return run_stacked_mm(inits, psis, *args)

        def counted_single(*args):
            single.append(1)
            return run_mm(*args)

        monkeypatch.setattr(sim_mod, "run_stacked_mm", counted_stack)
        monkeypatch.setattr(sim_mod, "run_mm", counted_single)
        out = tmp_path / "bound.csv"
        assert main(["bound-check", "--seed", "2", "--channels", "34", "--out", str(out)]) == 0
        assert (stacked, len(single)) == ([32, 32], 4)
        monkeypatch.undo()

        # the oracle: each channel drawn and designed alone, from child_seed(seed, 0xB0, r)
        cfg, geo = table_defaults()
        lines = [",".join(("channel", "psi_tilde_mm", "psi_tilde_primal", "psi_tilde_bound",
                           "snr_mm_db", "snr_bound_db", "gap_db", "certified_gap_db"))]
        for r in range(34):
            psis, inits = _draw(cfg, geo, (child_seed(2, 0xB0, r),))
            ((designs, ub),) = _design_rows(psis, inits, cfg, MMSettings(), None, True)
            mm_pt = lifted_objective(designs[Scheme.ROBUST_IRS][1], psis[0], cfg)
            mm_db, bound_db = pow2db(snr_from_psi_tilde(mm_pt, cfg)), pow2db(ub.bound_snr)
            primal_db = pow2db(snr_from_psi_tilde(ub.primal_psi_tilde, cfg))
            lines.append(",".join(_cell(x) for x in (
                r, mm_pt, ub.primal_psi_tilde, ub.bound_psi_tilde,
                mm_db, bound_db, bound_db - mm_db, bound_db - primal_db,
            )))
        assert out.read_text() == "\n".join(lines) + "\n"

    def test_bound_check_names_a_degenerate_channel_in_the_second_chunk(
        self, tmp_path, monkeypatch, capsys
    ):
        draw = sim_mod._draw
        last = child_seed(2, 0xB0, 33)

        def degenerate_last(cfg, geo, seeds):
            psis, inits = draw(cfg, geo, seeds)
            if last in seeds:
                psis[seeds.index(last)] = 0.0
            return psis, inits

        monkeypatch.setattr(sim_mod, "_draw", degenerate_last)
        out = tmp_path / "bound.csv"
        rc = main(["bound-check", "--seed", "2", "--channels", "34", "--out", str(out)])
        assert rc == 1
        assert error_lines(capsys) == [
            "error: channel 33: degenerate channel: composite vector is zero"
        ]
        # the channels before it are written, as in a run without the fault
        monkeypatch.undo()
        full = tmp_path / "full.csv"
        assert main(["bound-check", "--seed", "2", "--channels", "33", "--out", str(full)]) == 0
        assert out.read_text() == full.read_text()

    def test_usage_error_exits_nonzero(self):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code != 0

    def test_import_leaves_the_process_pool_unloaded(self):
        # only --workers above 1 needs concurrent.futures.process, which
        # loads multiprocessing
        src = str(Path(irsbf.__file__).resolve().parents[1])
        code = "import sys, irsbf.cli; print('concurrent.futures.process' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=600,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

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

    @pytest.mark.parametrize("workers", ["0", "-3"])
    @pytest.mark.parametrize(
        "command",
        [
            ["sweep-n", "--channels", "1", "--values", "4", "--symbols", "0", "--no-bound"],
            ["iteration-study", "--channels", "1", "--values", "4"],
        ],
    )
    def test_workers_below_one_rejected(self, command, workers, capsys):
        assert main([*command, "--workers", workers]) == 1
        assert error_lines(capsys) == [f"error: workers must be >= 1, got {workers}"]

    def test_values_starting_with_a_negative_number(self, tmp_path, capsys):
        # argparse reads a token that starts with '-' as a flag unless it is
        # one number, so the list must be taken as the value of --values
        common = ["sweep-power", "--channels", "2", "--no-bound", "--symbols", "0"]
        attached, spaced = tmp_path / "attached.csv", tmp_path / "spaced.csv"
        assert main([*common, "--values=-6,0", "--out", str(attached)]) == 0
        assert "p_dbw,-6,robust_irs" in attached.read_text()
        for flag in ("--values", "--val"):
            assert main([*common, flag, "-6,0", "--out", str(spaced)]) == 0
            assert spaced.read_bytes() == attached.read_bytes()

    @pytest.mark.parametrize("command, message", [
        ("sweep-n", "n_i must be >= 0, got -1"),
        ("sweep-distance", "d_sd_h must be non-negative, got -1.0"),
        ("sweep-kappa", "kappa_s out of range [0, 1): -1.0"),
    ])
    def test_a_negative_value_list_reaches_the_value_check(self, command, message, capsys):
        assert main([command, "--channels", "1", "--values", "-1,2", "--no-bound"]) == 1
        (line,) = error_lines(capsys)
        assert message in line

    def test_zero_bits_is_an_error_not_continuous(self, capsys):
        rc = main(["sweep-n", "--channels", "1", "--values", "4", "--symbols", "0", "--bits", "0"])
        assert rc == 1
        assert error_lines(capsys) == ["error: bits must be in [1, 52], got 0"]

    @pytest.mark.parametrize("bits", ["53", "1024"])
    def test_bits_beyond_float64_resolution_is_an_error(self, bits, capsys):
        rc = main(["sweep-n", "--channels", "1", "--values", "4", "--symbols", "0",
                   "--no-bound", "--bits", bits])
        assert rc == 1
        assert error_lines(capsys) == [f"error: bits must be in [1, 52], got {bits}"]

    def test_fine_bits_run_without_a_level_table(self, capsys):
        rc = main(["sweep-n", "--channels", "1", "--values", "4", "--symbols", "0",
                   "--no-bound", "--bits", "40"])
        assert rc == 0
        assert "robust_irs" in capsys.readouterr().out

    @pytest.mark.parametrize("epsilon", ["inf", "0", "-1"])
    def test_epsilon_must_be_positive_and_finite(self, epsilon, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        rc = main(["sweep-n", "--channels", "1", "--values", "4", "--symbols", "0",
                   "--no-bound", "--epsilon", epsilon, "--out", str(out)])
        assert rc == 1
        assert error_lines(capsys) == [
            f"error: epsilon must be positive and finite, got {float(epsilon)}"
        ]
        assert not out.exists()

    def test_iteration_study_needs_a_value(self, capsys):
        assert main(["iteration-study", "--channels", "1", "--values", ""]) == 1
        assert error_lines(capsys) == ["error: sweep needs at least one value"]

    REJECTED = [
        (["iteration-study", "--channels", "0"], "n_channels must be >= 1, got 0"),
        (["iteration-study", "--workers", "0"], "workers must be >= 1, got 0"),
        (["iteration-study", "--epsilon", "0"], "epsilon must be positive and finite, got 0.0"),
        (["iteration-study", "--values", "4.5"], "n_i must be an integer, got 4.5"),
        (["iteration-study", "--values", ","], "sweep needs at least one value"),
        (["bound-check", "--channels", "0"], "n_channels must be >= 1, got 0"),
        (["bound-check", "--channels", "-1"], "n_channels must be >= 1, got -1"),
        (["sweep-n", "--workers", "0"], "workers must be >= 1, got 0"),
        (["sweep-n", "--workers", "-1"], "workers must be >= 1, got -1"),
        (["sweep-kappa", "--workers", "0"], "workers must be >= 1, got 0"),
        (["sweep-kappa", "--workers", "-1"], "workers must be >= 1, got -1"),
        (["sweep-n", "--values", "4.5"], "n_i must be an integer, got 4.5"),
        (["sweep-kappa", "--values", "0.5,1.5"], "kappa_s out of range [0, 1): 1.5"),
        (["sweep-power", "--values", "4000"], "p_dbw out of range, got 4000.0"),
        (["sweep-n", "--values", "4,x"], "bad value list '4,x': could not convert string to float: 'x'"),
        # a surface too large for numpy to index one realization's draw block
        (["sweep-n", "--values", "1e30", "--channels", "1", "--symbols", "0", "--no-bound"],
         "n_i must be in [0, 96076792050570580], got 1000000000000000019884624838656"),
        (["iteration-study", "--values", "1e30", "--channels", "1"],
         "n_i must be in [0, 96076792050570580], got 1000000000000000019884624838656"),
    ]

    @pytest.mark.parametrize(
        "argv, message", REJECTED, ids=[" ".join(argv) for argv, _ in REJECTED]
    )
    def test_a_rejected_command_leaves_no_out_file(self, argv, message, tmp_path, capsys):
        # the sizes and settings are checked before --out is opened
        out = tmp_path / "rows.csv"
        assert main([*argv, "--out", str(out)]) == 1
        assert error_lines(capsys) == [f"error: {message}"]
        assert not out.exists()

    def test_a_library_fault_propagates(self, monkeypatch):
        # LinAlgError is a ValueError, but not an input error
        def fault(*args):
            raise np.linalg.LinAlgError("injected")

        monkeypatch.setattr(sim_mod, "_design_rows", fault)
        with pytest.raises(np.linalg.LinAlgError, match="injected"):
            main(["sweep-n", "--channels", "1", "--values", "4", "--symbols", "0"])

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_los_demo_needs_a_surface(self, source, tmp_path, capsys):
        # los-demo takes no --out, so it is not among REJECTED
        path = tmp_path / "no_surface.cfg"
        path.write_text("n_i = 0\n")
        argv = ["--n-i", "0"] if source == "flag" else ["--config", str(path)]
        assert main(["los-demo", *argv]) == 1
        assert error_lines(capsys) == ["error: los-demo needs n_i >= 1, got 0"]

    def test_los_demo_rejects_a_surface_too_large_to_draw(self, capsys):
        assert main(["los-demo", "--n-i", "100000000000000000000"]) == 1
        assert error_lines(capsys) == [
            "error: n_i must be in [0, 96076792050570580], got 100000000000000000000"
        ]
