"""Tests of the benchmark's own output checks and tracer.

Run from the root of a checkout:  python3 -m pytest -q bench
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np
import pytest

import run
from checks import check_study_csv, check_sweep_csv
from reference import child_seed, draw_channels, load_operating_point, qpsk_ser, robust_direct_snr

cli = run.import_program()
OP = load_operating_point(run.CONFIG)
SEED = 12345
SWEEP = run.Workload("sweep-n", (8, 16), channels=4, symbols=2000)
BOUND_SWEEP = run.Workload("sweep-n", (4, 8), channels=2, symbols=200, bound=True)
STUDY = run.Workload("iteration-study", (4, 8), channels=2)


def cli_csv(workload: run.Workload, tmp_path, *extra: str) -> str:
    out = tmp_path / "out.csv"
    argv = workload.argv(SEED, out) + list(extra)
    assert cli.main(argv) == 0
    return out.read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def sweep_csv(tmp_path_factory):
    return cli_csv(SWEEP, tmp_path_factory.mktemp("sweep"))


@pytest.fixture(scope="module")
def study_csv(tmp_path_factory):
    return cli_csv(STUDY, tmp_path_factory.mktemp("study"))


def check(text: str, workload: run.Workload = SWEEP) -> list[str]:
    if workload.command == "iteration-study":
        return check_study_csv(text, workload.values)
    return check_sweep_csv(
        text, OP, SEED, workload.values, workload.channels, workload.symbols, workload.bound
    )


def edit(text: str, scheme: str, column: str, change) -> str:
    """Apply ``change`` to one field of the first row of ``scheme``."""
    rows = list(csv.reader(io.StringIO(text)))
    col = rows[0].index(column)
    row = next(r for r in rows[1:] if r[rows[0].index("scheme")] == scheme)
    row[col] = change(row[col])
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def test_todays_outputs_pass(sweep_csv, study_csv, tmp_path):
    assert check(sweep_csv) == []
    assert check(study_csv, STUDY) == []
    assert check(cli_csv(BOUND_SWEEP, tmp_path), BOUND_SWEEP) == []


@pytest.mark.parametrize("scheme", ["robust_no_irs", "nonrobust_no_irs"])
def test_snr_nudged_by_one_in_a_million_is_rejected(sweep_csv, scheme):
    def nudge(db):
        return f"{10.0 * math.log10(10.0 ** (float(db) / 10.0) * (1.0 + 1e-6)):.10g}"

    assert check(edit(sweep_csv, scheme, "mean_snr_db", nudge))


@pytest.mark.parametrize("scheme", ["robust_irs", "nonrobust_irs", "robust_no_irs", "nonrobust_no_irs"])
def test_missing_scheme_row_is_rejected(sweep_csv, scheme):
    lines = sweep_csv.splitlines(keepends=True)
    index = next(i for i, line in enumerate(lines) if f",{scheme}," in line)
    assert check("".join(lines[:index] + lines[index + 1:]))


def test_ser_moved_by_ten_standard_deviations_is_rejected(sweep_csv):
    n_i = SWEEP.values[0]
    p = np.array([
        qpsk_ser(robust_direct_snr(draw_channels(child_seed(SEED, 0, r), OP, n_i)[2], OP))
        for r in range(SWEEP.channels)
    ])
    sd = math.sqrt(float(np.sum(p * (1.0 - p))) / SWEEP.symbols) / SWEEP.channels
    assert sd > 1e-9
    moved = edit(sweep_csv, "robust_no_irs", "ser", lambda s: f"{float(s) + 10.0 * sd:.10g}")
    assert check(moved)


def test_snr_above_the_cap_is_rejected(tmp_path):
    text = cli_csv(BOUND_SWEEP, tmp_path)
    ceiling_db = f"{10.0 * math.log10(1.0 / OP.kappa_d):.10g}"
    assert check(edit(text, "upper_bound", "mean_snr_db", lambda _: ceiling_db), BOUND_SWEEP)


def test_swapped_robust_order_is_rejected(sweep_csv):
    nonrobust = next(r for r in csv.reader(io.StringIO(sweep_csv)) if r[2] == "nonrobust_irs")
    lowered = f"{float(nonrobust[3]) - 0.5:.10g}"
    assert check(edit(sweep_csv, "robust_irs", "mean_snr_db", lambda _: lowered))


def test_accelerated_count_above_plain_is_rejected(study_csv):
    rows = list(csv.reader(io.StringIO(study_csv)))
    rows[1][2] = f"{float(rows[1][1]) + 1.0:.10g}"
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    assert check(buf.getvalue(), STUDY)


def test_two_workers_write_the_same_bytes(sweep_csv, tmp_path):
    out = tmp_path / "two.csv"
    argv = SWEEP.argv(SEED, out)
    argv[argv.index("--workers") + 1] = "2"
    assert cli.main(argv) == 0
    assert out.read_text(encoding="utf-8") == sweep_csv


def test_tracer_counts_and_restores(tmp_path):
    import irsbf.sim
    from tracing import Tracer

    original = irsbf.sim.run_mm
    with Tracer() as tracer:
        cli_csv(BOUND_SWEEP, tmp_path)
    assert irsbf.sim.run_mm is original
    metrics = tracer.layer_metrics(BOUND_SWEEP.realizations)
    assert metrics["mm.run_mm_calls"][0] == 2.0
    assert metrics["sdr.calls"][0] == 1.0
    assert metrics["sim.symbols"][0] == 4 * BOUND_SWEEP.symbols
    assert metrics["mm.lambda_max_calls"][0] > 0
    assert tracer.problems == [] and tracer.absent == []


def test_tracer_reports_a_removed_name_as_absent(monkeypatch):
    import irsbf.mm
    from tracing import Tracer

    monkeypatch.delattr(irsbf.mm, "lambda_max_power_iteration")
    with Tracer() as tracer:
        pass
    assert tracer.absent == ["irsbf.mm.lambda_max_power_iteration"]
    assert tracer.layer_metrics(1)["mm.lambda_max_calls"] == (0.0, "1/realization")
