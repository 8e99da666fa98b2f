"""Output checks for the benchmark workloads.

Each check compares the CLI's CSV with a computation from reference.py or
with a property the method must have; none compares with a stored copy of
an earlier output.  Every function returns a list of problems, empty when
the output is correct.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

from reference import (
    OperatingPoint,
    child_seed,
    draw_channels,
    mrt_direct_snr,
    qpsk_ser,
    robust_direct_snr,
    snr_cap,
)

SWEEP_HEADER = ["sweep_variable", "value", "scheme", "mean_snr_db", "ser", "mean_iterations"]
STUDY_HEADER = ["n_i", "robust_plain", "robust_accel", "nonrobust_plain", "nonrobust_accel"]
IRS_SCHEMES = ("robust_irs", "nonrobust_irs")
DIRECT_SCHEMES = ("robust_no_irs", "nonrobust_no_irs")
SWEEP_SCHEMES = IRS_SCHEMES + DIRECT_SCHEMES
BOUND_SCHEME = "upper_bound"

# The CSV keeps 10 significant digits of an SNR in dB below 12 dB, which is
# exact to about 1e-9 relative in linear terms.
SNR_REL_TOL = 1e-8
# An SER this many binomial standard deviations from its expectation fails.
SER_Z_MAX = 5.0
STUDY_MAX_ITER = 20000


def _rows(text: str, header: list[str]) -> tuple[list[list[str]], list[str]]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != header:
        return [], [f"CSV header is {rows[0] if rows else None}, expected {header}"]
    return rows[1:], []


def _linear(db: str) -> float:
    return 10.0 ** (float(db) / 10.0)


def check_sweep_csv(
    text: str,
    op: OperatingPoint,
    seed: int,
    values: tuple[int, ...],
    n_channels: int,
    n_symbols: int,
    bound: bool,
) -> list[str]:
    """Check a ``sweep-n`` CSV against closed forms on the same channel draws."""
    rows, problems = _rows(text, SWEEP_HEADER)
    if problems:
        return problems
    schemes = SWEEP_SCHEMES + ((BOUND_SCHEME,) if bound else ())
    expected = [(str(v), s) for v in values for s in schemes]
    got = [(r[1], r[2]) for r in rows if len(r) == len(SWEEP_HEADER)]
    if len(got) != len(rows) or got != expected:
        return [f"CSV rows are {got}, expected {expected}"]
    by_point = {}
    for row in rows:
        if row[0] != "n_i":
            problems.append(f"sweep variable {row[0]!r}, expected 'n_i'")
        by_point.setdefault(row[1], {})[row[2]] = row
    ceiling = 1.0 / op.kappa_d
    for vi, n_i in enumerate(values):
        point = by_point[str(n_i)]
        where = f"n_i={n_i}"
        robust, mrt, cap, ser_robust, ser_mrt = [], [], [], [], []
        for r in range(n_channels):
            h_si, h_id, h_sd = draw_channels(child_seed(seed, vi, r), op, n_i)
            robust.append(robust_direct_snr(h_sd, op))
            mrt.append(mrt_direct_snr(h_sd, op))
            cap.append(snr_cap(h_si, h_id, h_sd, op))
        mean_cap = float(np.mean(cap))
        for scheme, snrs in (("robust_no_irs", robust), ("nonrobust_no_irs", mrt)):
            got_snr = _linear(point[scheme][3])
            want = float(np.mean(snrs))
            if abs(got_snr / want - 1.0) > SNR_REL_TOL:
                problems.append(f"{where} {scheme}: SNR {got_snr!r}, closed form {want!r}")
            problems += _check_ser(point[scheme][4], snrs, n_symbols, f"{where} {scheme}")
        for scheme, row in point.items():
            snr = _linear(row[3])
            if not snr < ceiling:
                problems.append(f"{where} {scheme}: SNR {snr!r} not below 1/kappa_d")
            if snr > mean_cap * (1.0 + SNR_REL_TOL):
                problems.append(f"{where} {scheme}: SNR {snr!r} above the cap {mean_cap!r}")
            if scheme in IRS_SCHEMES:
                if not (row[5] and float(row[5]) >= 1.0):
                    problems.append(f"{where} {scheme}: mean_iterations {row[5]!r} below 1")
            elif row[5]:
                problems.append(f"{where} {scheme}: mean_iterations {row[5]!r}, expected empty")
            if scheme in IRS_SCHEMES and n_symbols > 0:
                if not (row[4] and 0.0 <= float(row[4]) <= 1.0):
                    problems.append(f"{where} {scheme}: SER {row[4]!r} is not a probability")
        for better, worse in (IRS_SCHEMES, DIRECT_SCHEMES):
            if float(point[better][3]) < float(point[worse][3]):
                problems.append(f"{where}: {better} below {worse}")
    return problems


def _check_ser(field: str, snrs: list[float], n_symbols: int, where: str) -> list[str]:
    """Simulated SER against the mean QPSK error probability, within a binomial bound."""
    if n_symbols == 0:
        return [] if field == "" else [f"{where}: SER {field!r} with no symbols simulated"]
    if field == "":
        return [f"{where}: SER missing"]
    p = np.array([qpsk_ser(s) for s in snrs])
    expected = float(np.mean(p))
    sd = math.sqrt(float(np.sum(p * (1.0 - p))) / n_symbols) / len(p)
    deviation = abs(float(field) - expected)
    if deviation > SER_Z_MAX * sd + 1e-12:
        return [f"{where}: SER {field} is {deviation / max(sd, 1e-300):.1f} sd from {expected!r}"]
    return []


def check_study_csv(text: str, values: tuple[int, ...]) -> list[str]:
    """Check an ``iteration-study`` CSV: counts in range, acceleration helps on every row."""
    rows, problems = _rows(text, STUDY_HEADER)
    if problems:
        return problems
    if [r[0] for r in rows] != [str(v) for v in values]:
        return [f"study rows are {[r[0] for r in rows]}, expected {list(values)}"]
    for row in rows:
        counts = [float(x) for x in row[1:]]
        if not all(1.0 <= c <= STUDY_MAX_ITER for c in counts):
            problems.append(f"n_i={row[0]}: counts {counts} outside [1, {STUDY_MAX_ITER}]")
        for plain, accel, label in ((counts[0], counts[1], "robust"), (counts[2], counts[3], "nonrobust")):
            if not accel < plain:
                problems.append(f"n_i={row[0]}: {label} accelerated {accel} not below plain {plain}")
    return problems
