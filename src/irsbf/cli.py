"""Command-line front end: sweeps, the iteration study, and demo checks.

All powers are entered in dB (dBW) here and converted to watts at this
boundary; the library below works in linear units only.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace

import numpy as np

from .channels import Geometry, generate_channels, sample_los, sample_rayleigh
from .los import solve_los
from .mm import MMSettings, random_lifted_init, run_mm
from .model import ChannelSet, PhaseConstraint, SystemConfig, build_composite, lift_reflect
from .sdr import solve_sdr
from .sim import (
    ALL_SCHEMES,
    CSV_HEADER,
    Scheme,
    SimResult,
    SweepFailedError,
    SweepSpec,
    SweepVariable,
    _csv_rows,
    child_seed,
    db2pow,
    pow2db,
    run_iteration_study,
    run_sweep,
    table_defaults,
)
from .txbf import evaluate_snr, psi_tilde, snr_from_psi_tilde

_SWEEP_DEFAULTS = {
    "sweep-n": (SweepVariable.N_I, "4,18,32,46,60"),
    "sweep-distance": (SweepVariable.D_SD_H, "30,35,40,45,48,50,52,55,60,70"),
    "sweep-power": (SweepVariable.P_DBW, "0,6,12,18,24,30"),
    "sweep-kappa": (SweepVariable.KAPPA, "0.02,0.05,0.07,0.1,0.15"),
}

_CONFIG_KEYS = {
    "n_s": ("cfg", "n_s", int),
    "n_i": ("cfg", "n_i", int),
    "p_dbw": ("cfg", "p", lambda v: db2pow(float(v))),
    "kappa": ("cfg", "kappa", float),
    "kappa_s": ("cfg", "kappa_s", float),
    "kappa_d": ("cfg", "kappa_d", float),
    "sigma_n2_dbw": ("cfg", "sigma_n2", lambda v: db2pow(float(v))),
    "d_0": ("geo", "d0", float),
    "pl_0": ("geo", "pl0_db", float),
    "gamma_si": ("geo", "gamma_si", float),
    "gamma_id": ("geo", "gamma_id", float),
    "gamma_sd": ("geo", "gamma_sd", float),
    "d_si": ("geo", "d_si", float),
    "d_v": ("geo", "d_v", float),
    "d_sd_h": ("geo", "d_sd_h", float),
}


def parse_config_file(path: str) -> dict:
    """Read ``key = value`` lines; '#' starts a comment, keys are case-insensitive."""
    overrides = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            key = key.lower()
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            overrides[key] = value
    return overrides


def build_setup(overrides: dict) -> tuple[SystemConfig, Geometry]:
    cfg, geo = table_defaults()
    cfg_fields = {}
    geo_fields = {}
    for key, raw in overrides.items():
        target, field, conv = _CONFIG_KEYS[key]
        value = conv(raw)
        if key == "kappa":
            cfg_fields["kappa_s"] = value
            cfg_fields["kappa_d"] = value
        elif target == "cfg":
            cfg_fields[field] = value
        else:
            geo_fields[field] = value
    if cfg_fields:
        cfg = replace(cfg, **cfg_fields)
    if geo_fields:
        geo = replace(geo, **geo_fields)
    return cfg, geo


def _parse_values(text: str) -> tuple:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise ValueError(f"bad value list {text!r}: {exc}") from None


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="master seed (64-bit unsigned)")
    parser.add_argument("--config", metavar="FILE", help="key = value overrides of the defaults")
    parser.add_argument("--workers", type=int, default=1, help="worker processes")
    parser.add_argument("--out", metavar="CSV", help="write results to this CSV file")
    parser.add_argument("--json", action="store_true", help="print a JSON summary instead of a table")


def _add_sweep_args(parser: argparse.ArgumentParser, default_values: str) -> None:
    _add_common(parser)
    parser.add_argument("--channels", type=int, default=500, help="channel realizations per point")
    parser.add_argument("--symbols", type=int, default=2000, help="0 skips the QPSK SER; any positive value gives the exact SER")
    parser.add_argument("--bits", type=int, default=None, help="discrete phase bits; omit for continuous")
    parser.add_argument("--values", default=default_values, help="comma-separated sweep values")
    parser.add_argument("--no-bound", action="store_true", help="skip the relaxation benchmark")
    parser.add_argument("--epsilon", type=float, default=1e-5, help="optimizer convergence accuracy")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="irsbf",
        description="Beamforming sweeps and checks for the impaired IRS-assisted link",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (variable, defaults) in _SWEEP_DEFAULTS.items():
        p = sub.add_parser(name, help=f"sweep {variable.value}")
        _add_sweep_args(p, defaults)
    p = sub.add_parser("iteration-study", help="average iterations to convergence")
    _add_common(p)
    p.add_argument("--values", default="4,18,32,46,60", help="surface sizes")
    p.add_argument("--channels", type=int, default=100)
    p.add_argument("--epsilon", type=float, default=1e-5)
    p = sub.add_parser("los-demo", help="closed forms for the rank-one no-direct-link case")
    _add_common(p)
    p.add_argument("--n-i", type=int, default=50)
    p = sub.add_parser("bound-check", help="per-channel optimizer vs relaxation benchmark")
    _add_common(p)
    p.add_argument("--channels", type=int, default=10)
    return parser


def _write_csv(path: str, header, rows: list[list[str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _print_table(rows: list[list[str]], header) -> None:
    widths = [max(len(str(r[i])) for r in [list(header)] + rows) for i in range(len(header))]
    line = "  ".join(str(h).ljust(w) for h, w in zip(header, widths))
    print(line)
    print("-" * len(line))
    for r in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(r, widths)))


def _run_sweep_command(args, variable: SweepVariable) -> int:
    overrides = parse_config_file(args.config) if args.config else {}
    cfg, geo = build_setup(overrides)
    phase = PhaseConstraint.discrete(args.bits) if args.bits else PhaseConstraint.continuous()
    schemes = ALL_SCHEMES if not args.no_bound else tuple(s for s in ALL_SCHEMES if s is not Scheme.UPPER_BOUND)
    spec = SweepSpec(
        variable=variable,
        values=_parse_values(args.values),
        n_channels=args.channels,
        n_symbols=args.symbols,
        seed=args.seed,
        phase_mode=phase,
        schemes=schemes,
    )
    out_fh = None
    writer_rows: list[list[str]] = []
    if args.out:
        out_fh = open(args.out, "w", encoding="utf-8", newline="")
        out_csv = csv.writer(out_fh, lineterminator="\n")
        out_csv.writerow(CSV_HEADER)
        out_fh.flush()

    def on_point(res: SimResult) -> None:
        rows = _csv_rows(res, schemes)
        writer_rows.extend(rows)
        if out_fh is not None:
            out_csv.writerows(rows)
            out_fh.flush()

    try:
        results = run_sweep(
            spec,
            cfg,
            geo,
            workers=args.workers,
            mm_settings=MMSettings(epsilon=args.epsilon),
            on_point=on_point,
        )
    finally:
        if out_fh is not None:
            out_fh.close()
    if args.json:
        payload = [
            {
                "sweep_variable": r.sweep_variable.value,
                "value": r.sweep_value,
                "scheme": s.value,
                "mean_snr_db": r.stats[s].mean_snr_db,
                "ser": r.stats[s].ser,
                "mean_iterations": r.stats[s].mean_iterations,
            }
            for r in results
            for s in schemes
        ]
        print(json.dumps({"results": payload}, indent=2))
    else:
        _print_table(writer_rows, CSV_HEADER)
    return 0


def _run_iteration_study(args) -> int:
    overrides = parse_config_file(args.config) if args.config else {}
    cfg, geo = build_setup(overrides)
    n_i_list = [int(v) for v in _parse_values(args.values)]
    rows = run_iteration_study(
        n_i_list, cfg, geo, seed=args.seed, n_channels=args.channels,
        epsilon=args.epsilon, workers=args.workers,
    )
    header = ("n_i", "robust_plain", "robust_accel", "nonrobust_plain", "nonrobust_accel")
    table = [
        [str(r.n_i), f"{r.robust_plain:.10g}", f"{r.robust_accel:.10g}",
         f"{r.nonrobust_plain:.10g}", f"{r.nonrobust_accel:.10g}"]
        for r in rows
    ]
    if args.out:
        _write_csv(args.out, header, table)
    if args.json:
        print(json.dumps({"iteration_study": [r.__dict__ for r in rows]}, indent=2))
    else:
        _print_table(table, header)
    return 0


def _run_los_demo(args) -> int:
    overrides = parse_config_file(args.config) if args.config else {}
    cfg, geo = build_setup(overrides)
    cfg = replace(cfg, n_i=args.n_i)
    rng = np.random.default_rng(child_seed(args.seed, 0xD0E0))
    los = sample_los(rng, cfg.n_s, cfg.n_i, gain=1e-6)
    sigma_id2 = 1e-4
    h_id = sample_rayleigh(rng, cfg.n_i, 1, sigma_id2).ravel()
    sol = solve_los(los, h_id, cfg, sigma_id2=sigma_id2)
    ch = ChannelSet(h_si=los.h_si, h_id=h_id, h_sd=np.zeros(cfg.n_s, dtype=complex))
    direct = evaluate_snr(sol.w, sol.theta, ch, cfg)
    psi = build_composite(ch)
    mm_res = run_mm(random_lifted_init(rng, cfg.n_i), psi, cfg, MMSettings(epsilon=1e-9))
    payload = {
        "closed_form_snr_db": pow2db(sol.snr),
        "direct_evaluation_snr_db": pow2db(direct),
        "mm_psi_tilde": mm_res.result.psi_tilde_val,
        "closed_form_psi_tilde": psi_tilde(sol.theta, ch, cfg),
        "asymptotic_snr_db": pow2db(sol.snr_asymptotic),
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for key, val in payload.items():
            print(f"{key}: {val:.6f}")
    return 0


def _run_bound_check(args) -> int:
    overrides = parse_config_file(args.config) if args.config else {}
    cfg, geo = build_setup(overrides)
    rows = []
    gaps = []
    certified_gaps = []
    violations = 0
    for r in range(args.channels):
        rng = np.random.default_rng(child_seed(args.seed, 0xB0, r))
        ch = generate_channels(rng, cfg, geo)
        psi = build_composite(ch)
        res = run_mm(random_lifted_init(rng, cfg.n_i), psi, cfg, MMSettings())
        ub = solve_sdr(psi, cfg, init=lift_reflect(res.reflect))
        gap_db = pow2db(ub.bound_snr) - pow2db(res.result.snr)
        certified_db = pow2db(ub.bound_snr) - pow2db(snr_from_psi_tilde(ub.primal_psi_tilde, cfg))
        gaps.append(gap_db)
        certified_gaps.append(certified_db)
        if ub.bound_psi_tilde < res.result.psi_tilde_val - 1e-6:
            violations += 1
        rows.append(
            [str(r), f"{res.result.psi_tilde_val:.10g}", f"{ub.primal_psi_tilde:.10g}",
             f"{ub.bound_psi_tilde:.10g}", f"{pow2db(res.result.snr):.10g}",
             f"{pow2db(ub.bound_snr):.10g}", f"{gap_db:.10g}", f"{certified_db:.10g}"]
        )
    header = (
        "channel", "psi_tilde_mm", "psi_tilde_primal", "psi_tilde_bound",
        "snr_mm_db", "snr_bound_db", "gap_db", "certified_gap_db",
    )
    if args.out:
        _write_csv(args.out, header, rows)
    summary = {
        "channels": args.channels,
        "mean_gap_db": float(np.mean(gaps)),
        "max_gap_db": float(np.max(gaps)),
        "dominance_violations": violations,
        "mean_certified_gap_db": float(np.mean(certified_gaps)),
        "max_certified_gap_db": float(np.max(certified_gaps)),
    }
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        _print_table(rows, header)
        print(
            f"mean gap: {summary['mean_gap_db']:.4f} dB, mean certified gap: "
            f"{summary['mean_certified_gap_db']:.4f} dB, violations: {violations}"
        )
    return 0 if violations == 0 else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command in _SWEEP_DEFAULTS:
            return _run_sweep_command(args, _SWEEP_DEFAULTS[args.command][0])
        if args.command == "iteration-study":
            return _run_iteration_study(args)
        if args.command == "los-demo":
            return _run_los_demo(args)
        if args.command == "bound-check":
            return _run_bound_check(args)
        parser.error(f"unknown command {args.command}")
    except (ValueError, OSError, SweepFailedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2


if __name__ == "__main__":
    sys.exit(main())
