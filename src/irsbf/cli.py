"""Command-line front end: sweeps, the iteration study, and demo checks.

The operating point is ``sim.table_defaults()`` with the lines of the
``--config`` file applied in order by ``sim.load_setup``.  Its names, and
the variables the sweep commands step through, are those of
``sim.SETTINGS`` (powers in dBW).  The library returns plain values and
this module formats them: every command that prints rows (the sweeps,
``iteration-study``, ``bound-check``) goes through one writer, ``_table``,
which streams the ``--out`` CSV and prints the same cells as a table, or
the rows as JSON objects keyed by the CSV header.  Each command checks
its grid, counts, seed and settings before ``_table`` opens ``--out``, so
a rejected command leaves no file.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import re
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import astuple, fields

import numpy as np

from .channels import Geometry, sample_los, sample_rayleigh
from .los import solve_los
from .mm import MMSettings, random_lifted_init, run_mm
from .model import ChannelSet, ConfigError, DegenerateChannelError, SystemConfig, build_composite
from .sim import (
    IterationStudyRow,
    SimResult,
    SweepFailedError,
    SweepSpec,
    check_run,
    child_seed,
    load_setup,
    pow2db,
    run_bound_check,
    run_iteration_study,
    run_sweep,
    sweep_points,
    table_defaults,
    with_setting,
)
from .txbf import evaluate_snr, psi_tilde, snr_from_psi_tilde

# command -> (the SETTINGS name it sweeps, its default values)
_SWEEP_DEFAULTS = {
    "sweep-n": ("n_i", "4,18,32,46,60"),
    "sweep-distance": ("d_sd_h", "30,35,40,45,48,50,52,55,60,70"),
    "sweep-power": ("p_dbw", "0,6,12,18,24,30"),
    "sweep-kappa": ("kappa", "0.02,0.05,0.07,0.1,0.15"),
}

def _parse_values(text: str) -> tuple:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"bad value list {text!r}: {exc}") from None


def _seed(text: str) -> int:
    """The master seed, checked here once for every command."""
    try:
        if 0 <= int(text) < 2**64:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"seed must be an integer in [0, 2**64), got {text!r}")


def _add_common(parser: argparse.ArgumentParser, workers: bool = True, out: bool = True) -> None:
    """The flags shared by the commands; ``workers`` and ``out`` only where they act."""
    parser.add_argument("--seed", type=_seed, default=0, help="master seed (64-bit unsigned)")
    parser.add_argument("--config", metavar="FILE", help="key = value overrides of the defaults")
    if workers:
        parser.add_argument("--workers", type=int, default=1, help="worker processes")
    if out:
        parser.add_argument("--out", metavar="CSV", help="write results to this CSV file")
    parser.add_argument("--json", action="store_true", help="print a JSON summary instead of a table")


def _add_sweep_args(parser: argparse.ArgumentParser, default_values: str) -> None:
    _add_common(parser)
    parser.add_argument("--channels", type=int, default=500, help="channel realizations per point")
    parser.add_argument("--symbols", type=int, default=2000, help="0 skips the QPSK SER; any positive value gives the exact SER")
    parser.add_argument("--bits", type=int, default=None, help="discrete phase bits, 1 to 52; omit for continuous")
    parser.add_argument("--values", default=default_values, help="comma-separated sweep values")
    parser.add_argument("--no-bound", action="store_true", help="skip the relaxation benchmark")
    parser.add_argument("--epsilon", type=float, default=1e-5, help="optimizer convergence accuracy, positive and finite")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="irsbf",
        description="Beamforming sweeps and checks for the impaired IRS-assisted link",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (variable, defaults) in _SWEEP_DEFAULTS.items():
        p = sub.add_parser(name, help=f"sweep {variable}")
        _add_sweep_args(p, defaults)
    p = sub.add_parser(
        "iteration-study",
        help="average iterations to convergence from one shared random start",
        description="Average iterations to convergence, robust and nonrobust, plain and"
        " accelerated.  Both designs of a realization start from one shared random start,"
        " so the robust counts differ from a sweep's mean_iterations, where the robust"
        " design continues from the nonrobust one.",
    )
    _add_common(p)
    p.add_argument("--values", default="4,18,32,46,60", help="surface sizes")
    p.add_argument("--channels", type=int, default=100, help="channel realizations per surface size")
    p.add_argument("--epsilon", type=float, default=1e-5, help="optimizer convergence accuracy, positive and finite")
    p = sub.add_parser("los-demo", help="closed forms for the rank-one no-direct-link case")
    _add_common(p, workers=False, out=False)
    p.add_argument("--n-i", type=int, help="surface size (default: the operating point's n_i)")
    p = sub.add_parser("bound-check", help="per-channel robust design vs relaxation benchmark")
    _add_common(p, workers=False)
    p.add_argument("--channels", type=int, default=10)
    return parser


CSV_HEADER = ("sweep_variable", "value", "scheme", "mean_snr_db", "ser", "mean_iterations")


def _cell(x) -> str:
    """One output cell: strings verbatim, numbers at 10 significant digits, None empty."""
    if x is None:
        return ""
    return x if isinstance(x, str) else f"{x:.10g}"


@contextmanager
def _table(args, header, json_key: str | None = None):
    """The one writer of a command's rows; yields ``add(rows)``.

    Rows are lists of plain values in ``header`` order, and each cell is
    formatted once by ``_cell``.  With ``--out`` the CSV is opened before
    any work and each batch of rows is written and flushed as it arrives.
    When the command finishes, the cells are printed as a table; with
    ``--json`` they are not, and with a ``json_key`` the rows are printed
    instead as ``{json_key: [dict(zip(header, row)), ...]}``.
    """
    rows, cells = [], [list(header)]
    with open(args.out, "w", encoding="utf-8", newline="") if args.out else nullcontext() as fh:
        out = csv.writer(fh, lineterminator="\n") if fh else None

        def add(batch) -> None:
            batch_cells = [[_cell(x) for x in row] for row in batch]
            rows.extend(batch)
            cells.extend(batch_cells)
            if out:
                out.writerows(batch_cells)
                fh.flush()

        if out:
            out.writerow(header)
            fh.flush()
        yield add
    if args.json:
        if json_key:
            print(json.dumps({json_key: [dict(zip(header, r)) for r in rows]}, indent=2))
        return
    widths = [max(len(r[i]) for r in cells) for i in range(len(header))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(r, widths)) for r in cells]
    print("\n".join([lines[0], "-" * len(lines[0]), *lines[1:]]))


def _run_sweep_command(args, cfg: SystemConfig, geo: Geometry) -> int:
    spec = SweepSpec(
        variable=_SWEEP_DEFAULTS[args.command][0],
        values=_parse_values(args.values),
        n_channels=args.channels,
        n_symbols=args.symbols,
        seed=args.seed,
        bits=args.bits,
        bound=not args.no_bound,
        epsilon=args.epsilon,
    )
    sweep_points(spec.variable, spec.values, cfg, geo)
    check_run(args.channels, args.workers)

    def rows(res: SimResult) -> list:
        return [
            [res.sweep_variable, res.sweep_value, scheme.value,
             st.mean_snr_db, st.ser, st.mean_iterations]
            for scheme, st in res.stats.items()
        ]

    with _table(args, CSV_HEADER, "results") as add:
        run_sweep(spec, cfg, geo, workers=args.workers, on_point=lambda res: add(rows(res)))
    return 0


def _run_iteration_study(args, cfg: SystemConfig, geo: Geometry) -> int:
    header = [f.name for f in fields(IterationStudyRow)]
    values = _parse_values(args.values)
    MMSettings(epsilon=args.epsilon)
    sweep_points("n_i", values, cfg, geo)
    check_run(args.channels, args.workers)
    with _table(args, header, "iteration_study") as add:
        run_iteration_study(
            values, cfg, geo, seed=args.seed, n_channels=args.channels,
            epsilon=args.epsilon, workers=args.workers, on_point=lambda row: add([astuple(row)]),
        )
    return 0


def _run_los_demo(args, cfg: SystemConfig, geo: Geometry) -> int:
    if args.n_i is not None:
        cfg, geo = with_setting(cfg, geo, "n_i", args.n_i)
    if cfg.n_i < 1:
        raise ConfigError(f"los-demo needs n_i >= 1, got {cfg.n_i}")
    rng = np.random.default_rng(child_seed(args.seed, 0xD0E0))
    los = sample_los(rng, cfg.n_s, cfg.n_i, gain=1e-6)
    sigma_id2 = 1e-4
    h_id = sample_rayleigh(rng, cfg.n_i, 1, sigma_id2).ravel()
    sol = solve_los(los, h_id, cfg, sigma_id2=sigma_id2)
    psi = build_composite(
        ChannelSet(h_si=los.h_si, h_id=h_id, h_sd=np.zeros(cfg.n_s, dtype=complex))
    )
    direct = evaluate_snr(sol.w, sol.phases, psi, cfg)
    mm_res = run_mm(random_lifted_init(rng, cfg.n_i), psi, cfg, MMSettings(epsilon=1e-9))
    payload = {
        "closed_form_snr_db": pow2db(sol.snr),
        "direct_evaluation_snr_db": pow2db(direct),
        "mm_psi_tilde": mm_res.objectives[-1],
        "closed_form_psi_tilde": psi_tilde(sol.phases, psi, cfg),
        "asymptotic_snr_db": pow2db(sol.snr_asymptotic),
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for key, val in payload.items():
            print(f"{key}: {val:.6f}")
    return 0


def _run_bound_check(args, cfg: SystemConfig, geo: Geometry) -> int:
    header = (
        "channel", "psi_tilde_mm", "psi_tilde_primal", "psi_tilde_bound",
        "snr_mm_db", "snr_bound_db", "gap_db", "certified_gap_db",
    )
    gaps = []
    certified_gaps = []
    violations = 0
    check_run(args.channels)
    with _table(args, header) as add:
        for r, design in enumerate(run_bound_check(cfg, geo, args.channels, args.seed)):
            if isinstance(design, DegenerateChannelError):
                raise DegenerateChannelError(f"channel {r}: {design}")
            mm_pt, ub = design
            mm_db = pow2db(snr_from_psi_tilde(mm_pt, cfg))
            bound_db = pow2db(ub.bound_snr)
            gaps.append(bound_db - mm_db)
            certified_gaps.append(bound_db - pow2db(snr_from_psi_tilde(ub.primal_psi_tilde, cfg)))
            violations += ub.bound_psi_tilde < mm_pt
            add([[r, mm_pt, ub.primal_psi_tilde, ub.bound_psi_tilde,
                  mm_db, bound_db, gaps[-1], certified_gaps[-1]]])
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
        print(
            f"mean gap: {summary['mean_gap_db']:.4f} dB, mean certified gap: "
            f"{summary['mean_certified_gap_db']:.4f} dB, violations: {violations}"
        )
    return 0 if violations == 0 else 1


# every other command is a sweep, run by _run_sweep_command
_COMMANDS = {
    "iteration-study": _run_iteration_study,
    "los-demo": _run_los_demo,
    "bound-check": _run_bound_check,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in reversed(range(len(argv) - 1)):
        # argparse reads a list such as -6,0 as a flag, so attach it to its
        # --values (or to an abbreviation of --values, as argparse allows)
        if len(argv[i]) > 2 and "--values".startswith(argv[i]) and re.match(r"-[\d.]", argv[i + 1]):
            argv[i:i + 2] = [f"--values={argv[i + 1]}"]
    args = build_parser().parse_args(argv)
    run = _COMMANDS.get(args.command, _run_sweep_command)
    try:
        cfg, geo = load_setup(args.config) if args.config else table_defaults()
        return run(args, cfg, geo)
    # input errors; a library fault, a LinAlgError say, propagates
    except (ConfigError, UnicodeDecodeError, OSError, SweepFailedError, DegenerateChannelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
