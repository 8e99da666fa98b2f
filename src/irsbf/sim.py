"""Monte-Carlo experiment engine: scheme comparisons, exact conditional SER, sweeps.

A sweep takes the paper's three inputs as plain values: the channel
statistics (configuration and geometry), the distortion levels, and the
phase set as ``bits`` (None for continuous phases).  Every sweep point
reports the four designed schemes, plus the relaxation bound when
``bound`` is set, always in the order of ``Scheme``.

Determinism contract: every channel realization draws from its own
generator whose seed is derived from the master seed and the realization
index through a 64-bit mixing function.  Workers therefore produce
identical results regardless of how tasks are distributed, and the
aggregation is an ordered reduction.
"""

from __future__ import annotations

import csv
import enum
import logging
import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from .channels import Geometry, generate_channels
from .mm import MMSettings, check_bits, quantize_phases, random_lifted_init, run_mm
from .model import (
    ChannelSet,
    ConfigError,
    DegenerateChannelError,
    ReflectConfig,
    SystemConfig,
    build_composite,
    lift_reflect,
)
from .sdr import solve_sdr
from .txbf import (
    composite_vector,
    evaluate_snr,
    optimal_beam_from_v,
    optimal_transmit_beam,
    psi_tilde,
)

log = logging.getLogger(__name__)

_MASK64 = (1 << 64) - 1


def db2pow(x_db: float) -> float:
    return float(10.0 ** (x_db / 10.0))


def pow2db(x: float) -> float:
    return float(10.0 * np.log10(x))


def _mix64(x: int) -> int:
    """splitmix64 finalizer; full-avalanche 64-bit mixing."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def child_seed(master: int, *indices: int) -> int:
    """Derive an independent substream seed from the master seed and indices."""
    s = master & _MASK64
    for idx in indices:
        s = _mix64(s ^ ((idx + 1) & _MASK64))
    return s


class Scheme(enum.Enum):
    ROBUST_IRS = "robust_irs"
    NONROBUST_IRS = "nonrobust_irs"
    ROBUST_NO_IRS = "robust_no_irs"
    NONROBUST_NO_IRS = "nonrobust_no_irs"
    UPPER_BOUND = "upper_bound"


ALL_SCHEMES = tuple(Scheme)


class SweepFailedError(RuntimeError):
    """Every realization of a sweep point failed with a domain error."""


class SweepVariable(enum.Enum):
    N_I = "n_i"
    D_SD_H = "d_sd_h"
    P_DBW = "p_dbw"
    KAPPA = "kappa"


def table_defaults() -> tuple[SystemConfig, Geometry]:
    """Default desk-scale operating point (50-element surface, 12 dBW budget)."""
    cfg = SystemConfig(
        n_s=4, n_i=50, p=db2pow(12.0), kappa_s=0.07, kappa_d=0.07, sigma_n2=db2pow(-85.0)
    )
    geo = Geometry(d_si=50.0, d_v=2.0, d_sd_h=49.0)
    return cfg, geo


@dataclass(frozen=True)
class SweepSpec:
    """One experiment: a variable, its grid, the Monte-Carlo sizes and the phase set.

    ``bits`` is None for continuous phases, else the resolution of a
    2**bits-level phase set; ``bound`` adds the relaxation bound's row.
    """

    variable: SweepVariable
    values: tuple
    n_channels: int = 500
    n_symbols: int = 2000  # 0 leaves the SER out; any positive value gives the exact SER
    seed: int = 0
    bits: int | None = None
    bound: bool = True

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if not vals:
            raise ConfigError("sweep needs at least one value")
        if list(vals) != sorted(vals):
            raise ConfigError("sweep values must be sorted ascending")
        if self.n_channels < 1:
            raise ConfigError(f"n_channels must be >= 1, got {self.n_channels}")
        if self.n_symbols < 0:
            raise ConfigError(f"n_symbols must be >= 0, got {self.n_symbols}")
        if not (0 <= self.seed <= _MASK64):
            raise ConfigError("seed must fit in 64 unsigned bits")
        check_bits(self.bits)
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class SchemeStats:
    mean_snr_db: float
    ser: float | None
    mean_iterations: float | None


@dataclass(frozen=True)
class SimResult:
    """Aggregated statistics of one sweep point."""

    sweep_variable: SweepVariable
    sweep_value: float
    stats: dict


@dataclass(frozen=True)
class DesignResult:
    """Beams produced by one scheme for one channel realization."""

    w: np.ndarray
    theta: ReflectConfig | None
    iterations: int | None
    converged: bool | None


def _nonrobust_config(cfg: SystemConfig) -> SystemConfig:
    return replace(cfg, kappa_s=0.0, kappa_d=0.0)


def _design_all(
    ch: ChannelSet,
    cfg: SystemConfig,
    settings: MMSettings,
    bits: int | None,
    init: np.ndarray,
):
    """Design the four beam schemes on one realization from a shared init.

    The robust scheme also scores the nonrobust phase profile under the
    true distortion levels and keeps the better one, which makes its SNR
    dominate the nonrobust scheme's per realization, not just on average.
    Nonrobust beams keep the feasible norm sqrt(p_tilde): the hardware
    consumes the distortion overhead no matter what the designer assumed.

    Also returns the profile the robust scheme kept, before quantization.
    The relaxation bound is certified from any start, but its primal
    ascent starts there: it is the best unit-modulus point at hand, better
    than the robust MM phases whenever the robust scheme drops them.
    """
    psi = build_composite(ch)
    cfg0 = _nonrobust_config(cfg)
    res_r = run_mm(init, psi, cfg, settings)
    res_n = run_mm(init, psi, cfg0, settings)
    theta_r, theta_n = res_r.reflect, res_n.reflect
    if bits is not None:
        theta_r = quantize_phases(theta_r, bits)
        theta_n = quantize_phases(theta_n, bits)
    theta_star, kept = theta_r, res_r.reflect
    if psi_tilde(theta_n, ch, cfg) > psi_tilde(theta_r, ch, cfg):
        theta_star, kept = theta_n, res_n.reflect
    w_r = optimal_transmit_beam(theta_star, ch, cfg)
    budget_scale = math.sqrt(cfg.p_tilde / cfg0.p_tilde)
    w_n = optimal_beam_from_v(composite_vector(theta_n, ch), cfg0) * budget_scale
    w_rn = optimal_transmit_beam(None, ch, cfg)
    w_nn = optimal_beam_from_v(ch.h_sd, cfg0) * budget_scale
    designs = {
        Scheme.ROBUST_IRS: DesignResult(w_r, theta_star, res_r.iterations, res_r.converged),
        Scheme.NONROBUST_IRS: DesignResult(w_n, theta_n, res_n.iterations, res_n.converged),
        Scheme.ROBUST_NO_IRS: DesignResult(w_rn, None, None, None),
        Scheme.NONROBUST_NO_IRS: DesignResult(w_nn, None, None, None),
    }
    return designs, kept


def simulate_ser(
    w: np.ndarray,
    theta: ReflectConfig | None,
    ch: ChannelSet,
    cfg: SystemConfig,
    n_symbols: int,
) -> float:
    """Exact QPSK symbol error rate of one realization, given its beams.

    With the channel and the beams fixed, the equalized symbol is x + e
    with e circular Gaussian of variance 1/SNR (the distortion is Gaussian
    by the model), so the conditional SER is the closed form at the
    realization's SNR; a vanishing effective channel gives the
    random-guess level 0.75.  ``n_symbols`` does not change the value: it
    is the nominal link length a symbol-level simulation would use, kept
    because the benchmark's tracer (``bench/tracing.py``) wraps this name
    and counts symbols from that argument.
    """
    return ser_qpsk_theory(evaluate_snr(w, theta, ch, cfg))


def ser_qpsk_theory(snr: float) -> float:
    """Gray-mapped QPSK symbol error probability at a given post-equalizer SNR."""
    q = 0.5 * math.erfc(math.sqrt(max(snr, 0.0) / 2.0))
    return 2.0 * q - q * q


def apply_sweep_value(
    variable: SweepVariable,
    value: float,
    cfg: SystemConfig,
    geo: Geometry,
) -> tuple[SystemConfig, Geometry]:
    """Instantiate one sweep point; power values arrive in dBW."""
    if variable is SweepVariable.N_I:
        if not float(value).is_integer():
            raise ConfigError(f"n_i must be an integer, got {value:g}")
        return replace(cfg, n_i=int(value)), geo
    if variable is SweepVariable.D_SD_H:
        return cfg, replace(geo, d_sd_h=float(value))
    if variable is SweepVariable.P_DBW:
        return replace(cfg, p=db2pow(float(value))), geo
    if variable is SweepVariable.KAPPA:
        return replace(cfg, kappa_s=float(value), kappa_d=float(value)), geo
    raise ConfigError(f"unknown sweep variable {variable}")


def _realization_stats(args) -> dict:
    """Worker body: one channel realization at one sweep point.

    Returns per-scheme (snr, ser, iterations) tuples keyed by scheme name
    in ``Scheme`` order, the bound's last and only with ``bound``; or
    {'failed': msg}.  Everything it consumes is derived from ``seed``
    alone, so placement on any worker gives identical output.
    """
    (cfg, geo, settings, bits, n_symbols, seed, bound) = args
    try:
        rng = np.random.default_rng(seed)
        ch = generate_channels(rng, cfg, geo)
        init = random_lifted_init(rng, cfg.n_i)
        designs, kept = _design_all(ch, cfg, settings, bits, init)
        out = {}
        for scheme, d in designs.items():
            snr = evaluate_snr(d.w, d.theta, ch, cfg)
            ser = simulate_ser(d.w, d.theta, ch, cfg, n_symbols) if n_symbols > 0 else None
            out[scheme.value] = (snr, ser, d.iterations)
        if bound:
            ub = solve_sdr(build_composite(ch), cfg, init=lift_reflect(kept))
            out[Scheme.UPPER_BOUND.value] = (ub.bound_snr, None, None)
        return out
    except (DegenerateChannelError, ConfigError) as exc:
        return {"failed": f"{type(exc).__name__}: {exc}"}


@contextmanager
def _task_map(workers: int):
    """A map of a function over a task list, for a whole run.

    With one worker the tasks run in this process; otherwise one process
    pool serves every call until the run ends.  Results come back in task
    order either way.
    """
    if workers <= 1:
        yield lambda fn, tasks: [fn(t) for t in tasks]
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield lambda fn, tasks: list(
            pool.map(fn, tasks, chunksize=max(1, len(tasks) // (4 * workers)))
        )


def run_sweep(
    spec: SweepSpec,
    base_cfg: SystemConfig,
    geo: Geometry,
    workers: int = 1,
    mm_settings: MMSettings | None = None,
    on_point=None,
) -> list[SimResult]:
    """Run every scheme over the sweep grid and aggregate per point.

    SNR is averaged in the linear domain and converted to dB afterwards;
    SER is the mean over channels of each realization's exact conditional
    SER, or None when ``spec.n_symbols`` is 0.  Realizations that fail
    with a domain error (degenerate channel, bad configuration) are
    skipped and counted in the log; if every realization of a point fails,
    SweepFailedError names the first reason.  Any other exception
    propagates.  Every point is instantiated before the first one runs,
    so a bad value fails at once.  ``on_point`` is invoked with each
    finished SimResult, letting callers persist partial output.
    """
    settings = mm_settings or MMSettings()
    points = [apply_sweep_value(spec.variable, value, base_cfg, geo) for value in spec.values]
    results = []
    with _task_map(workers) as map_tasks:
        for vi, (value, (cfg_v, geo_v)) in enumerate(zip(spec.values, points)):
            tasks = [
                (
                    cfg_v,
                    geo_v,
                    settings,
                    spec.bits,
                    spec.n_symbols,
                    child_seed(spec.seed, vi, r),
                    spec.bound,
                )
                for r in range(spec.n_channels)
            ]
            rows = map_tasks(_realization_stats, tasks)
            failed = [r["failed"] for r in rows if "failed" in r]
            if failed:
                log.warning(
                    "sweep %s=%g: skipped %d/%d realizations (first: %s)",
                    spec.variable.value,
                    value,
                    len(failed),
                    len(rows),
                    failed[0],
                )
            good = [r for r in rows if "failed" not in r]
            if not good:
                raise SweepFailedError(
                    f"all {len(rows)} realizations failed at {spec.variable.value}={value:g}"
                    f" (first: {failed[0]})"
                )
            stats = {}
            for name in good[0]:
                snrs = np.array([r[name][0] for r in good])
                sers = [r[name][1] for r in good]
                iters = [r[name][2] for r in good]
                stats[Scheme(name)] = SchemeStats(
                    mean_snr_db=pow2db(float(np.mean(snrs))),
                    ser=float(np.mean(sers)) if sers[0] is not None else None,
                    mean_iterations=float(np.mean(iters)) if iters[0] is not None else None,
                )
            point = SimResult(sweep_variable=spec.variable, sweep_value=value, stats=stats)
            results.append(point)
            if on_point is not None:
                on_point(point)
    return results


@dataclass(frozen=True)
class IterationStudyRow:
    """Average iteration counts to a fixed accuracy for one surface size."""

    n_i: int
    robust_plain: float
    robust_accel: float
    nonrobust_plain: float
    nonrobust_accel: float


_STUDY_SALT = 0xA11E


def _study_task(args) -> tuple:
    (cfg, geo, seed, epsilon, max_iter) = args
    rng = np.random.default_rng(seed)
    ch = generate_channels(rng, cfg, geo)
    psi = build_composite(ch)
    init = random_lifted_init(rng, cfg.n_i)
    cfg0 = _nonrobust_config(cfg)
    counts = []
    for run_cfg in (cfg, cfg0):
        for accel in (False, True):
            st = MMSettings(epsilon=epsilon, max_iter=max_iter, accelerate=accel)
            counts.append(run_mm(init, psi, run_cfg, st).iterations)
    return tuple(counts)


def run_iteration_study(
    n_i_list,
    base_cfg: SystemConfig,
    geo: Geometry,
    seed: int,
    n_channels: int = 100,
    epsilon: float = 1e-5,
    max_iter: int = 20000,
    workers: int = 1,
) -> list[IterationStudyRow]:
    """Average iterations to convergence, robust/nonrobust x plain/accelerated.

    Accelerated counts are outer cycles (two fixed-point maps each), the
    same bookkeeping used by ``run_mm``.  Surface sizes must be integers;
    all are checked before the first one runs.
    """
    if n_channels < 1:
        raise ConfigError(f"n_channels must be >= 1, got {n_channels}")
    cfgs = [apply_sweep_value(SweepVariable.N_I, n_i, base_cfg, geo)[0] for n_i in n_i_list]
    rows = []
    with _task_map(workers) as map_tasks:
        for ni_idx, cfg in enumerate(cfgs):
            tasks = [
                (cfg, geo, child_seed(seed, _STUDY_SALT, ni_idx, r), epsilon, max_iter)
                for r in range(n_channels)
            ]
            counts = np.array(map_tasks(_study_task, tasks), dtype=float)
            rows.append(
                IterationStudyRow(
                    n_i=cfg.n_i,
                    robust_plain=float(np.mean(counts[:, 0])),
                    robust_accel=float(np.mean(counts[:, 1])),
                    nonrobust_plain=float(np.mean(counts[:, 2])),
                    nonrobust_accel=float(np.mean(counts[:, 3])),
                )
            )
    return rows


CSV_HEADER = ("sweep_variable", "value", "scheme", "mean_snr_db", "ser", "mean_iterations")


def _fmt(x) -> str:
    if x is None:
        return ""
    return f"{x:.10g}"


def _csv_rows(res: SimResult) -> list[list[str]]:
    """CSV rows of one sweep point, one per scheme, in ``Scheme`` order.

    Floats carry 10 significant digits.
    """
    return [
        [
            res.sweep_variable.value,
            _fmt(res.sweep_value),
            scheme.value,
            _fmt(res.stats[scheme].mean_snr_db),
            _fmt(res.stats[scheme].ser),
            _fmt(res.stats[scheme].mean_iterations),
        ]
        for scheme in ALL_SCHEMES
        if scheme in res.stats
    ]


def write_results_csv(fileobj, results: list[SimResult]) -> None:
    """Emit the header, then one row per (sweep point, scheme)."""
    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for res in results:
        writer.writerows(_csv_rows(res))
