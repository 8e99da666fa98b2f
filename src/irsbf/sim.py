"""Monte-Carlo experiment engine: scheme comparisons, SER link simulation, sweeps.

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
from dataclasses import dataclass, replace

import numpy as np

from .channels import Geometry, generate_channels
from .mm import MMSettings, PowerIterationError, quantize_phases, random_lifted_init, run_mm
from .model import (
    ChannelSet,
    ConfigError,
    DegenerateChannelError,
    PhaseConstraint,
    PhaseKind,
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

QPSK = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2.0)

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


ALL_SCHEMES = (
    Scheme.ROBUST_IRS,
    Scheme.NONROBUST_IRS,
    Scheme.ROBUST_NO_IRS,
    Scheme.NONROBUST_NO_IRS,
    Scheme.UPPER_BOUND,
)


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
    """One experiment: a variable, its grid, and the Monte-Carlo sizes."""

    variable: SweepVariable
    values: tuple
    n_channels: int = 500
    n_symbols: int = 2000
    seed: int = 0
    phase_mode: PhaseConstraint = PhaseConstraint.continuous()
    schemes: tuple = ALL_SCHEMES

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
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "schemes", tuple(self.schemes))


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
    phase: PhaseConstraint,
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
    if phase.kind is PhaseKind.DISCRETE:
        theta_r = quantize_phases(theta_r, phase)
        theta_n = quantize_phases(theta_n, phase)
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


def design_beams(
    scheme: Scheme,
    ch: ChannelSet,
    cfg: SystemConfig,
    settings: MMSettings = MMSettings(),
    rng: np.random.Generator | None = None,
    phase: PhaseConstraint = PhaseConstraint.continuous(),
) -> DesignResult:
    """Beams for one scheme; the same seeded rng yields the shared MM init."""
    if scheme is Scheme.UPPER_BOUND:
        raise ConfigError("the upper bound is a benchmark value, not a beam design")
    if rng is None:
        rng = np.random.default_rng(0)
    init = random_lifted_init(rng, ch.n_i)
    designs, _ = _design_all(ch, cfg, settings, phase, init)
    return designs[scheme]


@dataclass(frozen=True)
class SymbolTransmission:
    """One batch of transmitted symbols with every signal-chain term kept.

    Arrays are indexed by symbol; ``z_s`` has one row per source antenna.
    The receive-distortion variance uses the analytic second moment of the
    undistorted received signal, conditioned on beams and channel.
    """

    x: np.ndarray
    z_s: np.ndarray
    z_d: np.ndarray
    n: np.ndarray
    y: np.ndarray
    y_tilde: np.ndarray

    @property
    def symbol_indices(self) -> np.ndarray:
        re_neg = (self.x.real < 0).astype(int)
        im_neg = (self.x.imag < 0).astype(int)
        return re_neg * 2 + im_neg


def _cn_samples(rng: np.random.Generator, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def simulate_symbols(
    w: np.ndarray,
    theta: ReflectConfig | None,
    ch: ChannelSet,
    cfg: SystemConfig,
    n_symbols: int,
    rng: np.random.Generator,
) -> SymbolTransmission:
    """Push unit-power QPSK symbols through the impaired link.

    Draw order is fixed (symbols, transmit distortion, receive distortion,
    noise) so schemes simulated from identically seeded generators share
    the same underlying randomness and differ only through their beams.
    """
    w = np.asarray(w, dtype=complex).ravel()
    v = composite_vector(theta, ch)
    g = np.vdot(v, w)
    x = QPSK[rng.integers(0, 4, n_symbols)]
    z_s = np.sqrt(cfg.kappa_s) * np.abs(w)[:, None] * _cn_samples(rng, (w.shape[0], n_symbols))
    tx_dist_power = cfg.kappa_s * float(np.sum(np.abs(v) ** 2 * np.abs(w) ** 2))
    m2 = float(np.abs(g) ** 2) + tx_dist_power + cfg.sigma_n2
    z_d = np.sqrt(cfg.kappa_d * m2) * _cn_samples(rng, n_symbols)
    noise = np.sqrt(cfg.sigma_n2) * _cn_samples(rng, n_symbols)
    y_tilde = g * x + np.conj(v) @ z_s + noise
    y = y_tilde + z_d
    return SymbolTransmission(x=x, z_s=z_s, z_d=z_d, n=noise, y=y, y_tilde=y_tilde)


def simulate_ser(
    w: np.ndarray,
    theta: ReflectConfig | None,
    ch: ChannelSet,
    cfg: SystemConfig,
    n_symbols: int,
    rng: np.random.Generator,
) -> float:
    """Symbol error fraction of equalized nearest-constellation decisions.

    A vanishing effective channel leaves nothing to equalize; that
    degenerate case reports the random-guess level 0.75.
    """
    v = composite_vector(theta, ch)
    g = np.vdot(v, np.asarray(w, dtype=complex).ravel())
    if np.abs(g) == 0.0:
        return 0.75
    batch = simulate_symbols(w, theta, ch, cfg, n_symbols, rng)
    eq = batch.y / g
    decided = (eq.real < 0).astype(int) * 2 + (eq.imag < 0).astype(int)
    return float(np.mean(decided != batch.symbol_indices))


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
        return replace(cfg, n_i=int(round(value))), geo
    if variable is SweepVariable.D_SD_H:
        return cfg, replace(geo, d_sd_h=float(value))
    if variable is SweepVariable.P_DBW:
        return replace(cfg, p=db2pow(float(value))), geo
    if variable is SweepVariable.KAPPA:
        return replace(cfg, kappa_s=float(value), kappa_d=float(value)), geo
    raise ConfigError(f"unknown sweep variable {variable}")


_SER_SALT = 0x5E12


def _realization_stats(args) -> dict:
    """Worker body: one channel realization at one sweep point.

    Returns per-scheme (snr, ser, iterations) tuples, or {'failed': msg}.
    Everything it consumes is derived from ``seed`` alone, so placement on
    any worker gives identical output.
    """
    (cfg, geo, settings, phase, n_symbols, seed, schemes) = args
    try:
        rng = np.random.default_rng(seed)
        ch = generate_channels(rng, cfg, geo)
        init = random_lifted_init(rng, cfg.n_i)
        designs, kept = _design_all(ch, cfg, settings, phase, init)
        out = {}
        for scheme in schemes:
            if scheme is Scheme.UPPER_BOUND:
                ub = solve_sdr(build_composite(ch), cfg, init=lift_reflect(kept))
                out[scheme.value] = (ub.bound_snr, None, None)
                continue
            d = designs[scheme]
            snr = evaluate_snr(d.w, d.theta, ch, cfg)
            ser = None
            if n_symbols > 0:
                ser_rng = np.random.default_rng(child_seed(seed, _SER_SALT))
                ser = simulate_ser(d.w, d.theta, ch, cfg, n_symbols, ser_rng)
            out[scheme.value] = (snr, ser, d.iterations)
        return out
    except (DegenerateChannelError, ConfigError, PowerIterationError) as exc:
        return {"failed": f"{type(exc).__name__}: {exc}"}


def _map_tasks(fn, tasks, workers: int):
    if workers <= 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks, chunksize=max(1, len(tasks) // (4 * workers))))


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
    SER is averaged over channels.  Realizations that fail with a domain
    error (degenerate channel, bad configuration, power iteration not
    converging) are skipped and counted in the log; any other exception
    propagates.  ``on_point`` is invoked with each finished
    SimResult, letting callers persist partial output.
    """
    settings = mm_settings or MMSettings()
    results = []
    for vi, value in enumerate(spec.values):
        cfg_v, geo_v = apply_sweep_value(spec.variable, value, base_cfg, geo)
        tasks = [
            (
                cfg_v,
                geo_v,
                settings,
                spec.phase_mode,
                spec.n_symbols,
                child_seed(spec.seed, vi, r),
                spec.schemes,
            )
            for r in range(spec.n_channels)
        ]
        rows = _map_tasks(_realization_stats, tasks, workers)
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
            raise RuntimeError(f"all realizations failed at {spec.variable.value}={value}")
        stats = {}
        for scheme in spec.schemes:
            snrs = np.array([r[scheme.value][0] for r in good])
            sers = [r[scheme.value][1] for r in good]
            iters = [r[scheme.value][2] for r in good]
            stats[scheme] = SchemeStats(
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
    same bookkeeping used by ``run_mm``.
    """
    rows = []
    for ni_idx, n_i in enumerate(n_i_list):
        cfg = replace(base_cfg, n_i=int(n_i))
        tasks = [
            (cfg, geo, child_seed(seed, _STUDY_SALT, ni_idx, r), epsilon, max_iter)
            for r in range(n_channels)
        ]
        counts = np.array(_map_tasks(_study_task, tasks, workers), dtype=float)
        rows.append(
            IterationStudyRow(
                n_i=int(n_i),
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


def _csv_rows(res: SimResult, schemes=None) -> list[list[str]]:
    """CSV rows of one sweep point, one per scheme, in ``schemes`` order.

    Without ``schemes`` the point's own schemes are written in the
    canonical order.  Floats carry 10 significant digits.
    """
    ordered = schemes if schemes is not None else [s for s in ALL_SCHEMES if s in res.stats]
    return [
        [
            res.sweep_variable.value,
            _fmt(res.sweep_value),
            scheme.value,
            _fmt(res.stats[scheme].mean_snr_db),
            _fmt(res.stats[scheme].ser),
            _fmt(res.stats[scheme].mean_iterations),
        ]
        for scheme in ordered
    ]


def write_results_csv(fileobj, results: list[SimResult], schemes=None) -> None:
    """Emit the header, then one row per (sweep point, scheme)."""
    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for res in results:
        writer.writerows(_csv_rows(res, schemes))
