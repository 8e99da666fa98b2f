"""Monte-Carlo experiment engine: scheme comparisons, exact conditional SER, sweeps.

This module computes and returns plain results; formatting them as
tables, CSV or JSON is the command line's job (``irsbf.cli``).

An operating point is a ``SystemConfig`` and a ``Geometry``.  ``SETTINGS``
is the one table of the names that set it, with their units (powers in
dBW) and types; ``with_setting`` applies one name and value.  Config-file
lines (``load_setup``), the sweep variable of a ``SweepSpec`` and the
iteration study's surface sizes all go through it.

A sweep takes the paper's three inputs as plain values: the channel
statistics (configuration and geometry), the distortion levels, and the
phase set as ``bits`` (None for continuous phases).  Every sweep point
reports the four designed schemes, plus the relaxation bound when
``bound`` is set, always in the order of ``Scheme``.

Determinism contract: sweeps and the iteration study run their
realizations through one loop, ``_realizations``, and draw each one by
``_draw`` from its own generator, whose seed is derived from the master
seed, the point index and the realization index through a 64-bit mixing
function.  Workers therefore produce identical results regardless of how
tasks are distributed, and the aggregation is an ordered reduction.  A
degenerate channel is the only failure a realization reports.
"""

from __future__ import annotations

import enum
import logging
import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import closing, nullcontext
from dataclasses import dataclass, replace

import numpy as np

from .channels import Geometry, generate_channels
from .mm import MMSettings, check_bits, quantize_phases, random_lifted_init, run_mm
from .model import (
    ConfigError,
    DegenerateChannelError,
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


class SweepFailedError(RuntimeError):
    """Every realization of a sweep point failed with a domain error."""


def table_defaults() -> tuple[SystemConfig, Geometry]:
    """Default desk-scale operating point (50-element surface, 12 dBW budget)."""
    cfg = SystemConfig(
        n_s=4, n_i=50, p=db2pow(12.0), kappa_s=0.07, kappa_d=0.07, sigma_n2=db2pow(-85.0)
    )
    geo = Geometry(d_si=50.0, d_v=2.0, d_sd_h=49.0)
    return cfg, geo


def _integer(value) -> int:
    x = float(value)
    if not x.is_integer():
        raise ValueError
    return int(x)


# name -> (the dataclass it sets, the fields it sets, the parse of its value)
SETTINGS = {
    "n_s": (SystemConfig, ("n_s",), _integer),
    "n_i": (SystemConfig, ("n_i",), _integer),
    "p_dbw": (SystemConfig, ("p",), lambda v: db2pow(float(v))),
    "kappa": (SystemConfig, ("kappa_s", "kappa_d"), float),
    "kappa_s": (SystemConfig, ("kappa_s",), float),
    "kappa_d": (SystemConfig, ("kappa_d",), float),
    "sigma_n2_dbw": (SystemConfig, ("sigma_n2",), lambda v: db2pow(float(v))),
    "d_0": (Geometry, ("d0",), float),
    "pl_0": (Geometry, ("pl0_db",), float),
    "gamma_si": (Geometry, ("gamma_si",), float),
    "gamma_id": (Geometry, ("gamma_id",), float),
    "gamma_sd": (Geometry, ("gamma_sd",), float),
    "d_si": (Geometry, ("d_si",), float),
    "d_v": (Geometry, ("d_v",), float),
    "d_sd_h": (Geometry, ("d_sd_h",), float),
}


def with_setting(
    cfg: SystemConfig, geo: Geometry, name: str, value
) -> tuple[SystemConfig, Geometry]:
    """The operating point with setting ``name`` of ``SETTINGS`` at ``value``.

    ``value`` is a number or its text; powers are in dBW.
    """
    if name not in SETTINGS:
        raise ConfigError(f"unknown setting {name!r}")
    target, names, parse = SETTINGS[name]
    try:
        x = parse(value)
    except (TypeError, ValueError):
        kind = "an integer" if parse is _integer else "a number"
        raise ConfigError(f"{name} must be {kind}, got {value}") from None
    changes = dict.fromkeys(names, x)
    if target is SystemConfig:
        return replace(cfg, **changes), geo
    return cfg, replace(geo, **changes)


def load_setup(path: str) -> tuple[SystemConfig, Geometry]:
    """The operating point of a file of ``name = value`` lines, over ``table_defaults()``.

    Names are those of ``SETTINGS``, in any case, and '#' starts a comment.
    Lines apply in file order, so the last line that sets a field wins.
    An error names the file and the line.
    """
    cfg, geo = table_defaults()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            name, eq, value = (part.strip() for part in line.partition("="))
            try:
                if not eq:
                    raise ConfigError(f"expected 'name = value', got {raw.strip()!r}")
                cfg, geo = with_setting(cfg, geo, name.lower(), value)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from None
    return cfg, geo


@dataclass(frozen=True)
class SweepSpec:
    """One experiment: a variable, its grid, the Monte-Carlo sizes and the phase set.

    ``bits`` is None for continuous phases, else the resolution of a
    2**bits-level phase set; ``bound`` adds the relaxation bound's row.
    """

    variable: str  # a name of SETTINGS
    values: tuple
    n_channels: int = 500
    n_symbols: int = 2000  # 0 leaves the SER out; any positive value gives the exact SER
    seed: int = 0
    bits: int | None = None
    bound: bool = True
    epsilon: float = 1e-5  # the optimizer's convergence accuracy, in (0, inf)

    def __post_init__(self):
        if self.variable not in SETTINGS:
            raise ConfigError(f"unknown sweep variable {self.variable!r}")
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
        MMSettings(epsilon=self.epsilon)
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class SchemeStats:
    mean_snr_db: float
    ser: float | None
    mean_iterations: float | None


@dataclass(frozen=True)
class SimResult:
    """Aggregated statistics of one sweep point."""

    sweep_variable: str
    sweep_value: float
    stats: dict


def _nonrobust_config(cfg: SystemConfig) -> SystemConfig:
    return replace(cfg, kappa_s=0.0, kappa_d=0.0)


def _design_all(
    psi: np.ndarray,
    cfg: SystemConfig,
    settings: MMSettings,
    bits: int | None,
    init: np.ndarray,
    bound: bool,
):
    """Design the four beam schemes on one realization from a shared init.

    ``psi`` is the realization's composite channel (``build_composite``).
    Returns each scheme's (w, theta, iterations) in ``Scheme`` order, and
    the relaxation bound (``UpperBoundResult``), or None without ``bound``.

    The robust scheme also scores the nonrobust phase profile under the
    true distortion levels and keeps the better one, which makes its SNR
    dominate the nonrobust scheme's per realization, not just on average.
    Nonrobust beams keep the feasible norm sqrt(p_tilde): the hardware
    consumes the distortion overhead no matter what the designer assumed.

    The bound is certified from any start, but its ascent starts from the
    profile the robust scheme kept, before quantization: the best
    unit-modulus point at hand.
    """
    cfg0 = _nonrobust_config(cfg)
    res_r = run_mm(init, psi, cfg, settings)
    res_n = run_mm(init, psi, cfg0, settings)
    theta_r, theta_n = res_r.reflect, res_n.reflect
    if bits is not None:
        theta_r = quantize_phases(theta_r, bits)
        theta_n = quantize_phases(theta_n, bits)
    theta_star, kept = theta_r, res_r.reflect
    if psi_tilde(theta_n, psi, cfg) > psi_tilde(theta_r, psi, cfg):
        theta_star, kept = theta_n, res_n.reflect
    w_r = optimal_transmit_beam(theta_star, psi, cfg)
    budget_scale = math.sqrt(cfg.p_tilde / cfg0.p_tilde)
    w_n = optimal_beam_from_v(composite_vector(theta_n, psi), cfg0) * budget_scale
    w_rn = optimal_transmit_beam(None, psi, cfg)
    w_nn = optimal_beam_from_v(composite_vector(None, psi), cfg0) * budget_scale
    designs = {
        Scheme.ROBUST_IRS: (w_r, theta_star, res_r.iterations),
        Scheme.NONROBUST_IRS: (w_n, theta_n, res_n.iterations),
        Scheme.ROBUST_NO_IRS: (w_rn, None, None),
        Scheme.NONROBUST_NO_IRS: (w_nn, None, None),
    }
    return designs, solve_sdr(psi, cfg, init=lift_reflect(kept)) if bound else None


def simulate_ser(snr: float, n_symbols: int) -> float:
    """Exact QPSK symbol error rate of one realization at its receive SNR.

    With the channel and the beams fixed, the equalized symbol is x + e
    with e circular Gaussian of variance 1/SNR (the distortion is Gaussian
    by the model), so the conditional SER is the Gray-mapped closed form
    2q - q^2 with q = Q(sqrt(SNR)); a vanishing effective channel (SNR 0)
    gives the random-guess level 0.75.  ``n_symbols`` does not change the
    value: it is the nominal link length a symbol-level simulation would
    use, kept because the benchmark's tracer (``bench/tracing.py``) wraps
    this name and counts symbols from that argument.
    """
    q = 0.5 * math.erfc(math.sqrt(max(snr, 0.0) / 2.0))
    return 2.0 * q - q * q


def _draw(cfg: SystemConfig, geo: Geometry, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """One realization's composite channel and MM init, from ``seed`` alone.

    Every seeded output depends on this order: channels, then the init.
    """
    rng = np.random.default_rng(seed)
    psi = build_composite(generate_channels(rng, cfg, geo))
    return psi, random_lifted_init(rng, cfg.n_i)


def _realization_stats(args) -> dict:
    """Worker body: draw, design and score one realization of one sweep point.

    Returns per-scheme (snr, ser, iterations) tuples keyed by scheme name
    in ``Scheme`` order, the bound's last and only with ``bound``; or
    {'failed': msg} for a degenerate channel, the only failure a
    realization may have: the point's configuration was checked when it
    was built, so any other error is a fault and propagates.
    """
    (cfg, geo, settings, bits, n_symbols, bound, seed) = args
    try:
        psi, init = _draw(cfg, geo, seed)
        designs, ub = _design_all(psi, cfg, settings, bits, init, bound)
    except DegenerateChannelError as exc:
        return {"failed": f"{type(exc).__name__}: {exc}"}
    out = {}
    for scheme, (w, theta, iterations) in designs.items():
        snr = evaluate_snr(w, theta, psi, cfg)
        ser = simulate_ser(snr, n_symbols) if n_symbols > 0 else None
        out[scheme.value] = (snr, ser, iterations)
    if ub is not None:
        out[Scheme.UPPER_BOUND.value] = (ub.bound_snr, None, None)
    return out


def _realizations(task, points, n_channels: int, seed: int, salt: tuple, workers: int):
    """The one realization loop: yields each point's task results in realization order.

    Realization r of point i runs ``task((*points[i], child_seed(seed, *salt, i, r)))``.
    With one worker the tasks run in this process; otherwise one process
    pool serves every point until the run ends.  The counts are checked
    before the first task runs.
    """
    if n_channels < 1:
        raise ConfigError(f"n_channels must be >= 1, got {n_channels}")
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        for i, point in enumerate(points):
            tasks = [(*point, child_seed(seed, *salt, i, r)) for r in range(n_channels)]
            if pool is None:
                yield [task(t) for t in tasks]
            else:
                yield list(pool.map(task, tasks, chunksize=max(1, n_channels // (4 * workers))))


def run_sweep(
    spec: SweepSpec,
    base_cfg: SystemConfig,
    geo: Geometry,
    workers: int = 1,
    on_point=None,
) -> list[SimResult]:
    """Run every scheme over the sweep grid and aggregate per point.

    SNR is averaged in the linear domain and converted to dB afterwards;
    SER is the mean over channels of each realization's exact conditional
    SER, or None when ``spec.n_symbols`` is 0.  Realizations with a
    degenerate channel are skipped and counted in the log; if every
    realization of a point fails, SweepFailedError names the first reason.
    Any other exception propagates.  Every point, its geometry included,
    is instantiated before the first one runs, so a bad value fails at
    once.  ``on_point`` is invoked with each finished SimResult, letting
    callers persist partial output.
    """
    settings = MMSettings(epsilon=spec.epsilon)
    points = [
        (*with_setting(base_cfg, geo, spec.variable, value),
         settings, spec.bits, spec.n_symbols, spec.bound)
        for value in spec.values
    ]
    results = []
    with closing(
        _realizations(_realization_stats, points, spec.n_channels, spec.seed, (), workers)
    ) as realizations:
        for rows, value in zip(realizations, spec.values):
            failed = [r["failed"] for r in rows if "failed" in r]
            if failed:
                log.warning(
                    "sweep %s=%g: skipped %d/%d realizations (first: %s)",
                    spec.variable,
                    value,
                    len(failed),
                    len(rows),
                    failed[0],
                )
            good = [r for r in rows if "failed" not in r]
            if not good:
                raise SweepFailedError(
                    f"all {len(rows)} realizations failed at {spec.variable}={value:g}"
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
# The iteration cap of every study run: the study counts iterations to
# convergence, so the cap only has to lie beyond any count it reports.
_STUDY_MAX_ITER = 20000


def _study_task(args) -> tuple:
    (cfg, geo, plain_accel, seed) = args
    psi, init = _draw(cfg, geo, seed)
    cfg0 = _nonrobust_config(cfg)
    counts = []
    for run_cfg in (cfg, cfg0):
        for st in plain_accel:
            counts.append(run_mm(init, psi, run_cfg, st).iterations)
    return tuple(counts)


def run_iteration_study(
    n_i_list,
    base_cfg: SystemConfig,
    geo: Geometry,
    seed: int,
    n_channels: int = 100,
    epsilon: float = 1e-5,
    workers: int = 1,
) -> list[IterationStudyRow]:
    """Average iterations to convergence, robust/nonrobust x plain/accelerated.

    Accelerated counts are outer cycles (two fixed-point maps each), the
    same bookkeeping used by ``run_mm``.  Surface sizes must be integers,
    and at least one is needed; they and ``epsilon`` are checked before
    the first realization runs.
    """
    plain_accel = [MMSettings(epsilon, _STUDY_MAX_ITER, accel) for accel in (False, True)]
    points = [(*with_setting(base_cfg, geo, "n_i", n_i), plain_accel) for n_i in n_i_list]
    if not points:
        raise ConfigError("sweep needs at least one value")
    rows = []
    with closing(
        _realizations(_study_task, points, n_channels, seed, (_STUDY_SALT,), workers)
    ) as realizations:
        for counts, (cfg, *_) in zip(realizations, points):
            means = np.mean(np.array(counts, dtype=float), axis=0)
            rows.append(IterationStudyRow(cfg.n_i, *(float(m) for m in means)))
    return rows
