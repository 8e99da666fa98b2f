"""Monte-Carlo experiment engine: scheme comparisons, exact conditional SER, sweeps.

This module computes and returns plain results; formatting them as
tables, CSV or JSON is the command line's job (``irsbf.cli``).

An operating point is a ``SystemConfig`` and a ``Geometry``.  ``SETTINGS``
is the one table of the names that set it, with their units (powers in
dBW) and types; ``with_setting`` applies one name and value.  Config-file
lines (``load_setup``) and the grid points of the sweeps and the
iteration study (``sweep_points``, their one grid builder) go through it.

A sweep takes the paper's three inputs as plain values: the channel
statistics (configuration and geometry), the distortion levels, and the
phase set as ``bits`` (None for continuous phases).  Every sweep point
reports the four designed schemes, plus the relaxation bound when
``bound`` is set, always in the order of ``Scheme``.  A realization
designs the nonrobust reflection from its random start and continues it
to the robust one (``_design_rows``); the iteration study runs both from
the one random start, so that its iteration counts share a start.  A
chunk's designs stay lifted vectors, phases read off them as one array
(``model.reflect_phases``) and rounded as one (``mm.quantize_phases``), and
its schemes are scored as array operations over its rows, with no beam
built: a robust scheme from its objective in closed form (the MM run's
last, or the kept quantized profile's), a nonrobust one by the SNR of its
mismatched beam, and the no-IRS schemes from the direct column.

Determinism contract: sweeps, the iteration study and the bound check
run their realizations through one loop, ``_realizations``, and draw
each one by ``_draw`` from its own generator.  Each point has a seed
key, a tuple of integers, and realization r of a point with key k is
seeded by ``child_seed(seed, *k, r)``, a 64-bit mixing of the master
seed, the key and r: a sweep keys point i as (i,), the study as
(``_STUDY_SALT``, i), and the bound check its one point as (0xB0,).
A task is a chunk of up to ``_CHUNK`` consecutive realizations of one
point, at every surface size.  It draws them as one array (``_draw``),
each realization still from its own generator, and its MM runs step in
lockstep as stacks (``_run_rows``) on that array: a sweep or bound-check
task designs its chunk's nonrobust reflections as one stack and the
robust ones as another, and a study task runs each of its four kinds of
run as one stack.  The chunk size never depends on ``--workers``, and
no realization's result depends on its chunk: each draw is bit for bit
its own, and each row of a stack is bit for bit its own ``run_mm``.
Workers therefore produce identical results regardless of how tasks are
distributed, and the aggregation is an ordered reduction.  A degenerate
channel is the only failure a realization reports, and it fails that
realization alone.
"""

from __future__ import annotations

import enum
import logging
import math
from contextlib import closing
from dataclasses import dataclass, replace

import numpy as np

from .channels import Geometry, complex_gaussian, link_gains
from .mm import MMSettings, _project_unit, _times, check_bits, quantize_phases, run_mm, run_stacked_mm
from .model import ConfigError, DegenerateChannelError, SystemConfig, lift_phases, reflect_phases
from .sdr import solve_sdr
from .txbf import matched_filter_snr, psi_tilde_from_powers, snr_from_psi_tilde

# Not called here, since _draw and _design_rows do their arithmetic on a
# whole chunk: the benchmark's tracer (bench/tracing.py) wraps these names
# until the library owns its spans (ROADMAP item 2).
from .channels import generate_channels  # noqa: F401
from .model import build_composite  # noqa: F401
from .txbf import evaluate_snr, optimal_beam_from_v, optimal_transmit_beam, psi_tilde  # noqa: F401

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
    ``check_run`` checks its count and seed here, and ``sweep_points`` its
    values against the operating point when it runs.
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
        check_run(self.n_channels, seed=self.seed)
        if self.n_symbols < 0:
            raise ConfigError(f"n_symbols must be >= 0, got {self.n_symbols}")
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


# Realizations of one point per task, at most.  A task draws them as one
# chunk (``_draw``) and runs their MM designs as stacks (``_run_rows``);
# the split does not depend on ``--workers``, and no realization's result
# depends on its chunk.
_CHUNK = 32
# Fewer rows than this run one at a time through ``run_mm``.  A whole run
# of two rows measures no slower as a stack (ROADMAP item 8), but the
# benchmark's tracer test counts ``run_mm`` calls on 2-row chunks until
# the library owns its spans (ROADMAP item 2).
_MIN_STACK = 3


def _run_rows(inits, psis, cfg: SystemConfig, settings: MMSettings) -> list:
    """MM from each init on its composite, one ``MMResult`` each, bit for bit ``run_mm``'s.

    The rows run as one stack (``run_stacked_mm``, which uses an array
    ``psis`` in place and leaves it as it was), or one at a time through
    ``run_mm`` when there are fewer than ``_MIN_STACK``.
    """
    if len(psis) < _MIN_STACK:
        return [run_mm(init, psi, cfg, settings) for init, psi in zip(inits, psis)]
    return run_stacked_mm(inits, psis, cfg, settings)


def _design_rows(
    psis: np.ndarray, inits: np.ndarray, cfg: SystemConfig, settings: MMSettings, bits, bound: bool
) -> list:
    """Design and score the four beam schemes on each realization of a chunk.

    ``psis`` and ``inits`` hold each realization's composite channel and
    MM init (``_draw``).  Returns, in that order, each realization's
    schemes' (snr, lifted, iterations) in ``Scheme`` order with the
    relaxation bound (``UpperBoundResult``, or None without ``bound``), or
    the ``DegenerateChannelError`` that fails it alone: a realization
    without a direct link fails before any MM run, and one whose designed
    effective channel has no received power fails after.  ``lifted`` is
    the lifted vector of the phases of the run's last iterate
    (``model.reflect_phases``), or of their quantized profile, and None
    without an IRS.

    The nonrobust designs run from their inits as one stack, and the robust
    designs as another (``_run_rows``); the inits are dropped in between.
    The robust design is the kappa = 0 problem continued to the true
    distortion levels: its run starts at the nonrobust design, so its
    iterations count only the continuation.  MM never lowers the
    objective, so with continuous phases the robust SNR dominates the
    nonrobust one per realization, not just on average.  With ``bits``
    the rounding can reorder the two, so the robust scheme keeps the
    better of both quantized profiles under the true distortion levels.

    The SNRs are array operations over the rows, and no beam is built.  A
    robust scheme uses the optimal beam of its reflection, so its SNR is
    ``snr_from_psi_tilde`` of its objective: the robust run's last, the
    kept quantized profile's, or the direct column's.  A nonrobust scheme
    uses the matched filter at the feasible norm sqrt(p_tilde), since the
    hardware consumes the distortion overhead no matter what the designer
    assumed (``matched_filter_snr``).

    The bound is certified from any start, but its ascent starts from the
    robust run's design before quantization: the best unit-modulus point
    at hand.
    """
    direct = np.abs(psis[:, :, -1]) ** 2
    live = np.flatnonzero(direct.any(axis=1)).tolist()
    out = [DegenerateChannelError("degenerate channel: composite vector is zero") for _ in psis]
    if not live:
        return out
    if len(live) < len(psis):
        # np.stack keeps each composite's memory layout
        psis, inits, direct = np.stack([psis[k] for k in live]), inits[live], direct[live]
    runs_n = _run_rows(inits, psis, _nonrobust_config(cfg), settings)
    phases_n = reflect_phases(np.array([res.lifted for res in runs_n]))
    # the nonrobust iterates and the inits are freed before the robust runs start
    iterations_n = [res.iterations for res in runs_n]
    del runs_n, inits
    lifted_n = lift_phases(phases_n)
    runs_r = _run_rows(lifted_n, psis, cfg, settings)
    phases_r = reflect_phases(np.array([res.lifted for res in runs_r]))
    lifted_r = bound_starts = lift_phases(phases_r)
    if bits is not None:
        lifted_r, lifted_n = (lift_phases(quantize_phases(p, bits)) for p in (phases_r, phases_n))
    received = np.abs(_times(psis, lifted_n, True)) ** 2
    if bits is None:
        robust = np.array([res.objectives[-1] for res in runs_r])
    else:
        robust = psi_tilde_from_powers(np.abs(_times(psis, lifted_r, True)) ** 2, cfg)
        nonrobust = psi_tilde_from_powers(received, cfg)
        lifted_r = np.where((nonrobust > robust)[:, None], lifted_n, lifted_r)
        robust = np.maximum(robust, nonrobust)
    ok = received.any(axis=1) & (robust > 0.0)
    if not ok.all():
        # finite placeholders for the failed rows, which are skipped below
        robust, received = np.where(ok, robust, 0.0), np.where(ok[:, None], received, 1.0)
    snrs = zip(*(x.tolist() for x in (
        snr_from_psi_tilde(robust, cfg), matched_filter_snr(received, cfg),
        snr_from_psi_tilde(psi_tilde_from_powers(direct, cfg), cfg),
        matched_filter_snr(direct, cfg),
    )))
    for j, (k, snr, res_r, iters_n) in enumerate(zip(live, snrs, runs_r, iterations_n)):
        if ok[j]:
            designs = dict(zip(Scheme, zip(snr, (lifted_r[j], lifted_n[j], None, None),
                                           (res_r.iterations, iters_n, None, None))))
            ub = solve_sdr(psis[j], cfg, init=bound_starts[j]) if bound else None
            out[k] = (designs, ub)
    return out


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


def _draw(cfg: SystemConfig, geo: Geometry, seeds) -> tuple[np.ndarray, np.ndarray]:
    """The composite channels and MM inits of one realization per seed, as two stacks.

    Realization k is ``psis[k]``, n_s x (n_i + 1), and ``inits[k]``, bit
    for bit ``build_composite(generate_channels(rng, cfg, geo))`` followed
    by ``random_lifted_init(rng, cfg.n_i)`` with ``rng`` seeded by
    ``seeds[k]``: one ``standard_normal`` call fills its row of one block
    with the stream of their eight calls (h_si, h_id, h_sd, then the init;
    real parts before imaginary), and the arithmetic runs once over the
    chunk, elementwise as there, straight into the composites.  Each
    composite keeps ``build_composite``'s memory layout, on which the
    rounding of its products depends: Fortran order when both of its
    dimensions exceed one, else C order.
    """
    n_s, n_i = cfg.n_s, cfg.n_i
    count = len(seeds)
    sizes = (n_i * n_s, n_i, n_s, n_i + 1)
    block = np.empty((count, 2 * sum(sizes)))
    for row, seed in zip(block, seeds):
        np.random.default_rng(seed).standard_normal(out=row)
    re_si, im_si, re_id, im_id, re_sd, im_sd, re_0, im_0 = np.split(
        block, np.cumsum(np.repeat(sizes, 2))[:-1], axis=1
    )
    inits = _project_unit(re_0 + 1j * im_0, 1.0 + 0.0j, rows=True)
    # Geometry checks that the gains are finite, so the entries are too
    g_si, g_id, g_sd = link_gains(geo)
    if n_s > 1 and n_i > 1:
        psis = np.empty((count, n_i + 1, n_s), complex).swapaxes(1, 2)
    else:
        psis = np.empty((count, n_s, n_i + 1), complex)
    # the reflected columns, transposed: h_si, then conj(h_si) h_id in place
    reflect = psis[:, :, :n_i].swapaxes(1, 2)
    complex_gaussian(re_si.reshape(count, n_i, n_s), im_si.reshape(count, n_i, n_s), g_si, reflect)
    h_id = complex_gaussian(re_id, im_id, g_id)
    np.conjugate(reflect, out=reflect)
    np.multiply(reflect, h_id[:, :, None], out=reflect)
    complex_gaussian(re_sd, im_sd, g_sd, psis[:, :, n_i])
    return psis, inits


def _realization_stats(args) -> dict:
    """The result of one designed realization of a sweep point.

    ``args`` is (n_symbols, design), with the design of ``_design_rows``.
    Returns per-scheme (snr, ser, iterations) tuples keyed by scheme name
    in ``Scheme`` order, the bound's last and only with a bound; or
    {'failed': msg} for a degenerate channel, the only failure a
    realization may have: the point's configuration was checked when it
    was built, so any other error is a fault and propagates.
    """
    (n_symbols, design) = args
    if isinstance(design, DegenerateChannelError):
        return {"failed": f"{type(design).__name__}: {design}"}
    designs, ub = design
    out = {}
    for scheme, (snr, _, iterations) in designs.items():
        ser = simulate_ser(snr, n_symbols) if n_symbols > 0 else None
        out[scheme.value] = (snr, ser, iterations)
    if ub is not None:
        out[Scheme.UPPER_BOUND.value] = (ub.bound_snr, None, None)
    return out


def _sweep_task(args) -> list:
    """Worker body: draw, design and score each realization of a chunk of one sweep point.

    ``args`` is the point's (cfg, geo, settings, bits, n_symbols, bound)
    and the tuple of the chunk's seeds; the results keep their order.
    """
    (cfg, geo, settings, bits, n_symbols, bound, seeds) = args
    # the inits are handed on, not kept (CPython >= 3.11), so _design_rows frees them
    drawn = list(_draw(cfg, geo, seeds))
    designs = _design_rows(drawn[0], drawn.pop(), cfg, settings, bits, bound)
    return [_realization_stats((n_symbols, design)) for design in designs]


def check_run(n_channels: int, workers: int = 1, seed: int = 0) -> None:
    """Reject a count below 1 or a seed outside [0, 2**64), as every run does before it starts."""
    if n_channels < 1:
        raise ConfigError(f"n_channels must be >= 1, got {n_channels}")
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    if not (0 <= seed <= _MASK64):
        raise ConfigError("seed must fit in 64 unsigned bits")


def sweep_points(variable: str, values, base_cfg: SystemConfig, geo: Geometry) -> list:
    """The one grid builder: each value's (cfg, geo), so a bad value fails before any work.

    At least one value is needed.  The sweeps, the iteration study and the
    command line's checks before it opens ``--out`` all build grids here.
    """
    points = [with_setting(base_cfg, geo, variable, value) for value in values]
    if not points:
        raise ConfigError("sweep needs at least one value")
    return points


def _realizations(task, points, n_channels: int, seed: int, keys, workers: int):
    """The one realization loop: yields each point's task results in realization order.

    Its users are the sweeps, the iteration study and the bound check.
    ``keys`` holds one seed key per point, a tuple of integers, and
    realization r of the point with key k is drawn from
    ``child_seed(seed, *k, r)``.  A task takes ``(*points[i], seeds)``,
    the seeds of a chunk of up to ``_CHUNK`` consecutive realizations of
    one point, and returns their results in order; the split never
    depends on ``workers``.
    With one worker the tasks run in this process, point by point.
    Otherwise one process pool serves the run: every point's tasks are
    submitted at once, so the points overlap, and each point is yielded as
    soon as it and the points before it are done.  When the loop stops
    early (a fault, or a caller that stops reading), the tasks not yet
    started are cancelled.  The counts and the seed are checked
    (``check_run``) before the first task runs.
    """
    check_run(n_channels, workers, seed)
    tasks = []
    for point, key in zip(points, keys, strict=True):
        seeds = tuple(child_seed(seed, *key, r) for r in range(n_channels))
        tasks.append([(*point, seeds[k:k + _CHUNK]) for k in range(0, n_channels, _CHUNK)])
    if workers == 1:
        for point_tasks in tasks:
            yield [x for part in map(task, point_tasks) for x in part]
        return
    # imported here: it loads multiprocessing, which one worker never needs
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [[pool.submit(task, t) for t in point_tasks] for point_tasks in tasks]
        try:
            for point_futures in futures:
                yield [x for f in point_futures for x in f.result()]
        finally:
            for point_futures in futures:
                for f in point_futures:
                    f.cancel()


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
    Any other exception propagates.  The grid (``sweep_points``) and the
    counts and seed (``check_run``) are checked before the first point
    runs.  ``on_point`` is invoked with each finished SimResult, letting
    callers persist partial output.
    """
    settings = MMSettings(epsilon=spec.epsilon)
    points = [(*point, settings, spec.bits, spec.n_symbols, spec.bound)
              for point in sweep_points(spec.variable, spec.values, base_cfg, geo)]
    results = []
    with closing(
        _realizations(
            _sweep_task, points, spec.n_channels, spec.seed, [(i,) for i in range(len(points))],
            workers,
        )
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


def _bound_check_task(args) -> list:
    """Worker body: each realization of a chunk's robust design against its relaxation bound.

    ``args`` is (cfg, geo) and the tuple of the chunk's seeds.  Returns,
    per realization in order, the robust design's ``psi_tilde`` on its own
    composite with its ``UpperBoundResult``, or the
    ``DegenerateChannelError`` that fails it.
    """
    (cfg, geo, seeds) = args
    psis, inits = _draw(cfg, geo, seeds)
    designs = _design_rows(psis, inits, cfg, MMSettings(), None, True)
    return [
        design if isinstance(design, DegenerateChannelError)
        else (psi_tilde_from_powers(np.abs(psi @ design[0][Scheme.ROBUST_IRS][1]) ** 2, cfg),
              design[1])
        for psi, design in zip(psis, designs)
    ]


def run_bound_check(cfg: SystemConfig, geo: Geometry, n_channels: int, seed: int) -> list:
    """The continuous-phase robust design of each channel against its relaxation bound.

    Channel r is the realization drawn from ``child_seed(seed, 0xB0, r)``,
    designed as a sweep designs it, at the default ``MMSettings``, in one
    process.  Returns, per channel in order, the design's ``psi_tilde``
    with its ``UpperBoundResult``, or the ``DegenerateChannelError`` of a
    channel without a beam direction.
    """
    (rows,) = _realizations(_bound_check_task, [(cfg, geo)], n_channels, seed, [(0xB0,)], 1)
    return rows


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


def _study_task(args) -> list:
    """Worker body: the four iteration counts of each realization of a chunk of one point.

    Each of the four runs of the chunk's realizations goes through
    ``_run_rows`` as one stack.
    """
    (cfg, geo, plain_accel, seeds) = args
    psis, inits = _draw(cfg, geo, seeds)
    # every run starts at init, not continued as in _design_rows: the study
    # compares iteration counts from one start
    columns = [
        [res.iterations for res in _run_rows(inits, psis, run_cfg, settings)]
        for run_cfg in (cfg, _nonrobust_config(cfg))
        for settings in plain_accel
    ]
    return list(zip(*columns))


def run_iteration_study(
    n_i_list,
    base_cfg: SystemConfig,
    geo: Geometry,
    seed: int,
    n_channels: int = 100,
    epsilon: float = 1e-5,
    workers: int = 1,
    on_point=None,
) -> list[IterationStudyRow]:
    """Average iterations to convergence, robust/nonrobust x plain/accelerated.

    Accelerated counts are outer cycles (two fixed-point maps each), the
    same bookkeeping used by ``run_mm``.  ``epsilon``, the surface sizes
    (``sweep_points`` of n_i) and the counts and seed (``check_run``) are
    checked before the first realization runs.  ``on_point`` is invoked
    with each finished row, letting callers persist partial output.
    """
    plain_accel = [MMSettings(epsilon, _STUDY_MAX_ITER, accel) for accel in (False, True)]
    points = [(*point, plain_accel) for point in sweep_points("n_i", n_i_list, base_cfg, geo)]
    rows = []
    with closing(
        _realizations(
            _study_task, points, n_channels, seed,
            [(_STUDY_SALT, i) for i in range(len(points))], workers,
        )
    ) as realizations:
        for counts, (cfg, *_) in zip(realizations, points):
            means = np.mean(np.array(counts, dtype=float), axis=0)
            row = IterationStudyRow(cfg.n_i, *(float(m) for m in means))
            rows.append(row)
            if on_point is not None:
                on_point(row)
    return rows
