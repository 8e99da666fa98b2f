"""Reflect-beamforming optimizer over the lifted unit-modulus vector.

``run_mm`` runs the one optimizer loop.  Each step minorizes the separable
objective with a tight linear-plus-constant surrogate built at the previous
iterate; the surrogate's maximizer over the torus is the unit projection
of its linear coefficient, which takes a single matrix-vector product.
The quadratic coupling term is bounded by shifting with the dominant
eigenvalue of a positive semidefinite coupling matrix, computed exactly on
an n_s x n_s Gram matrix by ``_top_eigenvalue``, which calls the LAPACK
gufunc behind ``np.linalg.eigvalsh`` directly, so the objective never
decreases from step to step.  Each iterate is evaluated once: the
effective channel Psi tt, the per-antenna weights and the objective
computed there serve the convergence test, the SQUAREM acceptance test and
the next step alike, so a plain step costs two products with Psi.  With
``MMSettings.accelerate`` each pass of the loop is a SQUAREM cycle
(Varadhan & Roland, Scand. J. Stat. 2008) instead: two steps, a squared
extrapolation, and backtracking that keeps the sequence monotone.
``run_mm`` returns the objective of each iterate; the last is the
objective at the returned reflection, and ``txbf.snr_from_psi_tilde`` maps
it to the SNR of the optimal beam, so no beam is built to score a design.
The channel argument ``psi`` of every function here is the plain
n_s x (n_i + 1) composite array of ``model.build_composite``;
``quantize_phases`` rounds a continuous solution to the 2**bits levels of
a b-bit phase set.

The loop also ascends a Burer-Monteiro factor V of the relaxation
X = V V^H (one unit-norm row per element), which ``sdr`` uses: the same
surrogate coefficient applies with the per-antenna power taken as a row
norm, and the unit projection normalizes rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .model import ConfigError, ReflectConfig, SystemConfig, check_unit_modulus, extract_reflect
from .txbf import _row_power, psi_tilde_from_powers

# Multiplicative safety margin applied to the coupling eigenvalue so the
# shifted coupling matrix stays dominated despite the eigensolver's
# rounding.  The surrogate's tightness and gradient at the expansion point
# are independent of the shift, so this only strengthens the minorization.
_LAMBDA_MARGIN = 1e-6


@dataclass(frozen=True)
class MMSettings:
    """Knobs of the iterative optimizer."""

    epsilon: float = 1e-5
    max_iter: int = 5000
    accelerate: bool = True

    def __post_init__(self):
        if not (0.0 < self.epsilon < math.inf):
            raise ConfigError(f"epsilon must be positive and finite, got {self.epsilon}")
        if self.max_iter < 1:
            raise ConfigError(f"max_iter must be >= 1, got {self.max_iter}")


def lifted_objective(theta_tilde: np.ndarray, psi: np.ndarray, cfg: SystemConfig) -> float:
    """Objective of the lifted problem; equals the reflect objective after extraction.

    At a factor (one row per element) it is the relaxed objective at V V^H.
    """
    tt = np.asarray(theta_tilde, dtype=complex)
    return psi_tilde_from_powers(_row_power(psi @ (tt if tt.ndim == 2 else tt.ravel())), cfg)


def _top_eigenvalue(h: np.ndarray) -> float:
    """Largest eigenvalue of a nonempty Hermitian array, bit for bit as ``np.linalg.eigvalsh``.

    It calls the LAPACK gufunc that ``eigvalsh`` wraps (lower triangle,
    complex or double as ``eigvalsh`` picks them) without the wrapper's
    per-call checks, which cost more than the eigensolve at n_s = 4.  A NaN
    result raises ``LinAlgError``: a failed solve, on which ``eigvalsh``
    raises the same (numpy's default error state also warns of it, which
    ``eigvalsh`` suppresses), or a NaN that LAPACK passes through, which
    ``eigvalsh`` would return.
    """
    signature = "D->d" if h.dtype.kind == "c" else "d->d"
    top = float(_umath_linalg.eigvalsh_lo(h, signature=signature)[-1])
    if math.isnan(top):
        raise LinAlgError("Eigenvalues did not converge")
    return top


def lambda_max_power_iteration(omega: np.ndarray) -> float:
    """Largest eigenvalue of a Hermitian matrix, by an exact eigensolve.

    Returns 0.0 for the empty matrix; otherwise the eigenvalue comes from
    the LAPACK gufunc through ``_top_eigenvalue``, exactly 0.0 for the
    all-zero matrix.  This is no longer a power iteration: the name stays
    only as the hook that the benchmark's tracer wraps for the
    ``mm.lambda_max`` span, and goes when the library owns its spans
    (ROADMAP item 2).
    """
    omega = np.asarray(omega)
    if omega.shape[0] == 0:
        return 0.0
    return _top_eigenvalue(omega)


class _Run(NamedTuple):
    """Constants of one optimizer run: Psi, Psi^H, the Gram Psi Psi^H and (a, c)."""

    m: np.ndarray
    mh: np.ndarray
    gram: np.ndarray
    a: float
    c: float


def _run_constants(psi: np.ndarray, cfg: SystemConfig) -> _Run:
    mh = psi.conj().T
    a, c = cfg.objective_coeffs
    return _Run(psi, mh, psi @ mh, a, c)


def _evaluate(tt: np.ndarray, run: _Run):
    """The one evaluation of an iterate: (v, xi, obj).

    ``v = Psi tt`` is the effective channel (one row per source antenna for
    a factor), ``xi = a |v|^2 + c`` the per-antenna weight, and ``obj`` the
    lifted objective sum |v|^2 / xi, computed exactly as
    ``lifted_objective`` computes it.
    """
    v = run.m @ tt
    q = np.abs(v) ** 2
    if q.ndim == 2:
        q = q.sum(axis=1)
    xi = run.a * q + run.c
    return v, xi, float((q / xi).sum())


def _surrogate_coefficient(tt0: np.ndarray, v0: np.ndarray, xi: np.ndarray, run: _Run):
    """Linear coefficient of the minorizer built at ``tt0``: (alpha, d, lam).

    With u = v0 / xi, ``d`` = |u|^2 per antenna is the diagonal of the
    coupling matrix factor, ``lam`` the margin-inflated dominant eigenvalue
    of the coupling matrix Psi^H diag(d) Psi, and
    alpha = Psi^H (u - a d v0) + a lam tt0, one matrix-vector product.
    """
    factor = v0.ndim == 2
    u = v0 / (xi[:, None] if factor else xi)
    if run.a == 0.0:
        return run.mh @ u, np.zeros_like(xi), 0.0
    d = np.abs(u) ** 2
    if factor:
        d = d.sum(axis=1)
    lam = 0.0
    if d.any():
        # lambda_max of m^H diag(d) m equals that of the small Gram
        # sqrt(d) (m m^H) sqrt(d), the same for a phase vector and a factor.
        sd = np.sqrt(d)
        lam = lambda_max_power_iteration(sd[:, None] * run.gram * sd[None, :])
        lam = max(lam, 0.0) * (1.0 + _LAMBDA_MARGIN)
    ad = run.a * (d[:, None] if factor else d)
    alpha = run.mh @ (u - ad * v0) + (run.a * lam) * tt0
    return alpha, d, lam


def _project_unit(vec: np.ndarray, fallback) -> np.ndarray:
    """Scale each entry (each row of a factor) to unit modulus; zeros take ``fallback``.

    This is the surrogate's maximizer over the torus (over unit-norm rows
    for a factor) when ``vec`` is its linear coefficient.
    """
    if vec.ndim == 1:
        mags = np.abs(vec)
    else:
        # the body of np.linalg.norm(vec, axis=1, keepdims=True), bit for bit,
        # without its per-call dispatch
        mags = np.sqrt(np.add.reduce((vec.conj() * vec).real, axis=1, keepdims=True))
    if mags.all():
        return vec / mags
    return np.where(mags > 0.0, vec / np.where(mags > 0.0, mags, 1.0), fallback)


def _step(tt0: np.ndarray, ev, run: _Run) -> np.ndarray:
    """One minorize-maximize step from ``tt0``, whose evaluation is ``ev``.

    Zero coefficients keep the old entry.
    """
    return _project_unit(_surrogate_coefficient(tt0, ev[0], ev[1], run)[0], tt0)


def _squarem_cycle(tt, ev, run):
    """One accelerated cycle from ``tt``, whose evaluation is ``ev``.

    Takes two MM steps, extrapolates through them with a negative squared
    step length, reprojects onto the torus, and backtracks the step toward
    the plain composition until the objective does not decrease.  Returns
    the new iterate and its evaluation, whose objective is never below the
    plain two-step value, so monotonicity of the outer sequence is
    preserved; at a fixed point the cycle degenerates to the plain steps.
    """
    x1 = _step(tt, ev, run)
    x2 = _step(x1, _evaluate(x1, run), run)
    ev2 = _evaluate(x2, run)
    r = x1 - tt
    v = x2 - x1 - r
    nr = math.sqrt(np.vdot(r, r).real)
    nv = math.sqrt(np.vdot(v, v).real)
    if nr == 0.0 or nv == 0.0:
        return x2, ev2
    alpha = -nr / nv
    for _ in range(60):
        if abs(alpha + 1.0) < 1e-4:
            break
        cand = _project_unit(tt - 2.0 * alpha * r + alpha**2 * v, fallback=x2)
        ev_c = _evaluate(cand, run)
        if ev_c[2] >= ev2[2]:
            return cand, ev_c
        alpha = (alpha - 1.0) / 2.0
    return x2, ev2


@dataclass(frozen=True)
class MMResult:
    """Outcome of a full optimizer run; ``objectives[-1]`` is the objective at ``reflect``."""

    reflect: ReflectConfig
    iterations: int
    converged: bool
    objectives: tuple


def random_lifted_init(rng: np.random.Generator, n_i: int) -> np.ndarray:
    """Entrywise-normalized random complex vector of length n_i + 1."""
    z = rng.standard_normal(n_i + 1) + 1j * rng.standard_normal(n_i + 1)
    return _project_unit(z, 1.0 + 0.0j)


def _ascend(tt, run: _Run, settings: MMSettings):
    """The optimizer loop from ``tt``, a phase vector or a unit-row factor.

    Returns the last iterate, the objective after each iteration (the
    start first) and whether the relative change fell below
    ``settings.epsilon`` within ``settings.max_iter`` iterations.  Each
    iterate is evaluated once; that evaluation serves the convergence
    test, the SQUAREM acceptance test and the next step.  ``run`` holds
    the constants of the problem (``_run_constants``).
    """
    ev = _evaluate(tt, run)
    obj = ev[2]
    objectives = [obj]
    converged = False
    for _ in range(settings.max_iter):
        if settings.accelerate:
            tt, ev = _squarem_cycle(tt, ev, run)
        else:
            tt = _step(tt, ev, run)
            ev = _evaluate(tt, run)
        obj_new = ev[2]
        objectives.append(obj_new)
        delta = abs(obj_new - obj) / max(1.0, abs(obj))
        obj = obj_new
        if delta < settings.epsilon:
            converged = True
            break
    return tt, objectives, converged


def run_mm(
    init: np.ndarray,
    psi: np.ndarray,
    cfg: SystemConfig,
    settings: MMSettings = MMSettings(),
) -> MMResult:
    """Iterate the optimizer to a stationary reflection configuration.

    Stops when the relative objective change over one iteration (one
    accelerated cycle when ``settings.accelerate``) falls below
    ``settings.epsilon``, or flags non-convergence after
    ``settings.max_iter`` iterations.  The reflection matrix is read off
    the final lifted vector by dividing out the slack entry, which leaves
    the objective unchanged.
    """
    tt, objectives, converged = _ascend(
        check_unit_modulus(init).copy(), _run_constants(psi, cfg), settings
    )
    return MMResult(extract_reflect(tt), len(objectives) - 1, converged, tuple(objectives))


# Beyond this many bits, x = mod(phase, 2 pi) / step (below 2**bits) no
# longer holds the half-integers that the rounding rule compares against.
_MAX_BITS = 52


def check_bits(bits) -> None:
    """Reject a phase resolution other than None (continuous) or an integer in [1, 52]."""
    if bits is None:
        return
    if not (int(bits) == bits and bits >= 1):
        raise ConfigError(f"discrete phases need bits >= 1, got {bits}")
    if bits > _MAX_BITS:
        raise ConfigError(f"discrete phases need bits <= {_MAX_BITS}, got {bits}")


def quantize_phases(theta: ReflectConfig, bits: int) -> ReflectConfig:
    """Round each phase to the nearest of the levels 2 pi k / 2**bits, in O(n_i).

    With x = mod(phase, 2 pi) / (2 pi / 2**bits), the index is
    k = ceil(x - 1/2) mod 2**bits, the nearest level under angular distance.
    An exact tie (x a half-integer) goes to the lower index, and at the
    wrap (x = 2**bits - 1/2) to 2**bits - 1.
    """
    if bits is None:
        raise ConfigError("quantize_phases needs bits >= 1, got None")
    check_bits(bits)
    n_levels = 2 ** int(bits)
    x = np.mod(theta.phases, 2.0 * np.pi) / (2.0 * np.pi / n_levels)
    k = np.mod(np.ceil(x - 0.5), n_levels)
    return ReflectConfig(2.0 * np.pi * k / n_levels)
