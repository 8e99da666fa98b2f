"""Reflect-beamforming optimizer over the lifted unit-modulus vector.

``run_mm`` runs the one optimizer loop.  Each step minorizes the separable
objective with a tight linear-plus-constant surrogate built at the previous
iterate; the surrogate's maximizer over the torus takes the phases of a
single matrix-vector product.  The quadratic coupling term is bounded by
shifting with the dominant eigenvalue of a positive semidefinite coupling
matrix, computed exactly by ``eigvalsh`` on an n_s x n_s Gram matrix, so
the objective never decreases from step to step.  With
``MMSettings.accelerate`` each pass of the loop is a SQUAREM cycle
(Varadhan & Roland, Scand. J. Stat. 2008) instead: two steps, a squared
extrapolation, and backtracking that keeps the sequence monotone.
``surrogate_value`` evaluates the minorizer itself, for checking.

The loop also ascends a Burer-Monteiro factor V of the relaxation
X = V V^H (one unit-norm row per element), which ``sdr`` uses: the same
surrogate coefficient applies with the per-antenna power taken as a row
norm, and rows are normalized where phases are taken.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    CompositeChannel,
    ConfigError,
    EvalResult,
    PhaseConstraint,
    PhaseKind,
    ReflectConfig,
    SystemConfig,
    check_unit_modulus,
    extract_reflect,
)
from .txbf import _row_power, psi_tilde_from_v, snr_at_optimal_beam_from_v

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
        if not (self.epsilon > 0.0):
            raise ConfigError(f"epsilon must be positive, got {self.epsilon}")
        if self.max_iter < 1:
            raise ConfigError(f"max_iter must be >= 1, got {self.max_iter}")


def lifted_objective(theta_tilde: np.ndarray, psi: CompositeChannel, cfg: SystemConfig) -> float:
    """Objective of the lifted problem; equals the reflect objective after extraction.

    At a factor (one row per element) it is the relaxed objective at V V^H.
    """
    tt = np.asarray(theta_tilde, dtype=complex)
    return psi_tilde_from_v(psi.psi @ (tt if tt.ndim == 2 else tt.ravel()), cfg)


def lambda_max_power_iteration(omega: np.ndarray) -> float:
    """Largest eigenvalue of a Hermitian matrix, by an exact eigensolve.

    Returns 0.0 for the empty and the all-zero matrix.  This is no longer a
    power iteration: the name stays only as the hook that the benchmark's
    tracer wraps for the ``mm.lambda_max`` span, and goes when the library
    owns its spans (ROADMAP item 2).
    """
    omega = np.asarray(omega)
    if omega.shape[0] == 0 or not np.any(omega):
        return 0.0
    return float(np.linalg.eigvalsh(omega)[-1])


def _per_row(x: np.ndarray, like: np.ndarray) -> np.ndarray:
    """A per-row array shaped to broadcast against a vector or a factor."""
    return x if like.ndim == 1 else x[:, None]


def _mm_quantities(
    tt0: np.ndarray,
    psi: CompositeChannel,
    cfg: SystemConfig,
    gram: np.ndarray,
):
    """Per-antenna weights and shifted-coupling eigenvalue at the expansion point.

    Returns (v0, xi, d, lam) with v0 the effective channel at tt0, xi the
    diagonal weight, d the diagonal of the coupling matrix factor, and lam
    the (margin-inflated) dominant eigenvalue of the coupling matrix.
    ``gram`` is psi.psi @ psi.psi^H, which does not change between steps.
    """
    m = psi.psi
    v0 = m @ tt0
    a, c = cfg.objective_coeffs
    xi = a * _row_power(v0) + c
    if a == 0.0:
        return v0, xi, np.zeros_like(xi), 0.0
    d = _row_power(v0 / _per_row(xi, v0))
    # lambda_max of m^H diag(d) m equals that of the small Gram
    # sqrt(d) (m m^H) sqrt(d), the same for a phase vector and a factor.
    sd = np.sqrt(d)
    lam = lambda_max_power_iteration(sd[:, None] * gram * sd[None, :])
    lam = max(lam, 0.0) * (1.0 + _LAMBDA_MARGIN)
    return v0, xi, d, lam


def _mm_alpha(tt0, psi, cfg, v0, xi, d, lam):
    """Surrogate linear coefficient: one application of the surrogate matrix."""
    m = psi.psi
    a, _ = cfg.objective_coeffs
    alpha = m.conj().T @ (v0 / _per_row(xi, v0))
    if a > 0.0:
        alpha = alpha - a * (m.conj().T @ (_per_row(d, v0) * v0) - lam * tt0)
    return alpha


def _phases_of(alpha: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Entrywise unit-modulus maximizer; zero coefficients keep the old phase.

    For a factor the maximizer normalizes each row instead.
    """
    if alpha.ndim == 2:
        return _project_unit(alpha, keep)
    out = np.where(alpha != 0.0, np.exp(1j * np.angle(alpha)), keep)
    return out


def _mm_map(tt0, psi, cfg, gram):
    """One minorize-maximize step: the maximizer of the surrogate built at tt0."""
    v0, xi, d, lam = _mm_quantities(tt0, psi, cfg, gram)
    return _phases_of(_mm_alpha(tt0, psi, cfg, v0, xi, d, lam), tt0)


def surrogate_value(
    tt: np.ndarray,
    tt0: np.ndarray,
    psi: CompositeChannel,
    cfg: SystemConfig,
) -> float:
    """Minorizer of the lifted objective, expanded at ``tt0`` and evaluated at ``tt``.

    Lower-bounds the objective everywhere on the torus, touches it at the
    expansion point, and matches its first-order behavior there.  Its
    linear term is Re<alpha, tt> with ``alpha`` the coefficient whose phases
    the optimizer step takes.
    """
    tt = np.asarray(tt, dtype=complex).ravel()
    tt0 = np.asarray(tt0, dtype=complex).ravel()
    a, _ = cfg.objective_coeffs
    v0, xi, d, lam = _mm_quantities(tt0, psi, cfg, psi.psi @ psi.psi.conj().T)
    alpha = _mm_alpha(tt0, psi, cfg, v0, xi, d, lam)
    term1 = 2.0 * float(np.real(np.vdot(alpha, tt)))
    term2 = -2.0 * a * tt0.shape[0] * lam
    term3 = 2.0 * a * float(np.sum(d * np.abs(v0) ** 2)) - float(np.sum(np.abs(v0) ** 2 / xi))
    return term1 + term2 + term3


def _project_unit(vec: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    """Scale each entry (each row of a factor) to unit modulus; zeros take ``fallback``."""
    mags = np.abs(vec) if vec.ndim == 1 else np.linalg.norm(vec, axis=1, keepdims=True)
    out = np.where(mags > 0.0, vec / np.where(mags > 0.0, mags, 1.0), fallback)
    return out


def _squarem_cycle(tt, psi, cfg, gram):
    """One accelerated cycle: two MM maps plus a safeguarded extrapolation.

    Extrapolates through the two maps with a negative squared step length,
    reprojects onto the torus, and backtracks the step toward the plain
    composition until the objective does not decrease.  The returned
    objective is therefore never below the plain two-step value, so
    monotonicity of the outer sequence is preserved; at a fixed point the
    cycle degenerates to the plain steps.
    """
    x1 = _mm_map(tt, psi, cfg, gram)
    x2 = _mm_map(x1, psi, cfg, gram)
    obj2 = lifted_objective(x2, psi, cfg)
    r = x1 - tt
    v = x2 - x1 - r
    nr = np.linalg.norm(r)
    nv = np.linalg.norm(v)
    if nr == 0.0 or nv == 0.0:
        return x2, obj2
    alpha = -nr / nv
    for _ in range(60):
        if abs(alpha + 1.0) < 1e-4:
            break
        cand = _project_unit(tt - 2.0 * alpha * r + alpha**2 * v, fallback=x2)
        obj_c = lifted_objective(cand, psi, cfg)
        if obj_c >= obj2:
            return cand, obj_c
        alpha = (alpha - 1.0) / 2.0
    return x2, obj2


@dataclass(frozen=True)
class MMResult:
    """Outcome of a full optimizer run."""

    reflect: ReflectConfig
    result: EvalResult
    iterations: int
    converged: bool
    objectives: tuple


def random_lifted_init(rng: np.random.Generator, n_i: int) -> np.ndarray:
    """Entrywise-normalized random complex vector of length n_i + 1."""
    z = rng.standard_normal(n_i + 1) + 1j * rng.standard_normal(n_i + 1)
    mags = np.abs(z)
    z = np.where(mags > 0.0, z / np.where(mags > 0.0, mags, 1.0), 1.0 + 0.0j)
    return z


def _ascend(tt, psi, cfg, settings):
    """The optimizer loop from ``tt``, a phase vector or a unit-row factor.

    Returns the last iterate, the objective after each iteration (the
    start first) and whether the relative change fell below
    ``settings.epsilon`` within ``settings.max_iter`` iterations.
    """
    gram = psi.psi @ psi.psi.conj().T
    obj = lifted_objective(tt, psi, cfg)
    objectives = [obj]
    converged = False
    for _ in range(settings.max_iter):
        if settings.accelerate:
            tt_new, obj_new = _squarem_cycle(tt, psi, cfg, gram)
        else:
            tt_new = _mm_map(tt, psi, cfg, gram)
            obj_new = lifted_objective(tt_new, psi, cfg)
        objectives.append(obj_new)
        delta = abs(obj_new - obj) / max(1.0, abs(obj))
        tt, obj = tt_new, obj_new
        if delta < settings.epsilon:
            converged = True
            break
    return tt, objectives, converged


def run_mm(
    init: np.ndarray,
    psi: CompositeChannel,
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
    tt, objectives, converged = _ascend(check_unit_modulus(init).copy(), psi, cfg, settings)
    reflect = extract_reflect(tt)
    v = psi.psi @ tt / tt[-1]
    pt = psi_tilde_from_v(v, cfg)
    result = EvalResult(
        snr=snr_at_optimal_beam_from_v(v, cfg),
        psi_tilde_val=pt,
    )
    return MMResult(
        reflect=reflect,
        result=result,
        iterations=len(objectives) - 1,
        converged=converged,
        objectives=tuple(objectives),
    )


def quantize_phases(theta: ReflectConfig, pc: PhaseConstraint) -> ReflectConfig:
    """Project each phase onto the nearest discrete level under angular distance.

    Distances wrap around the circle; exact ties go to the smaller level.
    """
    if pc.kind is not PhaseKind.DISCRETE:
        raise ConfigError("quantize_phases requires a discrete phase constraint")
    levels = 2.0 * np.pi * np.arange(pc.levels) / pc.levels
    diff = theta.phases[:, None] - levels[None, :]
    wrapped = np.abs((diff + np.pi) % (2.0 * np.pi) - np.pi)
    picks = np.argmin(wrapped, axis=1)
    return ReflectConfig.from_phases(levels[picks])
