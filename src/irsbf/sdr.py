"""Certified upper bound on the reflect objective over the elliptope.

Lifting the unit-modulus vector to X = tt tt^H and dropping the rank
constraint leaves the concave objective f(X) = sum q/(a q + c), with
q_m = (Psi X Psi^H)_mm, over the elliptope E of Hermitian PSD matrices with
unit diagonal.  Its maximum f* dominates every unit-modulus value.

``solve_sdr`` brackets f* from both sides.  The primal side is a
Burer-Monteiro factor X = V V^H with unit-norm rows, ascended from the
given phases by the optimizer loop of ``mm``; any such X is feasible, so
f(X) <= f*.  The dual side holds at any X: f depends on X only through q,
so its gradient is G = B^H B with B the n_s x (n_i+1) matrix
diag(sqrt(c) / (a q + c)) Psi, and by concavity
f* <= f(X) + max_E <G, X'> - <G, X>.  MaxCut-style weak duality bounds the
maximum by t sum(y) for any y > 0, where t = lambda_max(B diag(1/y) B^H) is
an n_s x n_s eigenproblem solved exactly by the LAPACK gufunc behind
``np.linalg.eigvalsh``, called directly through ``mm._top_eigenvalue``.
The bound is therefore certified from any start and needs no
eigendecomposition of an (n_i+1)-square matrix.
X itself is never formed: q is the row power of Psi V, read from the factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mm import MMSettings, _ascend, _evaluate, _project_unit, _run_constants, _top_eigenvalue
from .model import SystemConfig, check_unit_modulus
from .txbf import snr_from_psi_tilde

# Relative inflation of the exactly computed lambda_max: covers the rounding
# of the n_s x n_s matrix and of its eigenvalue, so t sum(y) stays a bound.
_T_MARGIN = 1e-9
# Relative inflation of the bound: sum(y) - <G, X> is nonnegative, but it is
# exactly 0 without a surface (n_i = 0), where rounding can take it below 0,
# and a design's objective is computed on another path (``txbf.psi_tilde``).
_BOUND_MARGIN = 1e-12
# Size of the fixed perturbation that moves the rank-one start, a critical
# point of the factor ascent, into the extra columns.
_PERTURBATION = 0.3
_PERTURBATION_SEED = 0x5D12
# Weight of the identity mixed into the first dual iterate, which keeps it
# positive definite on the range of B.
_DUAL_BLEND = 0.3
_DUAL_MAX_ITER = 60


@dataclass(frozen=True)
class UpperBoundResult:
    """Certified bound on the relaxation, the primal point behind it, and its SNR map.

    ``bound_psi_tilde`` is at least f*, and so at least every unit-modulus
    objective value; ``primal_psi_tilde`` is f at the feasible point
    X = factor factor^H, so ``gap`` is the certified distance of either
    from f*.  ``dual`` is the certificate: with G the gradient of f at X,
    diag(dual) - G is positive semidefinite and ``bound_psi_tilde`` is
    f(X) + sum(dual) - <G, X>, inflated by a relative 1e-12 for rounding.
    """

    factor: np.ndarray
    dual: np.ndarray
    primal_psi_tilde: float
    bound_psi_tilde: float
    bound_snr: float
    converged: bool
    iterations: int

    @property
    def gap(self) -> float:
        return self.bound_psi_tilde - self.primal_psi_tilde


def _dual_certificate(b: np.ndarray, m: np.ndarray, tol: float) -> np.ndarray:
    """y >= 0 with diag(y) - b^H b PSD, so that max_E <b^H b, X> <= sum(y).

    Starts from the primal point x with b x b^H = m m^H, mixed with the
    identity, and runs the MaxCut ascent in its n_s-dimensional image
    z = b x b^H: with u_i = sqrt(b_i^H z b_i) and s = b diag(1/u) b^H, the
    step z <- s z s is the image of the feasible point with rows
    b_i^H m / u_i.  Each u, scaled by t = lambda_max(s), is a certificate
    t u; each z gives the feasible value trace(z).  The smallest
    certificate is kept, and the loop stops once it is within ``tol``
    (relative) of the feasible value.  The Cauchy-Schwarz certificate
    |b_i| sum_j |b_j| is the fallback; zero columns get y_i = 0.
    """
    norms = np.linalg.norm(b, axis=0)
    best = norms * np.sum(norms)
    best_sum = best.sum()
    live = norms > 0.0
    b = b[:, live]
    bc = b.conj()
    bh = bc.T
    z = (1.0 - _DUAL_BLEND) * (m @ m.conj().T) + _DUAL_BLEND * (b @ bh)
    for _ in range(_DUAL_MAX_ITER):
        u = np.sqrt(np.maximum((bc * (z @ b)).sum(axis=0).real, 0.0))
        # not u.all(): a NaN in u must stop the ascent too
        if not (u > 0.0).all():
            break
        s = (b / u) @ bh
        t = _top_eigenvalue(s) * (1.0 + _T_MARGIN)
        if t * u.sum() < best_sum:
            best = np.zeros_like(norms)
            best[live] = t * u
            best_sum = best.sum()
        z = s @ z @ s
        if best_sum - float(z.trace().real) <= tol * best_sum:
            break
    return best


def _certify(v: np.ndarray, run, tol: float):
    """Relaxed objective f(X) at X = v v^H, the dual certificate y at X, and the bound.

    ``run`` holds the optimizer's constants (``mm._run_constants``), and
    f(X) and the weights xi = a q + c are its evaluation at ``v``.  The
    bound is f(X) + sum(y) - <G, X>, with G = b^H b the gradient at X and
    b = diag(sqrt(c) / xi) Psi, times 1 + ``_BOUND_MARGIN``.
    """
    _, xi, primal = _evaluate(v, run)
    b = (np.sqrt(run.c) / xi)[:, None] * run.m
    m = b @ v
    dual = _dual_certificate(b, m, tol)
    bound = primal + float(np.sum(dual)) - float(np.sum(np.abs(m) ** 2))
    return primal, dual, bound * (1.0 + _BOUND_MARGIN)


def _warm_factor(tt: np.ndarray, rank: int) -> np.ndarray:
    """Factor with first column ``tt`` and a fixed perturbation in the others, rows normalized."""
    rng = np.random.default_rng(_PERTURBATION_SEED)
    shape = (tt.shape[0], rank - 1)
    extra = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    v = np.concatenate([tt[:, None], _PERTURBATION * extra], axis=1)
    # every row holds a unit-modulus entry, so none falls back
    return _project_unit(v, fallback=v)


def solve_sdr(
    psi: np.ndarray,
    cfg: SystemConfig,
    tol: float = 1e-4,
    max_iter: int = 30,
    init: np.ndarray | None = None,
) -> UpperBoundResult:
    """Bracket the maximum of the relaxed objective over the elliptope.

    ``psi`` is the n_s x (n_i + 1) composite array and ``init`` a lifted
    unit-modulus vector (all ones if omitted).  The factor ascent starts
    there with rank min(n_s + 1, n_i + 1), which is enough for the optimum
    (its rank is at most n_s), and stops when the relative change of one
    accelerated cycle drops below ``tol`` or after ``max_iter`` cycles; the
    better of its last iterate and the start is certified.  The dual
    ascent shares ``tol``.
    """
    n_s, n = psi.shape
    tt = np.ones(n, dtype=complex) if init is None else check_unit_modulus(init)
    if tt.shape != (n,):
        raise ValueError(f"init must have {n} entries, got {tt.shape[0]}")
    run = _run_constants(psi, cfg)
    v, objectives, converged = _ascend(
        _warm_factor(tt, min(n_s + 1, n)), run, MMSettings(epsilon=tol, max_iter=max_iter)
    )
    if objectives[-1] < _evaluate(tt, run)[2]:
        v = tt[:, None]
    primal, dual, bound = _certify(v, run, tol)
    return UpperBoundResult(
        factor=v,
        dual=dual,
        primal_psi_tilde=primal,
        bound_psi_tilde=bound,
        bound_snr=snr_from_psi_tilde(bound, cfg),
        converged=converged,
        iterations=len(objectives) - 1,
    )
