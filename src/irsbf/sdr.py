"""Certified upper bound on the reflect objective over the elliptope.

Lifting the unit-modulus vector to X = tt tt^H and dropping the rank
constraint leaves the concave objective f(X) = sum q/(a q + c), with
q_m = (Psi X Psi^H)_mm, over the elliptope E of Hermitian PSD matrices with
unit diagonal.  Its maximum f* dominates every unit-modulus value.

``solve_sdr`` brackets f* from both sides.  The primal side is a
Burer-Monteiro factor X = V V^H with unit-norm rows; any such X is
feasible, so f(X) <= f*.  The dual side holds at any X: f depends on X only
through q, so its gradient is G = B^H B with B the n_s x (n_i+1) matrix
diag(sqrt(c) / (a q + c)) Psi, and by concavity
f* <= f(X) + max_E <G, X'> - <G, X>.  MaxCut-style weak duality bounds the
maximum by t sum(y) for any y > 0, where t = lambda_max(B diag(1/y) B^H) is
an n_s x n_s eigenproblem solved exactly by LAPACK (``mm._diagonal_certificate``,
shared with the optimizer's majorizer).  The bound is thus certified from
any start and needs no eigendecomposition of an (n_i+1)-square matrix.

The given phases are certified first, by one dual map at X = tt tt^H, and
returned at once when that certificate is within ``tol`` of f(X).
Otherwise the eigenvectors of the same n_s x n_s matrix give the escape
directions of the rank-one point (Boumal, Voroninski & Bandeira, NeurIPS
2016), and the factor ascent, the optimizer loop of ``mm``, starts from
the phases with those directions appended.  Its end point is certified by
the dual ascent, a fixed-point map accelerated by SQUAREM.
X itself is never formed: q is the row power of Psi V, read from the factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .mm import (
    MMSettings,
    _ascend_rows,
    _check_init,
    _diagonal_certificate,
    _evaluate,
    _project_unit,
    _run_constants,
    _step_length,
    _top_eigenvalue,
)
from .model import SystemConfig
from .txbf import snr_from_psi_tilde

# Relative inflation of the exactly computed lambda_max: covers the rounding
# of the n_s x n_s matrix and of its eigenvalue, so t sum(y) stays a bound.
_T_MARGIN = 1e-9
# Relative inflation of the bound: sum(y) - <G, X> is nonnegative, but it is
# exactly 0 without a surface (n_i = 0), where rounding can take it below 0,
# and a design's objective is computed on another path (``txbf.psi_tilde``).
_BOUND_MARGIN = 1e-12
# Step lengths tried along the escape directions that move the rank-one
# start, a critical point of the factor ascent, into extra columns.
_ESCAPE_STEPS = (0.5, 1.0, 2.0)
# Weight of the identity mixed into the first dual iterate, which keeps it
# positive definite on the range of B.
_DUAL_BLEND = 0.3
# Cap on the dual ascent's maps, each one n_s x n_s eigensolve.
_DUAL_MAX_MAPS = 60


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
    map z <- s z s is the image of the feasible point with rows
    b_i^H m / u_i.  Each u, scaled by t = lambda_max(s), is a certificate
    t u, and each image gives the feasible value trace(z).  Both are
    invariant to the scale of z, so the ascent runs on the trace-normalized
    image and is extrapolated by SQUAREM (Varadhan & Roland, Scand. J.
    Stat. 2008) with the optimizer's step length (``_extrapolate``).  Any
    u > 0 is a certificate, so no step needs a safeguard; a zero column
    has u_i = 0, and ``mm._diagonal_certificate`` gives it y_i = 0.  The
    smallest certificate is kept, and the loop stops once it is within
    ``tol`` (relative) of the largest feasible value seen, or after
    ``_DUAL_MAX_MAPS`` maps.  The Cauchy-Schwarz certificate
    |b_i| sum_j |b_j| is the fallback.
    """
    norms = np.linalg.norm(b, axis=0)
    best = norms * np.sum(norms)
    best_sum = best.sum()
    dead = norms == 0.0
    bc = b.conj()
    bh = bc.T
    z = (1.0 - _DUAL_BLEND) * (m @ m.conj().T) + _DUAL_BLEND * (b @ bh)
    feasible = 0.0
    images = []
    for _ in range(_DUAL_MAX_MAPS):
        u = np.sqrt(np.maximum((bc * (z @ b)).sum(axis=0).real, 0.0))
        # not u.all(): a NaN in u must stop the ascent too
        if not ((u > 0.0) | dead).all():
            break
        y, s = _diagonal_certificate(b, bh, u, _top_eigenvalue, _T_MARGIN)
        if y.sum() < best_sum:
            best = y
            best_sum = best.sum()
        image = s @ z @ s
        trace = float(image.trace().real)
        feasible = max(feasible, trace)
        if best_sum - feasible <= tol * best_sum:
            break
        images.append(z)
        z = image / trace
        if len(images) == 2:
            z = _extrapolate(images[0], images[1], z)
            images = []
    return best


def _extrapolate(z0: np.ndarray, z1: np.ndarray, z2: np.ndarray) -> np.ndarray:
    """SQUAREM point through z0 and its two maps z1, z2, projected onto the PSD cone.

    z1 and z2 have unit trace, and z0 is brought to it.  With r = z1 - z0
    and v = z2 - 2 z1 + z0, the step length is the optimizer's
    (``mm._step_length``) capped at -1, the plain double map, which gives
    z2.  The result has unit trace; a projection to zero keeps z2.
    """
    z0 = z0 / z0.trace().real
    r = z1 - z0
    v = z2 - z1 - r
    alpha = min(_step_length(r, v), -1.0)
    w, q = _umath_linalg.eigh_lo(z0 - 2.0 * alpha * r + alpha**2 * v, signature="D->dD")
    w = np.maximum(w, 0.0)
    total = w.sum()
    if not total > 0.0:
        return z2
    return (q * (w / total)) @ q.conj().T


def _linearize(v: np.ndarray, run):
    """f(X) at X = v v^H, and b = diag(sqrt(c) / xi) Psi with b^H b the gradient there.

    ``run`` holds the optimizer's constants (``mm._run_constants``), and
    f(X) and the weights xi = a q + c are its evaluation at ``v``.
    """
    _, xi, primal = _evaluate(v, run)
    return primal, (np.sqrt(run.c) / xi)[:, None] * run.m


def _bound(primal: float, dual: np.ndarray, m: np.ndarray) -> float:
    """f(X) + sum(y) - <G, X>, with <G, X> = |m|^2 for m = b v, times 1 + ``_BOUND_MARGIN``."""
    return (primal + float(np.sum(dual)) - float(np.sum(np.abs(m) ** 2))) * (1.0 + _BOUND_MARGIN)


def _certify_phases(tt: np.ndarray, run, tol: float):
    """One dual map at X = tt tt^H: (f(X), y, bound, None), or (f(X), None, None, escape directions).

    With m = b tt and u = |b^H m|, y = t u (``mm._diagonal_certificate``)
    is the dual ascent's first map from the unblended image m m^H, a
    certificate when every u_i > 0.  It is returned when its bound is
    within ``tol`` (relative) of f(X).  Otherwise the eigenpairs (w_k, p_k)
    of s = b diag(1/u) b^H give the directions x_k = diag(1/u) b^H p_k,
    with x_k^H G x_k - sum_i u_i |x_k,i|^2 = w_k (w_k - 1); as
    u_i >= Re(conj(tt_i) (G tt)_i), appending x_k to the factor raises
    <G, X> to second order in the step if w_k > 1.  Those directions are
    returned as columns, each weighted by sqrt(w_k - 1).
    """
    primal, b = _linearize(tt, run)
    m = b @ tt
    bh = b.conj().T
    u = np.abs(bh @ m)
    dual, s = _diagonal_certificate(b, bh, u, _top_eigenvalue, _T_MARGIN)
    bound = _bound(primal, dual, m)
    if (u > 0.0).all() and bound - primal <= tol * primal:
        return primal, dual, bound, None
    # the LAPACK gufunc behind np.linalg.eigh, as in ``_extrapolate``
    w, p = _umath_linalg.eigh_lo(s, signature="D->dD" if s.dtype.kind == "c" else "d->dd")
    if np.isnan(w).any():
        raise LinAlgError("Eigenvalues did not converge")
    escape = w > 1.0
    inv = np.divide(1.0, u, out=np.zeros_like(u), where=u > 0.0)
    return primal, None, None, (bh @ p[:, escape]) * (inv[:, None] * np.sqrt(w[escape] - 1.0))


def _escape_start(tt: np.ndarray, directions: np.ndarray, primal: float, run) -> np.ndarray:
    """The factor ascent's start: ``tt`` with ``directions`` appended at the best step length.

    Tries each step of ``_ESCAPE_STEPS``, rows normalized, and keeps the
    start with the largest relaxed objective; ``tt`` alone, at objective
    ``primal``, if none beats it.  The ascent never lowers its objective,
    so the factor it returns is no worse than ``tt``.
    """
    best, start = primal, tt[:, None]
    for step in _ESCAPE_STEPS:
        v = np.concatenate([tt[:, None], step * directions], axis=1)
        # every row holds a unit-modulus entry, so none falls back
        v = _project_unit(v, fallback=v)
        obj = _evaluate(v, run)[2]
        if obj > best:
            best, start = obj, v
    return start


def solve_sdr(
    psi: np.ndarray,
    cfg: SystemConfig,
    tol: float = 1e-4,
    max_iter: int = 30,
    init: np.ndarray | None = None,
) -> UpperBoundResult:
    """Bracket the maximum of the relaxed objective over the elliptope.

    ``psi`` is the n_s x (n_i + 1) composite array and ``init`` a lifted
    unit-modulus vector (all ones if omitted).  The phases are certified
    first: if one dual map there leaves a certified gap of at most ``tol``
    times the primal value, they are the result, with ``iterations`` 0 and
    ``converged`` True.  Otherwise the factor ascent starts at the phases
    with their escape directions appended (at most n_s columns more; the
    optimum's rank is at most n_s), never below the phases' value, and its
    last iterate is certified by the dual ascent, which shares ``tol``.
    ``iterations`` then counts its accelerated cycles, at least 1, and
    ``converged`` says whether the relative change of one cycle fell below
    ``tol`` within ``max_iter`` cycles.
    """
    tt = np.ones(psi.shape[1], dtype=complex) if init is None else _check_init(init, psi)
    run = _run_constants(psi, cfg)
    primal, dual, bound, directions = _certify_phases(tt, run, tol)
    if directions is None:
        v, converged, iterations = tt[:, None], True, 0
    else:
        start = _escape_start(tt, directions, primal, run)
        settings = MMSettings(epsilon=tol, max_iter=max_iter)
        ((v,), (objectives,), (converged,)) = _ascend_rows(start, run, settings)
        iterations = len(objectives) - 1
        primal, b = _linearize(v, run)
        m = b @ v
        dual = _dual_certificate(b, m, tol)
        bound = _bound(primal, dual, m)
    return UpperBoundResult(
        factor=v,
        dual=dual,
        primal_psi_tilde=primal,
        bound_psi_tilde=bound,
        bound_snr=snr_from_psi_tilde(bound, cfg),
        converged=converged,
        iterations=iterations,
    )
