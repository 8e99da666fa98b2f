"""Convex upper bound on the reflect objective over the elliptope.

Lifting the unit-modulus vector to a rank-one matrix and dropping the rank
constraint leaves a concave separable objective over Hermitian PSD
matrices with unit diagonal.  Its optimum dominates every feasible
unit-modulus value, so it serves as a per-instance benchmark.  The solver
is first-order: projected gradient ascent with backtracking, projecting
onto the feasible set by Dykstra's alternating projections between the PSD
cone and the unit-diagonal affine set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import CompositeChannel, SystemConfig
from .txbf import snr_from_psi_tilde


class ProjectionError(RuntimeError):
    """Dykstra projection hit its iteration cap; carries the last iterate."""

    def __init__(self, message: str, last: np.ndarray):
        super().__init__(message)
        self.last = last


@dataclass(frozen=True)
class UpperBoundResult:
    """Solution of the relaxation and its mapped SNR benchmark."""

    theta_big: np.ndarray
    bound_psi_tilde: float
    bound_snr: float
    converged: bool
    iterations: int


def _diag_quad(psi_m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Real diagonal of psi_m @ x @ psi_m^H."""
    return np.real(np.einsum("mi,ij,mj->m", psi_m, x, psi_m.conj(), optimize=True))


def relaxed_objective(theta_big: np.ndarray, psi: CompositeChannel, cfg: SystemConfig) -> float:
    """Separable concave objective evaluated at a Hermitian matrix."""
    a, c = cfg.objective_coeffs
    q = np.maximum(_diag_quad(psi.psi, np.asarray(theta_big)), 0.0)
    return float(np.sum(q / (a * q + c)))


def _objective_gradient(theta_big: np.ndarray, psi: CompositeChannel, cfg: SystemConfig) -> np.ndarray:
    """Hermitian ascent direction: weighted sum of per-antenna rank-one terms."""
    a, c = cfg.objective_coeffs
    q = np.maximum(_diag_quad(psi.psi, theta_big), 0.0)
    weights = c / (a * q + c) ** 2
    return psi.psi.conj().T @ (weights[:, None] * psi.psi)


def _project_psd(x: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh((x + x.conj().T) / 2.0)
    vals = np.maximum(vals, 0.0)
    return (vecs * vals) @ vecs.conj().T


def _project_unit_diag(x: np.ndarray) -> np.ndarray:
    out = x.copy()
    np.fill_diagonal(out, 1.0)
    return out


def _dykstra(m: np.ndarray, tol: float, max_iter: int) -> tuple[np.ndarray, float, bool]:
    x = (np.asarray(m, dtype=complex) + np.asarray(m, dtype=complex).conj().T) / 2.0
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    residual = np.inf
    for _ in range(max_iter):
        y = _project_psd(x + p)
        p = x + p - y
        x = _project_unit_diag(y + q)
        q = y + q - x
        residual = float(np.linalg.norm(x - y))
        if residual <= tol:
            return x, residual, True
    return x, residual, False


def project_elliptope(m: np.ndarray, tol: float = 1e-8, max_iter: int = 5000) -> np.ndarray:
    """Nearest-point projection onto PSD matrices with unit diagonal.

    Dykstra's scheme with one correction per set; converges to the true
    Frobenius-nearest point, unlike naive alternating projections.  Stops
    once the PSD-projected and diagonal-corrected iterates agree within
    ``tol`` in Frobenius norm: the returned matrix then has an exact unit
    diagonal and sits within ``tol`` of the PSD cone.
    """
    x, residual, ok = _dykstra(m, tol, max_iter)
    if not ok:
        raise ProjectionError(
            f"alternating projections stalled at residual {residual:.3e} "
            f"(tol={tol}) after {max_iter} iterations",
            last=x,
        )
    return x


def rank_one_start(theta_tilde: np.ndarray) -> np.ndarray:
    """Feasible warm start from a unit-modulus vector."""
    tt = np.asarray(theta_tilde, dtype=complex).ravel()
    return np.outer(tt, tt.conj())


def _project_capped(m: np.ndarray, tol: float, max_iter: int) -> tuple[np.ndarray, float]:
    x, residual, _ = _dykstra(m, tol, max_iter)
    return x, residual


def solve_sdr(
    psi: CompositeChannel,
    cfg: SystemConfig,
    tol: float = 1e-4,
    max_iter: int = 30,
    init: np.ndarray | None = None,
    stall_window: int = 8,
    proj_tol: float = 1e-6,
    proj_max_iter: int = 300,
) -> UpperBoundResult:
    """Maximize the relaxed objective over the elliptope.

    Ascent steps start at the inverse of a curvature bound on the smooth
    concave objective and backtrack until the value does not drop; with
    ideal transmit hardware the objective is linear and normalized
    diminishing steps are used instead.  Terminates when the best value
    stalls below ``tol`` (relative) over ``stall_window`` iterations.

    Mid-ascent projections run at ``proj_tol`` with a cycle cap, which is
    why the best mid-ascent iterate is re-projected tightly at the end and
    its value re-evaluated there.  The reported value is never below the
    value at the (feasible) starting point, so warm-starting from an
    optimizer solution guarantees the benchmark dominates it.
    """
    n = psi.n_i + 1
    if init is None:
        x0 = rank_one_start(np.ones(n, dtype=complex))
    else:
        x0 = np.asarray(init, dtype=complex).copy()
        if x0.shape != (n, n):
            raise ValueError(f"init must be {n}x{n}, got {x0.shape}")
        diag_off = np.max(np.abs(np.diagonal(x0) - 1.0))
        min_eig = float(np.linalg.eigvalsh((x0 + x0.conj().T) / 2.0)[0])
        if diag_off > 1e-9 or min_eig < -1e-9:
            # the start value floors the reported bound, so it must come
            # from a genuinely feasible point
            x0 = project_elliptope(x0, tol=1e-9, max_iter=50000)
    a, c = cfg.objective_coeffs
    sum_norms4 = float(np.sum(np.sum(np.abs(psi.psi) ** 2, axis=1) ** 2))
    start_val = relaxed_objective(x0, psi, cfg)
    x, val = x0, start_val
    best_x, best_val = x0, start_val
    window_anchor = best_val
    anchor_iter = 0
    converged = False
    iterations = 0
    step = None
    for k in range(max_iter):
        iterations = k + 1
        grad = _objective_gradient(x, psi, cfg)
        gnorm = float(np.linalg.norm(grad))
        if gnorm == 0.0:
            converged = True
            break
        if a == 0.0:
            # linear objective: normalized diminishing supergradient steps
            step = (1.0 / (1.0 + 0.01 * k)) / gnorm
        elif step is None:
            # worst-antenna inverse curvature as a safe opening step; the
            # expand/shrink search below adapts it across iterations
            q_min = float(np.min(np.maximum(_diag_quad(psi.psi, x), 0.0)))
            step = min((a * q_min + c) ** 3 / (2.0 * a * c * sum_norms4), 1.0 / gnorm)

        def try_step(t):
            cand, residual = _project_capped(x + t * grad, tol=proj_tol, max_iter=proj_max_iter)
            # inexact projections perturb the objective by roughly the
            # gradient norm times the achieved residual; changes below that
            # noise floor are null steps, not signals for the step search
            noise = 1e-9 * max(1.0, abs(val)) + 10.0 * gnorm * residual
            return cand, relaxed_objective(cand, psi, cfg), noise

        cand, cand_val, slack = try_step(step)
        if a > 0.0:
            if cand_val > val + slack:
                for _ in range(8):
                    cand2, cand2_val, slack2 = try_step(step * 3.0)
                    if cand2_val <= cand_val + max(slack, slack2):
                        break
                    cand, cand_val, slack = cand2, cand2_val, slack2
                    step *= 3.0
            elif cand_val < val - slack:
                for _ in range(10):
                    step /= 3.0
                    cand, cand_val, slack = try_step(step)
                    if cand_val >= val - slack:
                        break
        x, val = cand, cand_val
        if val > best_val:
            best_val = val
            best_x = x
        if k + 1 - anchor_iter >= stall_window:
            if best_val - window_anchor <= tol * max(1.0, abs(best_val)):
                converged = True
                break
            window_anchor = best_val
            anchor_iter = k + 1
    # certify feasibility of the returned matrix and keep the better of the
    # re-evaluated value and the feasible starting value
    final_x, _ = _project_capped(best_x, tol=5e-8, max_iter=50000)
    final_val = relaxed_objective(final_x, psi, cfg)
    if start_val > final_val:
        final_x, final_val = x0, start_val
    return UpperBoundResult(
        theta_big=final_x,
        bound_psi_tilde=final_val,
        bound_snr=snr_from_psi_tilde(final_val, cfg),
        converged=converged,
        iterations=iterations,
    )
