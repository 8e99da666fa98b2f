"""Closed forms for the no-direct-link case with a rank-one source-to-IRS channel.

With the direct link gone and the first hop an outer product of steering
vectors, the reflect optimization reduces to coherently combining the drop
link: each element cancels the phase of its own channel product.  The
matching transmit beam is the source steering vector at full budget, and
the resulting SNR has a closed ratio plus a large-array limit.  The
solution's reflection is its array of n_i phases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import LOSChannel
from .model import DimensionError, SystemConfig


@dataclass(frozen=True)
class LOSSolution:
    phases: np.ndarray
    w: np.ndarray
    snr: float
    snr_asymptotic: float | None


def _closed_ratio(cfg: SystemConfig, x: float) -> float:
    """The aligned solution's SNR num / den at x = |eta|^2 ||h_id||_1^2."""
    num = cfg.p_tilde * cfg.n_s * x
    den = (
        cfg.p_tilde * (cfg.kappa_d * cfg.n_s + (1.0 + cfg.kappa_d) * cfg.kappa_s) * x
        + (1.0 + cfg.kappa_d) * cfg.sigma_n2
    )
    return float(num / den)


def los_snr_closed(cfg: SystemConfig, eta_abs2: float, h_id_l1: float) -> float:
    """Closed SNR ratio at the aligned solution; ||.||_1 sums entry moduli."""
    return _closed_ratio(cfg, eta_abs2 * h_id_l1**2)


def solve_los(ch: LOSChannel, h_id: np.ndarray, cfg: SystemConfig, sigma_id2: float | None = None) -> LOSSolution:
    """Aligned phases, steering-vector beam, and the closed-form SNR.

    ``sigma_id2`` (per-entry drop-link variance) enables the asymptotic
    SNR field; leave it None when not applicable.
    """
    h_id = np.asarray(h_id, dtype=complex).ravel()
    if len(h_id) != len(ch.a_i):
        raise DimensionError(f"h_id has {len(h_id)} entries, expected {len(ch.a_i)} from a_i")
    phases = -(np.angle(np.conj(h_id)) + np.angle(ch.a_i))
    w = np.sqrt(cfg.p_tilde / cfg.n_s) * ch.a_s
    eta_abs2 = float(np.abs(ch.eta) ** 2)
    snr = los_snr_closed(cfg, eta_abs2, float(np.sum(np.abs(h_id))))
    asym = None
    if sigma_id2 is not None:
        asym = asymptotic_snr(cfg, h_id.shape[0], sigma_id2, eta_abs2)
    return LOSSolution(phases=phases, w=w, snr=snr, snr_asymptotic=asym)


def asymptotic_snr(cfg: SystemConfig, n_i: int, sigma_id2: float, eta_abs2: float) -> float:
    """Large-array SNR limit under Rayleigh drop-link fading.

    The combined drop-link magnitude concentrates at its mean, which
    replaces the L1 norm squared by pi * n_i^2 * sigma_id2 / 4.
    """
    if n_i <= 0 or sigma_id2 <= 0.0 or eta_abs2 <= 0.0:
        raise ValueError("n_i, sigma_id2 and eta_abs2 must all be positive")
    # dividing by 4 is exact, so num and den each scale by exactly 4 and the ratio is unchanged
    return _closed_ratio(cfg, eta_abs2 * np.pi * n_i**2 * sigma_id2 / 4.0)
