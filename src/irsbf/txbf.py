"""Impairment-aware SNR evaluation and the closed-form optimal transmit beam.

The receive SNR of the impaired link is a generalized Rayleigh quotient in
the beam vector, so its maximizer is a weighted matched filter: the
composite channel scaled entrywise by the inverse of a diagonal distortion
matrix.  With ideal hardware the weights collapse and the beam reduces to
the conventional matched filter.  The SNR that beam achieves is a monotone
function of the reflect objective, ``snr_from_psi_tilde``.
"""

from __future__ import annotations

import numpy as np

from .model import (
    ChannelSet,
    DegenerateChannelError,
    ReflectConfig,
    SystemConfig,
)


def composite_vector(theta: ReflectConfig | None, ch: ChannelSet) -> np.ndarray:
    """Effective end-to-end channel seen by the destination.

    ``theta=None`` means the IRS is absent or switched off, leaving only
    the direct link.
    """
    if theta is None or ch.n_i == 0:
        return ch.h_sd.copy()
    if theta.n_i != ch.n_i:
        raise ValueError(f"reflect config has {theta.n_i} elements, channel {ch.n_i}")
    return ch.h_si.conj().T @ (np.conj(theta.theta) * ch.h_id) + ch.h_sd


def evaluate_snr(
    w: np.ndarray,
    theta: ReflectConfig | None,
    ch: ChannelSet,
    cfg: SystemConfig,
) -> float:
    """Receive SNR for a given beam and reflection configuration.

    The denominator collects the receive distortion (scaling with the total
    received signal power), the transmit distortion (scaling per antenna),
    and thermal noise; it is strictly positive, so the ratio is always
    defined.
    """
    v = composite_vector(theta, ch)
    w = np.asarray(w, dtype=complex).ravel()
    num = np.abs(np.vdot(v, w)) ** 2
    tx_dist = np.sum(np.abs(v) ** 2 * np.abs(w) ** 2)
    den = (
        cfg.kappa_d * num
        + (1.0 + cfg.kappa_d) * cfg.kappa_s * tx_dist
        + (1.0 + cfg.kappa_d) * cfg.sigma_n2
    )
    return float(num / den)


def optimal_beam_from_v(v: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    """Optimal beam for a given effective channel vector (see optimal_transmit_beam)."""
    v = np.asarray(v, dtype=complex).ravel()
    if not np.any(v):
        raise DegenerateChannelError("degenerate channel: composite vector is zero")
    a, c = cfg.objective_coeffs
    diag = a * np.abs(v) ** 2 + c
    # the direction is scale-invariant in the weights; normalizing them
    # keeps tiny noise powers from overflowing the division
    direction = v / (diag / diag.max())
    w = np.sqrt(cfg.p_tilde) * direction / np.linalg.norm(direction)
    lead = np.flatnonzero(np.abs(w) > 0)[0]
    return w * np.exp(-1j * np.angle(w[lead]))


def optimal_transmit_beam(
    theta: ReflectConfig | None,
    ch: ChannelSet,
    cfg: SystemConfig,
) -> np.ndarray:
    """Closed-form SNR-maximizing beam at full power budget.

    Direction is the composite channel weighted entrywise by the inverse
    diagonal distortion matrix; the norm is sqrt(p_tilde) because the SNR
    is monotone in the beam norm.  The global phase is normalized so the
    first nonzero entry is real positive.
    """
    return optimal_beam_from_v(composite_vector(theta, ch), cfg)


def psi_tilde(theta: ReflectConfig | None, ch: ChannelSet, cfg: SystemConfig) -> float:
    """Separable reflect-beamforming objective: sum of saturating per-antenna terms."""
    return psi_tilde_from_powers(_row_power(composite_vector(theta, ch)), cfg)


def _row_power(v: np.ndarray) -> np.ndarray:
    """|v|^2 per entry of a vector, or summed along each row of a matrix."""
    p = np.abs(v) ** 2
    return p if p.ndim == 1 else p.sum(axis=1)


def psi_tilde_from_powers(q: np.ndarray, cfg: SystemConfig) -> float:
    """Reflect objective sum q / (a q + c) at received powers ``q``, one per source antenna."""
    a, c = cfg.objective_coeffs
    return float(np.sum(q / (a * q + c)))


def snr_from_psi_tilde(pt: float, cfg: SystemConfig) -> float:
    """Map the reflect objective to the receive SNR achieved by the optimal beam.

    Monotone increasing, which is what lets the reflect optimization work
    on the objective instead of the SNR directly.  Note the objective
    already carries the power budget through its noise-over-power term, so
    no extra power factor appears here: with kappa_d = 0 the SNR equals the
    objective itself, and as the objective grows the SNR saturates at
    1/kappa_d.
    """
    if pt < 0.0:
        raise ValueError(f"objective value must be non-negative, got {pt}")
    return float(pt / (cfg.kappa_d * pt + 1.0))
