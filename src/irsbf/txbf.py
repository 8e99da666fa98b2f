"""Impairment-aware SNR evaluation and the closed-form optimal transmit beam.

The receive SNR of the impaired link is a generalized Rayleigh quotient in
the beam vector, so its maximizer is a weighted matched filter: the
composite channel scaled entrywise by the inverse of a diagonal distortion
matrix.  With ideal hardware the weights collapse and the beam reduces to
the conventional matched filter.  The SNR that beam achieves is a monotone
function of the reflect objective, ``snr_from_psi_tilde``.

A sweep builds no beam: it scores a chunk's robust schemes by
``snr_from_psi_tilde`` of their objectives (the direct column's without an
IRS), and its nonrobust ones by the SNR of their mismatched beam
(``matched_filter_snr``), each an array operation over the chunk's rows.
The functions of one realization are the public API and the tests' oracles.

The channel argument ``psi`` of every function here is the composite
n_s x (n_i + 1) array of ``model.build_composite``: a reflection enters
only through the lifted product ``psi @ lift_reflect(theta)``, the
paper's Psi theta-tilde, so the channel blocks are not needed after the
draw.
"""

from __future__ import annotations

import numpy as np

from .model import DegenerateChannelError, ReflectConfig, SystemConfig, lift_reflect


def composite_vector(theta: ReflectConfig | None, psi: np.ndarray) -> np.ndarray:
    """Effective end-to-end channel seen by the destination.

    ``theta=None`` means the IRS is absent or switched off, leaving only
    the direct link, the last column of ``psi``.
    """
    if theta is None:
        return psi[:, -1].copy()
    return psi @ lift_reflect(theta)


def evaluate_snr(
    w: np.ndarray,
    theta: ReflectConfig | None,
    psi: np.ndarray,
    cfg: SystemConfig,
) -> float:
    """Receive SNR for a given beam and reflection configuration.

    The denominator collects the receive distortion (scaling with the total
    received signal power), the transmit distortion (scaling per antenna),
    and thermal noise; it is strictly positive, so the ratio is always
    defined.
    """
    v = composite_vector(theta, psi)
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
    psi: np.ndarray,
    cfg: SystemConfig,
) -> np.ndarray:
    """Closed-form SNR-maximizing beam at full power budget.

    Direction is the composite channel weighted entrywise by the inverse
    diagonal distortion matrix; the norm is sqrt(p_tilde) because the SNR
    is monotone in the beam norm.  The global phase is normalized so the
    first nonzero entry is real positive.
    """
    return optimal_beam_from_v(composite_vector(theta, psi), cfg)


def psi_tilde(theta: ReflectConfig | None, psi: np.ndarray, cfg: SystemConfig) -> float:
    """Separable reflect-beamforming objective: sum of saturating per-antenna terms."""
    return psi_tilde_from_powers(_row_power(composite_vector(theta, psi)), cfg)


def _row_power(v: np.ndarray) -> np.ndarray:
    """|v|^2 per entry of a vector, or summed along each row of a matrix."""
    p = np.abs(v) ** 2
    return p if p.ndim == 1 else p.sum(axis=1)


def psi_tilde_from_powers(q: np.ndarray, cfg: SystemConfig):
    """Reflect objective sum q / (a q + c) at powers ``q``, one per source antenna (per row)."""
    a, c = cfg.objective_coeffs
    terms = q / (a * q + c)
    return float(np.sum(terms)) if terms.ndim == 1 else terms.sum(axis=1)


def matched_filter_snr(q: np.ndarray, cfg: SystemConfig):
    """``evaluate_snr`` of the beam sqrt(p_tilde) v / |v|, from each row of powers q = |v|^2.

    This matched filter is the nonrobust design's beam.  Over p_tilde, with
    S = sum q (nonzero), its SNR is S / (kappa_d S + a sum(q^2) / S + c).
    """
    a, c = cfg.objective_coeffs
    s = q.sum(axis=1)
    return s / (cfg.kappa_d * s + a * (q * q).sum(axis=1) / s + c)


def snr_from_psi_tilde(pt, cfg: SystemConfig):
    """Map the reflect objective to the receive SNR achieved by the optimal beam.

    Monotone increasing, which is what lets the reflect optimization work
    on the objective instead of the SNR directly.  Note the objective
    already carries the power budget through its noise-over-power term, so
    no extra power factor appears here: with kappa_d = 0 the SNR equals the
    objective itself, and as the objective grows the SNR saturates at
    1/kappa_d.  An array of objectives gives the array of their SNRs.
    """
    if np.min(pt) < 0.0:
        raise ValueError(f"objective value must be non-negative, got {np.min(pt)}")
    snr = pt / (cfg.kappa_d * pt + 1.0)
    return snr if np.ndim(snr) else float(snr)
