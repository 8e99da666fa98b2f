"""Reference computations for the output checks, written apart from irsbf.

Nothing here imports irsbf.  The channel draws follow the determinism
contract that ``irsbf.sim`` documents: realization ``r`` at sweep point
``vi`` draws from ``numpy.random.default_rng(child_seed(seed, vi, r))``,
where ``child_seed`` folds the indices in with the splitmix64 finalizer, and
``generate_channels`` draws h_si, h_id and h_sd in that order as circularly
symmetric Gaussians whose variance is the log-distance path-loss gain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MASK64 = (1 << 64) - 1


def mix64(x: int) -> int:
    """splitmix64 finalizer."""
    x = (x + 0x9E3779B97F4A7C15) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return (x ^ (x >> 31)) & MASK64


def child_seed(master: int, *indices: int) -> int:
    s = master & MASK64
    for idx in indices:
        s = mix64(s ^ ((idx + 1) & MASK64))
    return s


@dataclass(frozen=True)
class OperatingPoint:
    """Link parameters in linear units, read from the benchmark's config file."""

    n_s: int
    p: float
    kappa_s: float
    kappa_d: float
    sigma_n2: float
    d_si: float
    d_v: float
    d_sd_h: float
    pl0_db: float
    d0: float
    gamma_si: float
    gamma_id: float
    gamma_sd: float

    @property
    def p_tilde(self) -> float:
        return self.p / (1.0 + self.kappa_s)

    @property
    def a(self) -> float:
        """Transmit-distortion weight of the per-antenna objective term."""
        return (1.0 + self.kappa_d) * self.kappa_s

    @property
    def c(self) -> float:
        """Noise-over-power weight of the per-antenna objective term."""
        return (1.0 + self.kappa_d) * self.sigma_n2 / self.p_tilde

    def gain(self, d: float, gamma: float) -> float:
        return 10.0 ** ((self.pl0_db - 10.0 * gamma * math.log10(d / self.d0)) / 10.0)


def load_operating_point(path: Path) -> OperatingPoint:
    """Parse the ``key = value`` file that the CLI also reads with ``--config``."""
    raw = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            key, value = (part.strip() for part in line.split("=", 1))
            raw[key.lower()] = float(value)
    return OperatingPoint(
        n_s=int(raw["n_s"]),
        p=10.0 ** (raw["p_dbw"] / 10.0),
        kappa_s=raw["kappa"],
        kappa_d=raw["kappa"],
        sigma_n2=10.0 ** (raw["sigma_n2_dbw"] / 10.0),
        d_si=raw["d_si"],
        d_v=raw["d_v"],
        d_sd_h=raw["d_sd_h"],
        pl0_db=raw["pl_0"],
        d0=raw["d_0"],
        gamma_si=raw["gamma_si"],
        gamma_id=raw["gamma_id"],
        gamma_sd=raw["gamma_sd"],
    )


def _rayleigh(rng: np.random.Generator, shape, gain: float) -> np.ndarray:
    return math.sqrt(gain / 2.0) * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def draw_channels(seed: int, op: OperatingPoint, n_i: int):
    """(h_si, h_id, h_sd) of one realization, drawn as the program draws them."""
    d_sd = math.hypot(op.d_sd_h, op.d_v)
    d_id = math.hypot(op.d_si - op.d_sd_h, op.d_v)
    rng = np.random.default_rng(seed)
    h_si = _rayleigh(rng, (n_i, op.n_s), op.gain(op.d_si, op.gamma_si))
    h_id = _rayleigh(rng, (n_i, 1), op.gain(d_id, op.gamma_id)).ravel()
    h_sd = _rayleigh(rng, (op.n_s, 1), op.gain(d_sd, op.gamma_sd)).ravel()
    return h_si, h_id, h_sd


def snr_of_objective(psi_tilde: float, op: OperatingPoint) -> float:
    """SNR of the optimal beam for a reflect objective value: psi/(kappa_d psi + 1)."""
    return psi_tilde / (op.kappa_d * psi_tilde + 1.0)


def robust_direct_snr(h_sd: np.ndarray, op: OperatingPoint) -> float:
    """Closed-form SNR of the impairment-aware beam on the direct link alone.

    The objective is sum_m q_m / (a q_m + c) with q_m = |h_sd,m|^2.
    """
    q = np.abs(h_sd) ** 2
    return snr_of_objective(float(np.sum(q / (op.a * q + op.c))), op)


def mrt_direct_snr(h_sd: np.ndarray, op: OperatingPoint) -> float:
    """SNR of the matched-filter beam at norm sqrt(p_tilde) under the true impairments.

    Scored by the paper's expression |h^H w|^2 / (kappa_d |h^H w|^2
    + (1+kappa_d) kappa_s sum_m |h_m|^2 |w_m|^2 + (1+kappa_d) sigma^2).
    """
    q = np.abs(h_sd) ** 2
    norm2 = float(np.sum(q))
    signal = op.p_tilde * norm2
    tx_distortion = op.p_tilde * float(np.sum(q * q)) / norm2
    den = (
        op.kappa_d * signal
        + (1.0 + op.kappa_d) * op.kappa_s * tx_distortion
        + (1.0 + op.kappa_d) * op.sigma_n2
    )
    return signal / den


def snr_cap(h_si: np.ndarray, h_id: np.ndarray, h_sd: np.ndarray, op: OperatingPoint) -> float:
    """An SNR that no reflect configuration, and no relaxation of one, can exceed.

    Antenna m sees v_m = sum_i Psi_mi t_i with |t_i| <= 1 (|X_ij| <= 1 for
    the relaxation), so |v_m| <= u_m = sum_i |Psi_mi|, and the objective is
    increasing in every |v_m|.
    """
    u = np.abs(h_si).T @ np.abs(h_id) + np.abs(h_sd)
    q = u * u
    return snr_of_objective(float(np.sum(q / (op.a * q + op.c))), op)


def qpsk_ser(snr: float) -> float:
    """Gray-mapped QPSK symbol error probability in Gaussian noise: 2Q - Q^2."""
    q = 0.5 * math.erfc(math.sqrt(snr / 2.0))
    return 2.0 * q - q * q
