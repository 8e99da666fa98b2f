"""Core domain types: system configuration, channel blocks, the lift of a reflection.

All powers are linear watts internally; dB values are converted only
where an operating point is set by name (``sim.SETTINGS``).  All types
are immutable value objects and safe to share across parallel workers.
The composite channel is a plain n_s x (n_i + 1) array, built by
``build_composite``.  A reflection is its array of n_i phases, or a stack
of them (..., n_i), and enters as its lifted vector: ``lift_phases`` and
its inverse ``reflect_phases`` act along the last axis, each row of a
stack bit for bit as alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

UNIT_MODULUS_TOL = 1e-12


class ConfigError(ValueError):
    """Raised when a configuration value is outside its allowed range."""


class DimensionError(ValueError):
    """Raised when channel blocks disagree with the configured array sizes."""


class DegenerateChannelError(RuntimeError):
    """Raised when the composite channel vanishes and no beam direction exists."""


@dataclass(frozen=True)
class SystemConfig:
    """Scalar system parameters of the impaired MISO link.

    Attributes:
        n_s: number of source antennas (>= 1).
        n_i: number of reflecting elements (>= 0; 0 models the no-IRS baselines).
        p: maximum source transmit power in watts.
        kappa_s: normalized transmit distortion level, in [0, 1).
        kappa_d: normalized receive distortion level, in [0, 1).
        sigma_n2: destination noise power in watts.
    """

    n_s: int
    n_i: int
    p: float
    kappa_s: float
    kappa_d: float
    sigma_n2: float

    def __post_init__(self):
        if int(self.n_s) != self.n_s or self.n_s < 1:
            raise ConfigError(f"n_s must be a positive integer, got {self.n_s}")
        if int(self.n_i) != self.n_i or self.n_i < 0:
            raise ConfigError(f"n_i must be a non-negative integer, got {self.n_i}")
        if not (self.p > 0.0) or not np.isfinite(self.p):
            raise ConfigError(f"p must be positive and finite, got {self.p}")
        if not (0.0 <= self.kappa_s < 1.0):
            raise ConfigError(f"kappa_s out of range [0, 1): {self.kappa_s}")
        if not (0.0 <= self.kappa_d < 1.0):
            raise ConfigError(f"kappa_d out of range [0, 1): {self.kappa_d}")
        if not (self.sigma_n2 > 0.0) or not np.isfinite(self.sigma_n2):
            raise ConfigError(f"sigma_n2 must be positive and finite, got {self.sigma_n2}")

    @property
    def p_tilde(self) -> float:
        """Effective beam power budget after the transmit-distortion overhead."""
        return self.p / (1.0 + self.kappa_s)

    @property
    def objective_coeffs(self) -> tuple[float, float]:
        """Coefficients (a, c) of the separable reflect objective sum q / (a q + c).

        ``q`` is the received power per source antenna; a q + c is also the
        diagonal distortion weight of the optimal transmit beam.
        """
        a = (1.0 + self.kappa_d) * self.kappa_s
        c = (1.0 + self.kappa_d) * self.sigma_n2 / self.p_tilde
        return a, c


@dataclass(frozen=True)
class ChannelSet:
    """One realization of the three channel blocks.

    ``h_si`` is the source-to-IRS matrix (n_i x n_s), ``h_id`` the
    IRS-to-destination vector (n_i), ``h_sd`` the direct-link vector (n_s).
    """

    h_si: np.ndarray
    h_id: np.ndarray
    h_sd: np.ndarray

    def __post_init__(self):
        h_si = np.asarray(self.h_si, dtype=complex)
        h_id = np.asarray(self.h_id, dtype=complex).ravel()
        h_sd = np.asarray(self.h_sd, dtype=complex).ravel()
        if h_si.ndim != 2:
            raise DimensionError(f"h_si must be a matrix, got ndim={h_si.ndim}")
        n_i, n_s = h_si.shape
        if h_id.shape != (n_i,):
            raise DimensionError(
                f"h_id has {h_id.shape[0]} entries, expected {n_i} from h_si"
            )
        if h_sd.shape != (n_s,):
            raise DimensionError(
                f"h_sd has {h_sd.shape[0]} entries, expected {n_s} from h_si"
            )
        for name, arr in (("h_si", h_si), ("h_id", h_id), ("h_sd", h_sd)):
            if not np.all(np.isfinite(arr.view(float))):
                raise DimensionError(f"{name} contains non-finite entries")
        object.__setattr__(self, "h_si", h_si)
        object.__setattr__(self, "h_id", h_id)
        object.__setattr__(self, "h_sd", h_sd)


def build_composite(ch: ChannelSet) -> np.ndarray:
    """The n_s x (n_i + 1) composite channel: IRS columns scaled by the drop link, plus direct.

    Multiplying it by a lifted phase vector reproduces the end-to-end
    channel seen by the destination.
    """
    reflect_cols = ch.h_si.conj().T * ch.h_id[None, :]
    return np.concatenate([reflect_cols, ch.h_sd[:, None]], axis=1)


def lift_phases(phases: np.ndarray) -> np.ndarray:
    """Lifted vectors of phase profiles along the last axis: conjugated coefficients, unit slack.

    Conjugation happens exactly once, here, so that Psi times the lifted
    vector is the physical end-to-end channel.
    """
    phases = np.asarray(phases, dtype=float)
    lifted = np.ones((*phases.shape[:-1], phases.shape[-1] + 1), complex)
    np.conjugate(np.exp(1j * phases), out=lifted[..., :-1])
    return lifted


def reflect_phases(theta_tilde: np.ndarray) -> np.ndarray:
    """Undo the lifting along the last axis: divide out the slack entry, conjugate back, take phases."""
    theta_tilde = np.asarray(theta_tilde)
    if theta_tilde.ndim == 0 or theta_tilde.shape[-1] == 0:
        raise DimensionError(f"a lifted vector needs its slack entry, got shape {theta_tilde.shape}")
    theta = np.conjugate(theta_tilde[..., :-1] / theta_tilde[..., -1:])
    if not theta.all():
        raise ConfigError("cannot normalize a zero reflection coefficient")
    return np.angle(theta)

