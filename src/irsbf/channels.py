"""Channel generation: log-distance path loss, Rayleigh fading, LOS rank-one links."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ChannelSet, ConfigError, SystemConfig


@dataclass(frozen=True)
class Geometry:
    """Node placement and path-loss parameters.

    The destination sits ``d_sd_h`` meters along the source-to-IRS axis and
    ``d_v`` meters off it, so the two derived link distances follow from
    right triangles; a zero one (the destination at the source or on the
    surface) is rejected when the geometry is built.
    """

    d_si: float
    d_v: float
    d_sd_h: float
    pl0_db: float = -30.0
    d0: float = 1.0
    gamma_si: float = 2.5
    gamma_id: float = 2.5
    gamma_sd: float = 3.5

    def __post_init__(self):
        if not (self.d_si > 0.0):
            raise ConfigError(f"d_si must be positive, got {self.d_si}")
        if not (self.d_v >= 0.0):
            raise ConfigError(f"d_v must be non-negative, got {self.d_v}")
        if not (self.d_sd_h >= 0.0):
            raise ConfigError(f"d_sd_h must be non-negative, got {self.d_sd_h}")
        if not (self.d0 > 0.0):
            raise ConfigError(f"d0 must be positive, got {self.d0}")
        d_sd, d_id = derive_distances(self)
        if not (d_sd > 0.0):
            raise ConfigError("destination coincides with the source (d_sd = 0)")
        if not (d_id > 0.0):
            raise ConfigError("destination coincides with the IRS (d_id = 0)")


def derive_distances(geo: Geometry) -> tuple[float, float]:
    """Return (d_sd, d_id): source-destination and IRS-destination distances."""
    d_sd = float(np.hypot(geo.d_sd_h, geo.d_v))
    d_id = float(np.hypot(geo.d_si - geo.d_sd_h, geo.d_v))
    return d_sd, d_id


def path_loss_linear(d: float, gamma: float, geo: Geometry) -> float:
    """Linear power gain of the log-distance model at distance ``d``."""
    if not (d > 0.0):
        raise ConfigError(f"distance must be positive, got {d}")
    pl_db = geo.pl0_db - 10.0 * gamma * np.log10(d / geo.d0)
    return float(10.0 ** (pl_db / 10.0))


def sample_rayleigh(rng: np.random.Generator, rows: int, cols: int, gain: float) -> np.ndarray:
    """i.i.d. circularly symmetric complex Gaussian entries with variance ``gain``."""
    if gain < 0.0:
        raise ConfigError(f"gain must be non-negative, got {gain}")
    scale = np.sqrt(gain / 2.0)
    return scale * (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols)))


def generate_channels(rng: np.random.Generator, cfg: SystemConfig, geo: Geometry) -> ChannelSet:
    """Draw one Rayleigh-faded realization of all three links.

    Per-entry variances are the path-loss gains of the respective links.
    Draw order is fixed (h_si, h_id, h_sd) so a seeded generator yields a
    reproducible realization.
    """
    d_sd, d_id = derive_distances(geo)
    g_si = path_loss_linear(geo.d_si, geo.gamma_si, geo)
    g_id = path_loss_linear(d_id, geo.gamma_id, geo)
    g_sd = path_loss_linear(d_sd, geo.gamma_sd, geo)
    h_si = sample_rayleigh(rng, cfg.n_i, cfg.n_s, g_si)
    h_id = sample_rayleigh(rng, cfg.n_i, 1, g_id).ravel()
    h_sd = sample_rayleigh(rng, cfg.n_s, 1, g_sd).ravel()
    return ChannelSet(h_si=h_si, h_id=h_id, h_sd=h_sd)


@dataclass(frozen=True)
class LOSChannel:
    """Rank-one source-to-IRS channel: gain times an outer product of steering vectors."""

    eta: complex
    a_i: np.ndarray
    a_s: np.ndarray

    @property
    def h_si(self) -> np.ndarray:
        return self.eta * np.outer(self.a_i, np.conj(self.a_s))


def ula_response(n: int, angle: float) -> np.ndarray:
    """Half-wavelength uniform linear array steering vector, unit-modulus entries."""
    return np.exp(1j * np.pi * np.arange(n) * np.cos(angle))


def sample_los(rng: np.random.Generator, n_s: int, n_i: int, gain: float) -> LOSChannel:
    """Draw a rank-one LOS link: |eta|^2 = gain, uniform phase, random array angles."""
    if not (gain > 0.0):
        raise ConfigError(f"gain must be positive, got {gain}")
    eta = np.sqrt(gain) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    a_i = ula_response(n_i, rng.uniform(0.0, np.pi))
    a_s = ula_response(n_s, rng.uniform(0.0, np.pi))
    return LOSChannel(eta=complex(eta), a_i=a_i, a_s=a_s)
