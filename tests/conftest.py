import numpy as np
import pytest

from irsbf.mm import lifted_objective
from irsbf.model import ChannelSet, SystemConfig
from irsbf.sim import _design_rows
from irsbf.txbf import psi_tilde


def complex_gaussian(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def random_channels(rng, n_i, n_s, scale=1.0):
    return ChannelSet(
        h_si=scale * complex_gaussian(rng, n_i, n_s),
        h_id=scale * complex_gaussian(rng, n_i),
        h_sd=scale * complex_gaussian(rng, n_s),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture
def small_cfg():
    return SystemConfig(n_s=4, n_i=8, p=2.0, kappa_s=0.1, kappa_d=0.15, sigma_n2=0.05)


def design_all(psi, cfg, settings, bits, init, bound):
    """One realization's designs and bound, through the chunk path as a chunk of one.

    Returns each scheme's (snr, lifted, iterations) and the bound, as a
    sweep scores them; a degenerate channel raises its
    ``DegenerateChannelError``.
    """
    (design,) = _design_rows(psi[None], init[None], cfg, settings, bits, bound)
    if isinstance(design, Exception):
        raise design
    return design


def design_objective(lifted, psi, cfg):
    """A design's reflect objective on ``psi``: its lifted vector's, or the direct link's without one."""
    return psi_tilde(None, psi, cfg) if lifted is None else lifted_objective(lifted, psi, cfg)
