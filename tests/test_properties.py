"""Property tests of the MM reflect optimizer over randomly drawn problems.

Hypothesis draws the system size, the impairment levels, the power budget
(1e-6 to 1e6 W against -85 dBW noise), the channel scale and whether the
direct link is present; the explicit examples pin the edges: no surface
(n_i = 0), one source antenna, ideal transmit hardware (kappa_s = 0, where
the objective is linear in the received powers), extreme power and a zero
direct link.  Runs are derandomized so the suite is reproducible.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from irsbf.mm import MMSettings, lifted_objective, random_lifted_init, run_mm, surrogate_value
from irsbf.model import ChannelSet, SystemConfig, build_composite, lift_reflect
from irsbf.sim import db2pow

from conftest import complex_gaussian

SIGMA_N2 = db2pow(-85.0)

PROPERTY_SETTINGS = settings(derandomize=True, max_examples=60, deadline=None)

problems = st.fixed_dictionaries(
    {
        "n_s": st.integers(1, 4),
        "n_i": st.integers(0, 10),
        "kappa_s": st.one_of(st.just(0.0), st.floats(0.0, 0.3)),
        "kappa_d": st.floats(0.0, 0.3),
        "log10_p": st.floats(-6.0, 6.0),
        "log10_snr": st.floats(-4.0, 8.0),
        "direct": st.booleans(),
        "seed": st.integers(0, 2**32 - 1),
    }
)


def make_problem(n_s, n_i, kappa_s, kappa_d, log10_p, log10_snr, direct, seed):
    """Problem whose per-path receive SNR p |h|^2 / sigma_n2 is about 10**log10_snr."""
    cfg = SystemConfig(
        n_s=n_s, n_i=n_i, p=10.0**log10_p, kappa_s=kappa_s, kappa_d=kappa_d, sigma_n2=SIGMA_N2
    )
    rng = np.random.default_rng(seed)
    scale = np.sqrt(SIGMA_N2 * 10.0**log10_snr / cfg.p)
    h_sd = scale * complex_gaussian(rng, n_s) if direct else np.zeros(n_s, complex)
    ch = ChannelSet(
        h_si=scale * complex_gaussian(rng, n_i, n_s),
        h_id=complex_gaussian(rng, n_i),
        h_sd=h_sd,
    )
    return cfg, build_composite(ch), rng


EDGES = (
    dict(n_s=3, n_i=0, kappa_s=0.07, kappa_d=0.07, log10_p=1.2, log10_snr=2.0, direct=True, seed=1),
    dict(n_s=1, n_i=6, kappa_s=0.07, kappa_d=0.07, log10_p=1.2, log10_snr=2.0, direct=True, seed=2),
    dict(n_s=4, n_i=6, kappa_s=0.0, kappa_d=0.1, log10_p=1.2, log10_snr=2.0, direct=True, seed=3),
    dict(n_s=4, n_i=6, kappa_s=0.1, kappa_d=0.1, log10_p=-6.0, log10_snr=2.0, direct=True, seed=4),
    dict(n_s=4, n_i=6, kappa_s=0.1, kappa_d=0.1, log10_p=6.0, log10_snr=2.0, direct=True, seed=5),
    dict(n_s=2, n_i=6, kappa_s=0.0, kappa_d=0.0, log10_p=6.0, log10_snr=8.0, direct=True, seed=6),
    dict(n_s=4, n_i=6, kappa_s=0.07, kappa_d=0.07, log10_p=1.2, log10_snr=2.0, direct=False, seed=7),
    dict(n_s=2, n_i=0, kappa_s=0.07, kappa_d=0.07, log10_p=1.2, log10_snr=2.0, direct=False, seed=8),
)


def with_edges(test):
    for edge in EDGES:
        test = example(problem=edge)(test)
    return test


@PROPERTY_SETTINGS
@given(problem=problems)
@with_edges
def test_run_mm_monotone_unit_modulus_and_consistent(problem):
    cfg, psi, rng = make_problem(**problem)
    init = random_lifted_init(rng, cfg.n_i)
    for accelerate in (False, True):
        res = run_mm(init, psi, cfg, MMSettings(accelerate=accelerate, max_iter=200))
        objs = np.asarray(res.objectives)
        assert np.all(objs[1:] >= objs[:-1] - 1e-11 * np.maximum(1.0, np.abs(objs[:-1])))
        np.testing.assert_allclose(np.abs(res.reflect.theta), 1.0, atol=1e-12)
        pt = lifted_objective(lift_reflect(res.reflect), psi, cfg)
        assert abs(pt - res.result.psi_tilde_val) <= 1e-9 * max(1.0, abs(pt))
        assert res.result.psi_tilde_val >= objs[0] - 1e-11 * max(1.0, abs(objs[0]))


@PROPERTY_SETTINGS
@given(problem=problems)
@with_edges
def test_surrogate_tight_and_minorizing(problem):
    cfg, psi, rng = make_problem(**problem)
    tt0 = random_lifted_init(rng, cfg.n_i)
    f0 = lifted_objective(tt0, psi, cfg)
    tol = 1e-9 * max(1.0, abs(f0))
    assert abs(surrogate_value(tt0, tt0, psi, cfg) - f0) <= tol
    for _ in range(200):
        tt = random_lifted_init(rng, cfg.n_i)
        assert surrogate_value(tt, tt0, psi, cfg) <= lifted_objective(tt, psi, cfg) + tol
