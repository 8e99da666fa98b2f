"""Property tests of the optimizer, the bound, the beam and the helpers.

Hypothesis draws the system size, the impairment levels, the power budget
(1e-6 to 1e6 W against -85 dBW noise), the channel scale and whether the
direct link is present; the explicit examples pin the edges: no surface
(n_i = 0), one source antenna, ideal transmit hardware (kappa_s = 0, where
the objective is linear in the received powers), extreme power and a zero
direct link.  Runs are derandomized so the suite is reproducible.
"""

from copy import deepcopy
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from irsbf.mm import (
    _LAMBDA_MARGIN,
    MMSettings,
    _Majorizer,
    _evaluate,
    _run_constants,
    _step,
    _surrogate_coefficient,
    lifted_objective,
    quantize_phases,
    random_lifted_init,
    run_mm,
)
from irsbf.model import (
    ChannelSet,
    SystemConfig,
    build_composite,
    lift_phases,
)
from irsbf.sdr import solve_sdr
from irsbf.sim import child_seed, db2pow
from irsbf.txbf import composite_vector, evaluate_snr, optimal_transmit_beam

from conftest import complex_gaussian
from test_mm import majorizer_weights, surrogate_value
from test_sdr import _diag_quad, _gradient_factor

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


def make_channels(n_s, n_i, kappa_s, kappa_d, log10_p, log10_snr, direct, seed):
    """Channels whose per-path receive SNR p |h|^2 / sigma_n2 is about 10**log10_snr."""
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
    return cfg, ch, rng


def make_problem(**problem):
    cfg, ch, rng = make_channels(**problem)
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
        np.testing.assert_allclose(np.abs(res.lifted), 1.0, atol=1e-12)
        assert res.phases.shape == (cfg.n_i,) and np.isfinite(res.phases).all()
        pt = lifted_objective(lift_phases(res.phases), psi, cfg)
        assert abs(pt - res.objectives[-1]) <= 1e-9 * max(1.0, abs(pt))
        assert res.objectives[-1] >= objs[0] - 1e-11 * max(1.0, abs(objs[0]))


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


@PROPERTY_SETTINGS
@given(problem=problems)
@with_edges
def test_shift_is_the_exact_coupling_eigenvalue(problem):
    # the shift is diag(y) with y = t w: w the bound's image weights, and t
    # the exact largest eigenvalue of the full (n_i+1)-square coupling
    # matrix m^H diag(d) m scaled by diag(w)^(-1/2) on the live columns,
    # margin included; with kappa_s = 0 there is no coupling and y is 0
    cfg, psi, rng = make_problem(**problem)
    tt0 = random_lifted_init(rng, cfg.n_i)
    m = psi
    run = _run_constants(psi, cfg)
    v0, xi, _ = _evaluate(tt0, run)
    _, d, y = _surrogate_coefficient(tt0, v0, xi, run)
    if cfg.objective_coeffs[0] == 0.0:
        np.testing.assert_array_equal(y, 0.0)
    else:
        w = majorizer_weights(tt0, psi, cfg)
        live = w > 0.0
        scaled = m[:, live] / np.sqrt(w[live])
        top = np.max(np.linalg.eigvalsh(scaled.conj().T @ (d[:, None] * scaled)), initial=0.0)
        t = (1.0 + _LAMBDA_MARGIN) * float(top)
        np.testing.assert_allclose(y, t * w, rtol=1e-9, atol=0.0)
    f0 = lifted_objective(tt0, psi, cfg)
    tol = 1e-9 * max(1.0, abs(f0))
    for _ in range(20):
        tt = random_lifted_init(rng, cfg.n_i)
        assert surrogate_value(tt, tt0, psi, cfg) <= lifted_objective(tt, psi, cfg) + tol


@pytest.mark.parametrize("sigma_n2", [None, 1e-30], ids=["noise", "tiny-noise"])
@pytest.mark.parametrize("edge", EDGES)
def test_majorizer_dominates_the_coupling_in_every_layout_at_the_edges(edge, sigma_n2):
    # diag(y) - Psi^H diag(d) Psi is PSD for a phase vector, each row of a
    # stack and a factor; a zero column of Psi (an unreached element, or the
    # slack without a direct link) gets y_i = 0, and with coupling every
    # nonzero column gets y_i > 0
    problems = [make_problem(**{**edge, "seed": edge["seed"] + 1000 * j}) for j in range(3)]
    cfg = problems[0][0] if sigma_n2 is None else replace(problems[0][0], sigma_n2=sigma_n2)
    psis = np.stack([psi for _, psi, _ in problems])
    if cfg.n_i:
        psis[1, :, 0] = 0.0
    rng = problems[0][2]
    tt = np.stack([random_lifted_init(rng, cfg.n_i) for _ in psis])
    factor = complex_gaussian(rng, cfg.n_i + 1, min(cfg.n_s + 1, cfg.n_i + 1))
    factor /= np.linalg.norm(factor, axis=1, keepdims=True)
    run = _run_constants(psis, cfg)
    stacked = _surrogate_coefficient(tt, *_evaluate(tt, run)[:2], run)
    layouts = [(psi, stacked[1][k], stacked[2][k]) for k, psi in enumerate(psis)]
    for psi, x in ((psis[0], tt[0]), (psis[1], factor)):
        one = _run_constants(psi, cfg)
        layouts.append((psi, *_surrogate_coefficient(x, *_evaluate(x, one)[:2], one)[1:]))
    for psi, d, y in layouts:
        coupling = psi.conj().T @ (d[:, None] * psi)
        assert np.linalg.eigvalsh(np.diag(y) - coupling)[0] >= -1e-9 * np.max(y, initial=0.0)
        live = np.abs(psi).any(axis=0)
        np.testing.assert_array_equal(y[~live], 0.0)
        if cfg.objective_coeffs[0] > 0.0 and d.any():
            assert np.all(y[live] > 0.0)
        else:
            np.testing.assert_array_equal(y, 0.0)


@PROPERTY_SETTINGS
@given(problem=problems)
@with_edges
def test_a_scaled_majorizer_dominates_the_coupling_at_any_later_point(problem):
    # y_ref is built fresh at tt0; for any d >= 0, d <= rho d_ref entrywise
    # with rho = max d / d_ref, so diag(rho y_ref) - Psi^H diag(d) Psi is
    # PSD.  A step between refreshes takes that y at a later iterate, or a
    # fresh one where d_ref has a zero entry
    cfg, psi, rng = make_problem(**problem)
    run = _run_constants(psi, cfg)
    tt0 = random_lifted_init(rng, cfg.n_i)
    # a run's state after its first step, which is fresh
    first = _Majorizer()
    _, d_ref, y_ref = _surrogate_coefficient(tt0, *_evaluate(tt0, run)[:2], run, first)

    def dominates(d, y):
        coupling = psi.conj().T @ (d[:, None] * psi)
        return np.linalg.eigvalsh(np.diag(y) - coupling)[0] >= -1e-9 * np.max(y, initial=0.0)

    for _ in range(20):
        tt = random_lifted_init(rng, cfg.n_i)
        _, d, y = _surrogate_coefficient(tt, *_evaluate(tt, run)[:2], run, deepcopy(first))
        assert dominates(d, y)
        if cfg.objective_coeffs[0] > 0.0 and d_ref.min() > 0.0:
            np.testing.assert_array_equal(y, np.max(d / d_ref) * y_ref)
            anywhere = d_ref * rng.uniform(0.0, 3.0, d_ref.shape)
            assert dominates(anywhere, np.max(anywhere / d_ref) * y_ref)


@pytest.mark.parametrize("edge", EDGES)
def test_step_from_the_shared_evaluation_maximizes_a_tight_minorizer_at_the_edges(edge):
    # the surrogate built from the one evaluation of tt0 touches the
    # objective there and stays below it; the step taken from that same
    # evaluation maximizes it over the torus, so the objective cannot drop
    cfg, psi, rng = make_problem(**edge)
    run = _run_constants(psi, cfg)
    tt0 = random_lifted_init(rng, cfg.n_i)
    ev0 = _evaluate(tt0, run)
    f0 = ev0[2]
    tol = 1e-9 * max(1.0, abs(f0))
    assert abs(surrogate_value(tt0, tt0, psi, cfg) - f0) <= tol
    x1 = _step(tt0, ev0, run)
    np.testing.assert_allclose(np.abs(x1), 1.0, atol=1e-15)
    s1 = surrogate_value(x1, tt0, psi, cfg)
    assert s1 >= f0 - tol
    assert _evaluate(x1, run)[2] >= s1 - tol
    for _ in range(200):
        tt = random_lifted_init(rng, cfg.n_i)
        s = surrogate_value(tt, tt0, psi, cfg)
        assert s <= lifted_objective(tt, psi, cfg) + tol
        assert s <= s1 + tol


@PROPERTY_SETTINGS
@given(problem=problems)
@with_edges
def test_certified_bound_dominates_and_certificate_is_dual_feasible(problem):
    cfg, psi, rng = make_problem(**problem)
    mm = run_mm(random_lifted_init(rng, cfg.n_i), psi, cfg, MMSettings(max_iter=200))
    ub = solve_sdr(psi, cfg, init=lift_phases(mm.phases))
    tol = 1e-12 * max(1.0, abs(ub.bound_psi_tilde))
    assert ub.bound_psi_tilde >= mm.objectives[-1] - tol
    assert ub.bound_psi_tilde >= ub.primal_psi_tilde - tol
    for _ in range(50):
        assert ub.bound_psi_tilde >= lifted_objective(random_lifted_init(rng, cfg.n_i), psi, cfg) - tol
    # diag(dual) dominates the gradient at the certified point, and the
    # bound is f there plus sum(dual) minus the gradient's inner product
    x = ub.factor @ ub.factor.conj().T
    b = _gradient_factor(_diag_quad(psi, x), psi, cfg)
    g = b.conj().T @ b
    assert np.linalg.eigvalsh(np.diag(ub.dual) - g)[0] >= -1e-9 * np.max(ub.dual, initial=0.0)
    linear = float(np.real(np.sum(g * x.T)))
    expected = ub.primal_psi_tilde + float(np.sum(ub.dual)) - linear
    assert abs(ub.bound_psi_tilde - expected) <= 1e-9 * max(1.0, abs(ub.bound_psi_tilde))


@PROPERTY_SETTINGS
@given(problem=problems)
@with_edges
def test_closed_form_beam_beats_random_beams_of_equal_norm(problem):
    cfg, psi, rng = make_problem(**problem)
    phases = rng.uniform(0.0, 2.0 * np.pi, cfg.n_i)
    if not np.any(composite_vector(phases, psi)):
        return  # no beam direction exists without any channel
    w = optimal_transmit_beam(phases, psi, cfg)
    assert np.linalg.norm(w) ** 2 == pytest.approx(cfg.p_tilde, rel=1e-12)
    best = evaluate_snr(w, phases, psi, cfg)
    for _ in range(50):
        z = complex_gaussian(rng, cfg.n_s)
        z *= np.sqrt(cfg.p_tilde) / np.linalg.norm(z)
        assert evaluate_snr(z, phases, psi, cfg) <= best * (1.0 + 1e-12)


@PROPERTY_SETTINGS
@given(
    bits=st.integers(1, 5),
    phases=st.lists(st.floats(-4.0 * np.pi, 4.0 * np.pi), min_size=1, max_size=12),
)
def test_quantize_phases_picks_the_nearest_level(bits, phases):
    picked = quantize_phases(np.array(phases), bits)
    levels = 2.0 * np.pi * np.arange(2**bits) / 2**bits

    def wrapped(a, b):
        d = np.abs(a - b) % (2.0 * np.pi)
        return np.minimum(d, 2.0 * np.pi - d)

    for phase, choice in zip(phases, picked):
        assert np.any(np.isclose(choice, levels, rtol=0.0, atol=1e-15))
        assert wrapped(phase, choice) <= np.min(wrapped(phase, levels)) + 1e-12


@PROPERTY_SETTINGS
@given(
    master=st.integers(0, 2**64 - 1),
    indices=st.lists(st.integers(0, 2**32), min_size=1, max_size=4),
)
def test_child_seed_deterministic_and_sensitive_to_each_index(master, indices):
    seed = child_seed(master, *indices)
    assert seed == child_seed(master, *indices)
    assert 0 <= seed < 2**64
    assert child_seed((master + 1) % 2**64, *indices) != seed
    for k in range(len(indices)):
        moved = list(indices)
        moved[k] += 1
        assert child_seed(master, *moved) != seed
