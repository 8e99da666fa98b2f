import logging
from dataclasses import replace

import numpy as np
import pytest

import irsbf.sim as sim_mod
from irsbf.channels import Geometry, generate_channels
from irsbf.mm import MMSettings, random_lifted_init
from irsbf.model import ConfigError, DegenerateChannelError, SystemConfig, build_composite
from irsbf.sim import (
    Scheme,
    SweepSpec,
    _design_all,
    _realization_stats,
    child_seed,
    pow2db,
    run_iteration_study,
    run_sweep,
    simulate_ser,
    table_defaults,
    with_setting,
)
from irsbf.txbf import composite_vector, evaluate_snr, optimal_transmit_beam

from conftest import random_channels


def small_setup(n_i=12):
    cfg = SystemConfig(n_s=4, n_i=n_i, p=10**1.2, kappa_s=0.07, kappa_d=0.07, sigma_n2=10**-8.5)
    geo = Geometry(d_si=50.0, d_v=2.0, d_sd_h=49.0)
    return cfg, geo


def design(psi, cfg, seed=0, bits=None):
    """Each scheme's (w, theta, iterations) on ``psi``, from the init of ``default_rng(seed)``."""
    init = random_lifted_init(np.random.default_rng(seed), psi.shape[1] - 1)
    return _design_all(psi, cfg, MMSettings(), bits, init, False)[0]


QPSK = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2.0)


def cn(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def symbol_oracle(w, theta, psi, cfg, n, rng):
    """Symbol-level link: x, z_s, z_d, y_tilde (before receive distortion) and y.

    Draws symbols, transmit distortion, receive distortion with the analytic
    second moment of the undistorted received signal, then noise.
    """
    v = composite_vector(theta, psi)
    g = np.vdot(v, w)
    x = QPSK[rng.integers(0, 4, n)]
    z_s = np.sqrt(cfg.kappa_s) * np.abs(w)[:, None] * cn(rng, (w.size, n))
    m2 = abs(g) ** 2 + cfg.kappa_s * np.sum(np.abs(v) ** 2 * np.abs(w) ** 2) + cfg.sigma_n2
    z_d = np.sqrt(cfg.kappa_d * m2) * cn(rng, n)
    y_tilde = g * x + np.conj(v) @ z_s + np.sqrt(cfg.sigma_n2) * cn(rng, n)
    return x, z_s, z_d, y_tilde, y_tilde + z_d


def oracle_ser(w, theta, psi, cfg, n, rng):
    """Error fraction of the oracle's equalized nearest-constellation decisions."""
    x, _, _, _, y = symbol_oracle(w, theta, psi, cfg, n, rng)
    eq = y / np.vdot(composite_vector(theta, psi), w)
    return float(np.mean(((eq.real < 0) != (x.real < 0)) | ((eq.imag < 0) != (x.imag < 0))))


class TestSeeding:
    def test_child_seed_is_deterministic_and_spread(self):
        a = child_seed(7, 0, 3)
        assert a == child_seed(7, 0, 3)
        others = {child_seed(7, i, j) for i in range(10) for j in range(10)}
        assert len(others) == 100
        assert all(0 <= s < 2**64 for s in others)


class TestDesignBeams:
    def test_zero_kappa_designs_coincide(self):
        cfg, geo = small_setup()
        cfg0 = SystemConfig(n_s=4, n_i=12, p=cfg.p, kappa_s=0.0, kappa_d=0.0, sigma_n2=cfg.sigma_n2)
        psi = build_composite(generate_channels(np.random.default_rng(1), cfg0, geo))
        designs = design(psi, cfg0, 5)
        w_r, theta_r, _ = designs[Scheme.ROBUST_IRS]
        w_n, theta_n, _ = designs[Scheme.NONROBUST_IRS]
        assert evaluate_snr(w_r, theta_r, psi, cfg0) == pytest.approx(
            evaluate_snr(w_n, theta_n, psi, cfg0), rel=1e-9
        )

    def test_robust_dominates_nonrobust_per_realization(self):
        cfg, geo = small_setup()
        for seed in range(15):
            psi = build_composite(generate_channels(np.random.default_rng(seed), cfg, geo))
            designs = design(psi, cfg, seed)
            w_r, theta_r, _ = designs[Scheme.ROBUST_IRS]
            w_n, theta_n, _ = designs[Scheme.NONROBUST_IRS]
            assert evaluate_snr(w_r, theta_r, psi, cfg) >= evaluate_snr(w_n, theta_n, psi, cfg) - 1e-9

    def test_no_irs_schemes(self):
        cfg, geo = small_setup()
        ch = generate_channels(np.random.default_rng(2), cfg, geo)
        psi = build_composite(ch)
        designs = design(psi, cfg)
        w_r, theta_r, _ = designs[Scheme.ROBUST_NO_IRS]
        w_mf, theta_mf, _ = designs[Scheme.NONROBUST_NO_IRS]
        assert theta_r is None and theta_mf is None
        np.testing.assert_allclose(np.linalg.norm(w_mf) ** 2, cfg.p_tilde, rtol=1e-12)
        direction = w_mf / np.linalg.norm(w_mf)
        ref = ch.h_sd / np.linalg.norm(ch.h_sd)
        assert np.abs(np.vdot(direction, ref)) == pytest.approx(1.0, rel=1e-12)
        assert evaluate_snr(w_r, None, psi, cfg) >= evaluate_snr(w_mf, None, psi, cfg) - 1e-12

    def test_all_beams_respect_true_power_budget(self):
        cfg, geo = small_setup()
        psi = build_composite(generate_channels(np.random.default_rng(3), cfg, geo))
        for w, _, _ in design(psi, cfg, 3).values():
            assert np.linalg.norm(w) ** 2 <= cfg.p_tilde * (1 + 1e-9)

    def test_discrete_mode_quantizes(self):
        cfg, geo = small_setup()
        psi = build_composite(generate_channels(np.random.default_rng(4), cfg, geo))
        _, theta, _ = design(psi, cfg, 4, 2)[Scheme.ROBUST_IRS]
        levels = 2 * np.pi * np.arange(4) / 4
        for phase in theta.phases:
            assert min(abs(phase - lv) for lv in levels) < 1e-12


class TestSymbolSimulation:
    def test_perfect_hardware_noiseless_limit(self, rng):
        cfg = SystemConfig(n_s=3, n_i=4, p=2.0, kappa_s=0.0, kappa_d=0.0, sigma_n2=1e-300)
        psi = build_composite(random_channels(rng, 4, 3))
        from irsbf.model import ReflectConfig

        theta = ReflectConfig(rng.uniform(0, 2 * np.pi, 4))
        w = optimal_transmit_beam(theta, psi, cfg)
        assert simulate_ser(evaluate_snr(w, theta, psi, cfg), 2000) == 0.0

    def test_zero_beam_reports_random_guess(self, rng):
        cfg = SystemConfig(n_s=3, n_i=4, p=2.0, kappa_s=0.1, kappa_d=0.1, sigma_n2=0.1)
        psi = build_composite(random_channels(rng, 4, 3))
        assert simulate_ser(evaluate_snr(np.zeros(3, complex), None, psi, cfg), 100) == 0.75

    def test_moment_structure(self, rng):
        cfg = SystemConfig(n_s=4, n_i=5, p=2.0, kappa_s=0.08, kappa_d=0.12, sigma_n2=0.3)
        psi = build_composite(random_channels(rng, 5, 4))
        from irsbf.model import ReflectConfig

        theta = ReflectConfig(rng.uniform(0, 2 * np.pi, 5))
        w = optimal_transmit_beam(theta, psi, cfg)
        x, z_s, z_d, y_tilde, _ = symbol_oracle(w, theta, psi, cfg, 200_000, np.random.default_rng(8))
        v = composite_vector(theta, psi)
        g = np.vdot(v, w)
        m2 = abs(g) ** 2 + cfg.kappa_s * np.sum(np.abs(v) ** 2 * np.abs(w) ** 2) + cfg.sigma_n2
        assert np.mean(np.abs(y_tilde) ** 2) == pytest.approx(m2, rel=0.02)
        assert np.mean(np.abs(z_d) ** 2) == pytest.approx(cfg.kappa_d * m2, rel=0.02)
        for i in range(4):
            assert np.mean(np.abs(z_s[i]) ** 2) == pytest.approx(
                cfg.kappa_s * abs(w[i]) ** 2, rel=0.03
            )
        np.testing.assert_allclose(np.abs(x), 1.0, atol=1e-12)

    def test_ser_matches_gaussian_formula(self, rng):
        cfg = SystemConfig(n_s=4, n_i=6, p=2.0, kappa_s=0.05, kappa_d=0.05, sigma_n2=0.4)
        psi = build_composite(random_channels(rng, 6, 4))
        from irsbf.model import ReflectConfig

        theta = ReflectConfig(rng.uniform(0, 2 * np.pi, 6))
        w = optimal_transmit_beam(theta, psi, cfg)
        n = 200_000
        ser = oracle_ser(w, theta, psi, cfg, n, np.random.default_rng(77))
        expected = simulate_ser(evaluate_snr(w, theta, psi, cfg), n)
        stderr = np.sqrt(expected * (1 - expected) / n)
        assert abs(ser - expected) < 3 * stderr


class TestSweep:
    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            SweepSpec(variable="n_i", values=())
        with pytest.raises(ConfigError):
            SweepSpec(variable="n_i", values=(4, 2))
        with pytest.raises(ConfigError):
            SweepSpec(variable="n_i", values=(4,), n_channels=0)
        with pytest.raises(ConfigError, match="unknown sweep variable 'frequency'"):
            SweepSpec(variable="frequency", values=(4,))
        with pytest.raises(ConfigError, match="epsilon must be positive and finite, got inf"):
            SweepSpec(variable="n_i", values=(4,), epsilon=float("inf"))

    @pytest.mark.parametrize("bits", [0, -1, 1.5])
    def test_bits_must_be_a_positive_integer(self, bits):
        with pytest.raises(ConfigError, match="bits >= 1"):
            SweepSpec(variable="n_i", values=(4,), bits=bits)

    def test_non_integer_surface_size_rejected_before_any_point_runs(self):
        cfg, geo = small_setup()
        assert with_setting(cfg, geo, "n_i", 6.0)[0].n_i == 6
        with pytest.raises(ConfigError, match="n_i must be an integer, got 4.6"):
            with_setting(cfg, geo, "n_i", 4.6)
        spec = SweepSpec(variable="n_i", values=(4, 4.5), n_channels=1, n_symbols=0)
        finished = []
        with pytest.raises(ConfigError, match="got 4.5"):
            run_sweep(spec, cfg, geo, on_point=finished.append)
        assert finished == []

    def test_deterministic_under_seed(self):
        cfg, geo = small_setup()
        spec = SweepSpec(
            variable="n_i", values=(4.0,), n_channels=3, n_symbols=200, seed=13,
            bound=False,
        )
        r1 = run_sweep(spec, cfg, geo)
        r2 = run_sweep(spec, cfg, geo)
        assert r1[0].stats[Scheme.ROBUST_IRS] == r2[0].stats[Scheme.ROBUST_IRS]

    def test_snr_grows_with_surface_size(self):
        cfg, geo = small_setup()
        spec = SweepSpec(
            variable="n_i", values=(4.0, 24.0, 48.0), n_channels=20, n_symbols=0,
            seed=3, bound=False,
        )
        results = run_sweep(spec, cfg, geo)
        robust = [r.stats[Scheme.ROBUST_IRS].mean_snr_db for r in results]
        assert robust[0] < robust[1] < robust[2]
        baseline = [r.stats[Scheme.ROBUST_NO_IRS].mean_snr_db for r in results]
        assert max(baseline) - min(baseline) < 2.0  # flat within Monte-Carlo wobble

    def test_destination_near_surface_is_best(self):
        cfg, geo = small_setup(n_i=32)
        spec = SweepSpec(
            variable="d_sd_h", values=(40.0, 50.0, 60.0), n_channels=20,
            n_symbols=0, seed=5, bound=False,
        )
        results = run_sweep(spec, cfg, geo)
        snrs = {r.sweep_value: r.stats[Scheme.ROBUST_IRS].mean_snr_db for r in results}
        assert snrs[50.0] > snrs[40.0]
        assert snrs[50.0] > snrs[60.0]

    def test_dominance_chain_with_bound(self):
        cfg, geo = small_setup(n_i=10)
        spec = SweepSpec(
            variable="n_i", values=(10.0,), n_channels=6, n_symbols=0, seed=21,
        )
        res = run_sweep(spec, cfg, geo)[0]
        assert res.stats[Scheme.UPPER_BOUND].mean_snr_db >= res.stats[Scheme.ROBUST_IRS].mean_snr_db - 1e-6
        assert res.stats[Scheme.ROBUST_IRS].mean_snr_db >= res.stats[Scheme.NONROBUST_IRS].mean_snr_db - 1e-9
        assert res.stats[Scheme.ROBUST_IRS].mean_snr_db >= res.stats[Scheme.ROBUST_NO_IRS].mean_snr_db - 1e-9

    def test_linear_domain_averaging(self):
        cfg, geo = small_setup(n_i=4)
        spec = SweepSpec(
            variable="n_i", values=(4.0,), n_channels=4, n_symbols=0, seed=9,
            bound=False,
        )
        res = run_sweep(spec, cfg, geo)[0]
        snrs = []
        for r in range(4):
            rng = np.random.default_rng(child_seed(9, 0, r))
            ch = generate_channels(rng, cfg, geo)
            psi = build_composite(ch)
            w = np.sqrt(cfg.p_tilde) * ch.h_sd / np.linalg.norm(ch.h_sd)
            snrs.append(evaluate_snr(w, None, psi, cfg))
        assert res.stats[Scheme.NONROBUST_NO_IRS].mean_snr_db == pytest.approx(
            pow2db(float(np.mean(snrs))), abs=1e-9
        )


class TestTrends:
    def test_no_irs_collapse_at_zero_elements(self):
        cfg, geo = small_setup(n_i=0)
        psi = build_composite(generate_channels(np.random.default_rng(17), cfg, geo))
        snrs = {
            scheme: evaluate_snr(w, theta, psi, cfg)
            for scheme, (w, theta, _) in design(psi, cfg, 17).items()
        }
        assert snrs[Scheme.ROBUST_IRS] == pytest.approx(snrs[Scheme.ROBUST_NO_IRS], rel=1e-9)
        assert snrs[Scheme.NONROBUST_IRS] == pytest.approx(snrs[Scheme.NONROBUST_NO_IRS], rel=1e-9)
        assert snrs[Scheme.ROBUST_IRS] >= snrs[Scheme.NONROBUST_IRS] - 1e-12

    def test_two_bit_phases_cost_little(self):
        cfg, geo = small_setup(n_i=32)
        base = dict(variable="n_i", values=(32.0,), n_channels=15, n_symbols=0,
                    seed=23, bound=False)
        cont = run_sweep(SweepSpec(**base), cfg, geo)[0]
        disc = run_sweep(SweepSpec(**base, bits=2), cfg, geo)[0]
        gap = cont.stats[Scheme.ROBUST_IRS].mean_snr_db - disc.stats[Scheme.ROBUST_IRS].mean_snr_db
        assert gap >= -1e-9
        assert gap < 1.5

    def test_ser_tracks_snr_across_power(self):
        cfg, geo = small_setup(n_i=16)
        spec = SweepSpec(
            variable="p_dbw", values=(0.0, 8.0), n_channels=25, n_symbols=1500,
            seed=29, bound=False,
        )
        low, high = run_sweep(spec, cfg, geo)
        assert high.stats[Scheme.ROBUST_IRS].mean_snr_db > low.stats[Scheme.ROBUST_IRS].mean_snr_db
        assert high.stats[Scheme.ROBUST_IRS].ser < low.stats[Scheme.ROBUST_IRS].ser


class TestUpperBoundScheme:
    def test_bound_not_below_designed_schemes(self):
        # here the robust scheme keeps the nonrobust phases, which beat its
        # own MM solution; the bound must still dominate both designs
        cfg, geo = table_defaults()
        cfg = replace(cfg, n_i=16)
        seed = child_seed(7, 16, 25)
        out = _realization_stats(
            (cfg, geo, MMSettings(), None, 0, True, seed)
        )
        bound = out[Scheme.UPPER_BOUND.value][0]
        assert bound >= out[Scheme.ROBUST_IRS.value][0]
        assert bound >= out[Scheme.NONROBUST_IRS.value][0]


class TestSerOrdering:
    @pytest.mark.parametrize("n_i", [0, 8, 32])
    def test_robust_ser_not_above_nonrobust_per_realization(self, n_i):
        # the robust design's SNR never falls below the nonrobust one's, so
        # neither may its SER, with and without the surface
        cfg, geo = table_defaults()
        cfg = replace(cfg, n_i=n_i)
        pairs = (
            (Scheme.ROBUST_IRS, Scheme.NONROBUST_IRS),
            (Scheme.ROBUST_NO_IRS, Scheme.NONROBUST_NO_IRS),
        )
        for s in range(20):
            out = _realization_stats(
                (cfg, geo, MMSettings(), None, 2000, False,
                 child_seed(5, n_i, s))
            )
            for robust, nonrobust in pairs:
                assert out[robust.value][1] <= out[nonrobust.value][1], (s, robust)


class TestFailureHandling:
    SPEC = SweepSpec(
        variable="n_i", values=(4.0,), n_channels=3, n_symbols=0, seed=1,
        bound=False,
    )

    def test_failed_realizations_skipped_and_logged(self, monkeypatch, caplog):
        original = sim_mod._realization_stats
        calls = {"n": 0}

        def flaky(args):
            calls["n"] += 1
            if calls["n"] == 2:
                return {"failed": "RuntimeError: injected"}
            return original(args)

        monkeypatch.setattr(sim_mod, "_realization_stats", flaky)
        cfg, geo = small_setup(n_i=4)
        spec = SweepSpec(
            variable="n_i", values=(4.0,), n_channels=3, n_symbols=0, seed=1,
            bound=False,
        )

        with caplog.at_level(logging.WARNING, logger="irsbf.sim"):
            results = run_sweep(spec, cfg, geo)
        assert len(results) == 1
        assert "skipped 1/3" in caplog.text

    def test_domain_error_in_realization_is_skipped_and_logged(self, monkeypatch, caplog):
        original = sim_mod.generate_channels
        calls = {"n": 0}

        def degenerate_second(*args):
            calls["n"] += 1
            if calls["n"] == 2:
                raise DegenerateChannelError("degenerate channel: injected")
            return original(*args)

        monkeypatch.setattr(sim_mod, "generate_channels", degenerate_second)
        cfg, geo = small_setup(n_i=4)
        with caplog.at_level(logging.WARNING, logger="irsbf.sim"):
            results = run_sweep(self.SPEC, cfg, geo)
        assert len(results) == 1
        assert "skipped 1/3" in caplog.text
        assert "DegenerateChannelError: degenerate channel: injected" in caplog.text

    def test_config_error_in_realization_propagates(self, monkeypatch):
        # a realization's configuration was checked when its point was
        # built, so a ConfigError inside one is a fault, not a failed draw
        def misconfigured(*args):
            raise ConfigError("injected")

        monkeypatch.setattr(sim_mod, "generate_channels", misconfigured)
        cfg, geo = small_setup(n_i=4)
        with pytest.raises(ConfigError, match="injected"):
            run_sweep(self.SPEC, cfg, geo)

    def test_programming_error_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("injected")

        monkeypatch.setattr(sim_mod, "run_mm", broken)
        cfg, geo = small_setup(n_i=4)
        with pytest.raises(TypeError, match="injected"):
            run_sweep(self.SPEC, cfg, geo)


class TestCompositeOncePerRealization:
    def test_bound_reuses_the_designs_composite(self, monkeypatch):
        original = sim_mod.build_composite
        calls = {"n": 0}

        def counting(ch):
            calls["n"] += 1
            return original(ch)

        monkeypatch.setattr(sim_mod, "build_composite", counting)
        cfg, geo = small_setup(n_i=4)
        spec = SweepSpec(
            variable="n_i", values=(4.0, 6.0), n_channels=3, n_symbols=0, seed=3,
            bound=True,
        )
        results = run_sweep(spec, cfg, geo)
        assert all(Scheme.UPPER_BOUND in r.stats for r in results)
        assert calls["n"] == 2 * 3


class TestIterationStudy:
    def test_rejects_zero_channels(self):
        cfg, geo = small_setup()
        with pytest.raises(ConfigError, match="n_channels must be >= 1, got 0"):
            run_iteration_study([4], cfg, geo, seed=1, n_channels=0)

    def test_rejects_non_integer_surface_size(self):
        cfg, geo = small_setup()
        with pytest.raises(ConfigError, match="n_i must be an integer, got 4.6"):
            run_iteration_study([4, 4.6], cfg, geo, seed=1, n_channels=1)

    @pytest.mark.parametrize("epsilon", [-1.0, float("inf")])
    def test_epsilon_checked_before_the_first_draw(self, epsilon, monkeypatch):
        def drawn(*args):
            raise AssertionError("a channel was drawn")

        monkeypatch.setattr(sim_mod, "_draw", drawn)
        cfg, geo = small_setup()
        with pytest.raises(ConfigError, match="epsilon must be positive and finite"):
            run_iteration_study([4], cfg, geo, seed=1, n_channels=1, epsilon=epsilon)

    def test_acceleration_and_robustness_ordering(self):
        cfg, geo = small_setup()
        rows = run_iteration_study([6, 16], cfg, geo, seed=31, n_channels=8)
        for row in rows:
            assert row.robust_accel < row.robust_plain
            assert row.nonrobust_accel < row.nonrobust_plain
            assert row.nonrobust_plain < row.robust_plain
        assert rows[1].robust_plain > rows[0].robust_plain
