import logging
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import irsbf.sim as sim_mod
from irsbf.channels import Geometry, generate_channels
from irsbf.mm import MMResult, MMSettings, random_lifted_init, run_mm
from irsbf.model import (
    ConfigError,
    DegenerateChannelError,
    SystemConfig,
    build_composite,
    lift_phases,
    reflect_phases,
)
from irsbf.sim import (
    Scheme,
    SweepSpec,
    _draw,
    _nonrobust_config,
    _sweep_task,
    child_seed,
    pow2db,
    run_bound_check,
    run_iteration_study,
    run_sweep,
    simulate_ser,
    table_defaults,
    with_setting,
)
from irsbf.txbf import (
    composite_vector,
    evaluate_snr,
    optimal_transmit_beam,
    psi_tilde,
    snr_from_psi_tilde,
)

from conftest import design_all, design_objective, random_channels
from test_properties import EDGES, make_problem


def small_setup(n_i=12):
    cfg = SystemConfig(n_s=4, n_i=n_i, p=10**1.2, kappa_s=0.07, kappa_d=0.07, sigma_n2=10**-8.5)
    geo = Geometry(d_si=50.0, d_v=2.0, d_sd_h=49.0)
    return cfg, geo


def design(psi, cfg, seed=0, bits=None):
    """Each scheme's (snr, lifted, iterations) on ``psi``, from the init of ``default_rng(seed)``."""
    init = random_lifted_init(np.random.default_rng(seed), psi.shape[1] - 1)
    return design_all(psi, cfg, MMSettings(), bits, init, False)[0]


def beam_snrs(designs, psi, cfg):
    """The oracle: each scheme's SNR as ``evaluate_snr`` of its per-realization ``txbf`` beam.

    The robust schemes use the optimal beam of their reflection; the
    nonrobust ones the kappa = 0 optimal beam, scaled to the feasible norm
    sqrt(p_tilde).
    """
    cfg0 = _nonrobust_config(cfg)
    scale = np.sqrt(cfg.p_tilde / cfg0.p_tilde)
    phases_r, phases_n = (reflect_phases(designs[s][1]) for s in (Scheme.ROBUST_IRS, Scheme.NONROBUST_IRS))
    beams = {
        Scheme.ROBUST_IRS: (optimal_transmit_beam(phases_r, psi, cfg), phases_r),
        Scheme.NONROBUST_IRS: (optimal_transmit_beam(phases_n, psi, cfg0) * scale, phases_n),
        Scheme.ROBUST_NO_IRS: (optimal_transmit_beam(None, psi, cfg), None),
        Scheme.NONROBUST_NO_IRS: (optimal_transmit_beam(None, psi, cfg0) * scale, None),
    }
    return {scheme: evaluate_snr(w, phases, psi, cfg) for scheme, (w, phases) in beams.items()}


QPSK = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2.0)


def cn(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def symbol_oracle(w, phases, psi, cfg, n, rng):
    """Symbol-level link: x, z_s, z_d, y_tilde (before receive distortion) and y.

    Draws symbols, transmit distortion, receive distortion with the analytic
    second moment of the undistorted received signal, then noise.
    """
    v = composite_vector(phases, psi)
    g = np.vdot(v, w)
    x = QPSK[rng.integers(0, 4, n)]
    z_s = np.sqrt(cfg.kappa_s) * np.abs(w)[:, None] * cn(rng, (w.size, n))
    m2 = abs(g) ** 2 + cfg.kappa_s * np.sum(np.abs(v) ** 2 * np.abs(w) ** 2) + cfg.sigma_n2
    z_d = np.sqrt(cfg.kappa_d * m2) * cn(rng, n)
    y_tilde = g * x + np.conj(v) @ z_s + np.sqrt(cfg.sigma_n2) * cn(rng, n)
    return x, z_s, z_d, y_tilde, y_tilde + z_d


def oracle_ser(w, phases, psi, cfg, n, rng):
    """Error fraction of the oracle's equalized nearest-constellation decisions."""
    x, _, _, _, y = symbol_oracle(w, phases, psi, cfg, n, rng)
    eq = y / np.vdot(composite_vector(phases, psi), w)
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
        assert designs[Scheme.ROBUST_IRS][0] == pytest.approx(
            designs[Scheme.NONROBUST_IRS][0], rel=1e-9
        )

    def test_robust_dominates_nonrobust_per_realization(self):
        cfg, geo = small_setup()
        for seed in range(15):
            psi = build_composite(generate_channels(np.random.default_rng(seed), cfg, geo))
            designs = design(psi, cfg, seed)
            assert designs[Scheme.ROBUST_IRS][0] >= designs[Scheme.NONROBUST_IRS][0] - 1e-9

    def test_no_irs_schemes(self):
        cfg, geo = small_setup()
        ch = generate_channels(np.random.default_rng(2), cfg, geo)
        psi = build_composite(ch)
        designs = design(psi, cfg)
        snr_r, theta_r, _ = designs[Scheme.ROBUST_NO_IRS]
        snr_mf, theta_mf, _ = designs[Scheme.NONROBUST_NO_IRS]
        assert theta_r is None and theta_mf is None
        # the matched filter on the direct link at the feasible norm
        w_mf = np.sqrt(cfg.p_tilde) * ch.h_sd / np.linalg.norm(ch.h_sd)
        assert snr_mf == pytest.approx(evaluate_snr(w_mf, None, psi, cfg), rel=1e-12, abs=0.0)
        w_r = optimal_transmit_beam(None, psi, cfg)
        assert snr_r == pytest.approx(evaluate_snr(w_r, None, psi, cfg), rel=1e-12, abs=0.0)
        assert snr_r >= snr_mf - 1e-12

    def test_all_beams_respect_true_power_budget(self):
        cfg, geo = small_setup()
        psi = build_composite(generate_channels(np.random.default_rng(3), cfg, geo))
        designs = design(psi, cfg, 3)
        cfg0 = _nonrobust_config(cfg)
        for phases in (reflect_phases(designs[Scheme.ROBUST_IRS][1]), None):
            w = optimal_transmit_beam(phases, psi, cfg)
            assert np.linalg.norm(w) ** 2 <= cfg.p_tilde * (1 + 1e-9)
        for phases in (reflect_phases(designs[Scheme.NONROBUST_IRS][1]), None):
            w = optimal_transmit_beam(phases, psi, cfg0) * np.sqrt(cfg.p_tilde / cfg0.p_tilde)
            assert np.linalg.norm(w) ** 2 <= cfg.p_tilde * (1 + 1e-9)

    def test_discrete_mode_quantizes(self):
        cfg, geo = small_setup()
        psi = build_composite(generate_channels(np.random.default_rng(4), cfg, geo))
        _, lifted, _ = design(psi, cfg, 4, 2)[Scheme.ROBUST_IRS]
        # every coefficient is one of the four levels exp(2 pi i k / 4), and the slack is 1
        np.testing.assert_allclose(lifted[:-1] ** 4, 1.0, rtol=0.0, atol=1e-12)
        assert lifted[-1] == 1.0


@pytest.fixture
def mm_runs(monkeypatch):
    """The results of the simulator's ``run_mm`` calls, in call order."""
    runs = []
    original = sim_mod.run_mm

    def recording(*args, **kwargs):
        runs.append(original(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(sim_mod, "run_mm", recording)
    return runs


class TestContinuation:
    """The robust design continues the nonrobust one from kappa = 0 to the true kappa."""

    def test_robust_run_starts_at_the_nonrobust_design(self, mm_runs):
        cfg, geo = table_defaults()
        for r in range(5):
            (psi,), (init,) = _draw(cfg, geo, (child_seed(2, r),))
            mm_runs.clear()
            designs = design_all(psi, cfg, MMSettings(), None, init, False)[0]
            res_n, res_r = mm_runs
            assert res_n.objectives == run_mm(init, psi, _nonrobust_config(cfg)).objectives
            assert res_r.objectives[0] == pytest.approx(
                psi_tilde(res_n.phases, psi, cfg), rel=1e-12
            )
            for scheme, res in ((Scheme.ROBUST_IRS, res_r), (Scheme.NONROBUST_IRS, res_n)):
                _, lifted, iterations = designs[scheme]
                assert iterations == res.iterations
                assert lifted.tobytes() == lift_phases(res.phases).tobytes()

    @pytest.mark.parametrize("bits", [None, 1, 2])
    @pytest.mark.parametrize("edge", EDGES)
    def test_robust_dominates_nonrobust_at_the_edges(self, edge, bits, mm_runs):
        # MM never lowers the objective, so the continued design dominates
        # up to rounding (1 ulp seen at n_s = 1); with bits the robust
        # scheme keeps the better quantized profile, which dominates too
        cfg, psi, rng = make_problem(**edge)
        for _ in range(5):
            init = random_lifted_init(rng, cfg.n_i)
            mm_runs.clear()
            if not psi[:, -1].any():
                # without a direct link there is no no-IRS beam, and the
                # realization fails before any MM run; the continuation,
                # run here, still dominates
                with pytest.raises(DegenerateChannelError):
                    design_all(psi, cfg, MMSettings(), bits, init, False)
                assert mm_runs == []
                res_n = run_mm(init, psi, _nonrobust_config(cfg))
                res_r = run_mm(lift_phases(res_n.phases), psi, cfg)
                nonrobust = psi_tilde(res_n.phases, psi, cfg)
                assert res_r.objectives[-1] >= nonrobust * (1.0 - 1e-12)
                continue
            designs = design_all(psi, cfg, MMSettings(), bits, init, False)[0]
            robust, nonrobust = designs[Scheme.ROBUST_IRS][0], designs[Scheme.NONROBUST_IRS][0]
            assert robust >= nonrobust * (1.0 - 1e-12)

    @pytest.mark.parametrize("bits", [1, 2])
    def test_quantized_robust_scheme_keeps_the_better_profile(self, bits):
        # at kappa 0.02 rounding reorders the two profiles' SNRs in 1 to 5
        # of these 40 realizations per size and resolution, and keeping the
        # better quantized profile restores dominance
        cfg, geo = with_setting(*table_defaults(), "kappa", 0.02)
        for n_i in (8, 16):
            point = (replace(cfg, n_i=n_i), geo, MMSettings(), bits, 0, False)
            for s in range(40):
                out = _sweep_task((*point, (child_seed(3, s),)))[0]
                robust, nonrobust = out["robust_irs"][0], out["nonrobust_irs"][0]
                assert robust >= nonrobust * (1.0 - 1e-12), (n_i, s)

    def test_continuation_takes_fewer_robust_iterations_than_the_random_start(self):
        cfg, geo = table_defaults()
        continued, cold = [], []
        for r in range(10):
            (psi,), (init,) = _draw(cfg, geo, (child_seed(1, r),))
            designs = design_all(psi, cfg, MMSettings(), None, init, False)[0]
            continued.append(designs[Scheme.ROBUST_IRS][2])
            cold.append(run_mm(init, psi, cfg, MMSettings()).iterations)
        assert np.mean(continued) < np.mean(cold)


class TestSymbolSimulation:
    def test_perfect_hardware_noiseless_limit(self, rng):
        cfg = SystemConfig(n_s=3, n_i=4, p=2.0, kappa_s=0.0, kappa_d=0.0, sigma_n2=1e-300)
        psi = build_composite(random_channels(rng, 4, 3))
        phases = rng.uniform(0, 2 * np.pi, 4)
        w = optimal_transmit_beam(phases, psi, cfg)
        assert simulate_ser(evaluate_snr(w, phases, psi, cfg), 2000) == 0.0

    def test_zero_beam_reports_random_guess(self, rng):
        cfg = SystemConfig(n_s=3, n_i=4, p=2.0, kappa_s=0.1, kappa_d=0.1, sigma_n2=0.1)
        psi = build_composite(random_channels(rng, 4, 3))
        assert simulate_ser(evaluate_snr(np.zeros(3, complex), None, psi, cfg), 100) == 0.75

    def test_moment_structure(self, rng):
        cfg = SystemConfig(n_s=4, n_i=5, p=2.0, kappa_s=0.08, kappa_d=0.12, sigma_n2=0.3)
        psi = build_composite(random_channels(rng, 5, 4))
        phases = rng.uniform(0, 2 * np.pi, 5)
        w = optimal_transmit_beam(phases, psi, cfg)
        x, z_s, z_d, y_tilde, _ = symbol_oracle(w, phases, psi, cfg, 200_000, np.random.default_rng(8))
        v = composite_vector(phases, psi)
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
        phases = rng.uniform(0, 2 * np.pi, 6)
        w = optimal_transmit_beam(phases, psi, cfg)
        n = 200_000
        ser = oracle_ser(w, phases, psi, cfg, n, np.random.default_rng(77))
        expected = simulate_ser(evaluate_snr(w, phases, psi, cfg), n)
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
        snrs = {scheme: snr for scheme, (snr, _, _) in design(psi, cfg, 17).items()}
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
    @pytest.mark.parametrize("n_i", [0, 1, 2, 16])
    def test_bound_dominates_every_design_per_realization(self, n_i):
        # without a surface the bound's slack sum(y) - <G, X> is exactly 0,
        # so only its rounding allowance keeps it above the designs
        cfg, geo = table_defaults()
        cfg = replace(cfg, n_i=n_i)
        for s in range(60):
            (psi,), (init,) = _draw(cfg, geo, (child_seed(13, n_i, s),))
            designs, ub = design_all(psi, cfg, MMSettings(), None, init, True)
            for scheme, (snr, lifted, _) in designs.items():
                assert ub.bound_psi_tilde >= design_objective(lifted, psi, cfg), (s, scheme)
                assert ub.bound_snr >= snr, (s, scheme)

    def test_bound_not_below_designed_schemes(self):
        cfg, geo = table_defaults()
        cfg = replace(cfg, n_i=16)
        seed = child_seed(7, 16, 25)
        out = _sweep_task(
            (cfg, geo, MMSettings(), None, 0, True, (seed,))
        )[0]
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
            out = _sweep_task(
                (cfg, geo, MMSettings(), None, 2000, False,
                 (child_seed(5, n_i, s),))
            )[0]
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
        original = sim_mod._draw

        def degenerate_second(cfg, geo, seeds):
            psis, inits = original(cfg, geo, seeds)
            psis[1] = 0.0
            return psis, inits

        monkeypatch.setattr(sim_mod, "_draw", degenerate_second)
        cfg, geo = small_setup(n_i=4)
        with caplog.at_level(logging.WARNING, logger="irsbf.sim"):
            results = run_sweep(self.SPEC, cfg, geo)
        assert len(results) == 1
        assert "skipped 1/3" in caplog.text
        assert "DegenerateChannelError: degenerate channel: composite vector is zero" in caplog.text

    def test_config_error_in_realization_propagates(self, monkeypatch):
        # a realization's configuration was checked when its point was
        # built, so a ConfigError inside one is a fault, not a failed draw
        def misconfigured(*args):
            raise ConfigError("injected")

        monkeypatch.setattr(sim_mod, "_draw", misconfigured)
        cfg, geo = small_setup(n_i=4)
        with pytest.raises(ConfigError, match="injected"):
            run_sweep(self.SPEC, cfg, geo)

    def test_programming_error_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("injected")

        # a chunk of three runs as a stack; a chunk of one, through run_mm
        monkeypatch.setattr(sim_mod, "run_mm", broken)
        monkeypatch.setattr(sim_mod, "run_stacked_mm", broken)
        cfg, geo = small_setup(n_i=4)
        with pytest.raises(TypeError, match="injected"):
            run_sweep(replace(self.SPEC, n_channels=1), cfg, geo)
        with pytest.raises(TypeError, match="injected"):
            run_sweep(self.SPEC, cfg, geo)


class TestSweepChunks:
    """A sweep task designs a chunk of one point's realizations as MM stacks."""

    @pytest.mark.parametrize("bits, bound", [(None, False), (2, True)])
    @pytest.mark.parametrize("chunk", [1, 3])
    def test_rows_do_not_depend_on_the_chunk(self, monkeypatch, chunk, bits, bound):
        # chunk 1 runs every design through run_mm; 3 runs stacks of three,
        # a last chunk of one through run_mm; the default, one stack per run
        cfg, geo = table_defaults()
        spec = SweepSpec(
            variable="n_i", values=(4.0, 50.0), n_channels=7, n_symbols=100, seed=17,
            bits=bits, bound=bound,
        )
        default = run_sweep(spec, cfg, geo)
        monkeypatch.setattr(sim_mod, "_CHUNK", chunk)
        assert run_sweep(spec, cfg, geo) == default

    @pytest.mark.parametrize("chunk", [1, 3])
    def test_large_surface_rows_do_not_depend_on_the_chunk(self, monkeypatch, chunk):
        # n_i 200: the default is one stack of nine rows
        cfg, geo = table_defaults()
        spec = SweepSpec(variable="n_i", values=(200.0,), n_channels=9, n_symbols=100, seed=4,
                         bound=False)
        default = run_sweep(spec, cfg, geo)
        monkeypatch.setattr(sim_mod, "_CHUNK", chunk)
        assert run_sweep(spec, cfg, geo) == default

    def test_stacked_designs_are_each_realizations_own(self, mm_runs):
        # the oracle: each realization as a chunk of one, through run_mm
        cfg, geo = small_setup(n_i=8)
        point = (cfg, geo, MMSettings(), 1, 100, True)
        seeds = tuple(child_seed(8, r) for r in range(5))
        stats = sim_mod._sweep_task((*point, seeds))
        assert mm_runs == []  # both runs went through the stacks
        for seed, out in zip(seeds, stats):
            assert out == sim_mod._sweep_task((*point, (seed,)))[0]
        assert len(mm_runs) == 2 * len(seeds)

    def test_a_degenerate_channel_mid_chunk_fails_alone(self, monkeypatch):
        cfg, geo = small_setup(n_i=6)
        point = (cfg, geo, MMSettings(), None, 100, False)
        seeds = tuple(child_seed(9, r) for r in range(5))
        clean = sim_mod._sweep_task((*point, seeds))
        original = sim_mod._draw

        def no_direct_link_for_the_third(cfg, geo, seeds):
            psis, inits = original(cfg, geo, seeds)
            psis[2, :, -1] = 0.0
            return psis, inits

        monkeypatch.setattr(sim_mod, "_draw", no_direct_link_for_the_third)
        out = sim_mod._sweep_task((*point, seeds))
        assert out[2] == {
            "failed": "DegenerateChannelError: degenerate channel: composite vector is zero"
        }
        assert out[:2] + out[3:] == clean[:2] + clean[3:]


    def test_a_whole_point_chunk_holds_few_copies_of_its_composites(self):
        # tracemalloc's peak while a task designs 20 realizations at n_i 200
        # with no bound, in composite stacks: 6.7 when the MM stacks copied
        # the draws and their inits, under 5 with the draw used in place
        cfg, geo = table_defaults()
        cfg = replace(cfg, n_i=200)
        seeds = tuple(child_seed(5, r) for r in range(20))
        task = (cfg, geo, MMSettings(), None, 2000, False, seeds)
        _sweep_task(task)  # numpy's one-time allocations
        tracemalloc.start()
        try:
            _sweep_task(task)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        stack = len(seeds) * cfg.n_s * (cfg.n_i + 1) * np.dtype(complex).itemsize
        assert peak / stack < 5.3


# the pinned edges, and tiny noise (sigma_n2 = 1e-30 W) at one antenna, at
# kappa = 0 with extreme power, and at the defaults' distortion levels
CHUNK_CASES = [(edge, None) for edge in EDGES] + [
    (EDGES[1], 1e-30),
    (EDGES[5], 1e-30),
    (dict(n_s=4, n_i=6, kappa_s=0.07, kappa_d=0.07, log10_p=1.2, log10_snr=2.0,
          direct=True, seed=9), 1e-30),
]


class TestChunkScoring:
    """A chunk's four SNRs are array operations over its rows, equal to each realization's beam."""

    @pytest.mark.parametrize("bits", [None, 1, 2])
    @pytest.mark.parametrize("edge, sigma_n2", CHUNK_CASES)
    def test_each_scheme_is_its_beams_snr_at_the_edges(self, edge, sigma_n2, bits):
        problems = [make_problem(**{**edge, "seed": edge["seed"] + 1000 * j}) for j in range(4)]
        cfg = problems[0][0]
        if sigma_n2 is not None:
            cfg = replace(cfg, sigma_n2=sigma_n2)
        psis = np.stack([psi for _, psi, _ in problems])
        inits = np.stack([random_lifted_init(rng, cfg.n_i) for _, _, rng in problems])
        out = sim_mod._design_rows(psis, inits, cfg, MMSettings(), bits, False)
        for psi, row in zip(psis, out):
            if not edge["direct"]:
                assert isinstance(row, DegenerateChannelError)
                continue
            designs, _ = row
            oracle = beam_snrs(designs, psi, cfg)
            for scheme, snr in oracle.items():
                assert designs[scheme][0] == pytest.approx(snr, rel=1e-12, abs=0.0), scheme

    @pytest.mark.parametrize("bits", [None, 1, 2])
    @pytest.mark.parametrize("n_i", [0, 8, 50])
    def test_each_scheme_is_its_beams_snr_on_the_sweeps_draws(self, n_i, bits):
        cfg, geo = table_defaults()
        cfg = replace(cfg, n_i=n_i)
        psis, inits = _draw(cfg, geo, tuple(child_seed(31, n_i, r) for r in range(6)))
        out = sim_mod._design_rows(psis, inits, cfg, MMSettings(), bits, False)
        for psi, (designs, _) in zip(psis, out):
            oracle = beam_snrs(designs, psi, cfg)
            for scheme, snr in oracle.items():
                assert designs[scheme][0] == pytest.approx(snr, rel=1e-12, abs=0.0), scheme

    def test_robust_irs_is_the_objective_of_its_reflection(self):
        cfg, geo = table_defaults()
        psis, inits = _draw(cfg, geo, tuple(child_seed(32, r) for r in range(4)))
        for psi, (designs, _) in zip(psis, sim_mod._design_rows(
                psis, inits, cfg, MMSettings(), 2, False)):
            snr, lifted, _ = designs[Scheme.ROBUST_IRS]
            assert snr == snr_from_psi_tilde(design_objective(lifted, psi, cfg), cfg)

    @pytest.mark.parametrize("bits, bound", [(None, False), (2, True)])
    def test_a_missing_direct_link_mid_chunk_leaves_the_others_scored(self, bits, bound):
        cfg, geo = small_setup(n_i=6)
        psis, inits = _draw(cfg, geo, tuple(child_seed(33, r) for r in range(6)))
        psis[3, :, -1] = 0.0
        out = sim_mod._design_rows(psis, inits, cfg, MMSettings(), bits, bound)
        assert isinstance(out[3], DegenerateChannelError)
        assert str(out[3]) == "degenerate channel: composite vector is zero"
        for k in (0, 1, 2, 4, 5):
            (alone,) = sim_mod._design_rows(psis[k:k + 1], inits[k:k + 1], cfg, MMSettings(),
                                            bits, bound)
            designs, ub = out[k]
            assert designs.keys() == alone[0].keys()
            for scheme, (snr, theta, iterations) in designs.items():
                snr_1, theta_1, iterations_1 = alone[0][scheme]
                assert (snr, iterations) == (snr_1, iterations_1), (k, scheme)
                assert (theta is None) == (theta_1 is None)
                if theta is not None:
                    assert theta.tobytes() == theta_1.tobytes()
            assert (ub is None) == (alone[1] is None)
            if bound:
                assert ub.bound_psi_tilde == alone[1].bound_psi_tilde
            oracle = beam_snrs(designs, psis[k], cfg)
            for scheme, snr in oracle.items():
                assert designs[scheme][0] == pytest.approx(snr, rel=1e-12, abs=0.0), scheme

    @pytest.mark.parametrize("bits", [None, 1])
    def test_a_zero_composite_mid_chunk_fails_alone(self, monkeypatch, bits):
        # every design is the zero phase profile, under which the third
        # realization's reflected column cancels its direct link exactly
        def zero_phases(inits, psis, cfg, settings):
            lifted = np.ones(cfg.n_i + 1, complex)
            return [MMResult(lifted, 1, True, (design_objective(lifted, psi, cfg),)) for psi in psis]

        monkeypatch.setattr(sim_mod, "_run_rows", zero_phases)
        cfg = SystemConfig(n_s=2, n_i=1, p=10**1.2, kappa_s=0.07, kappa_d=0.07, sigma_n2=0.01)
        rng = np.random.default_rng(35)
        psis = cn(rng, (5, 2, 2))
        psis[2, :, 0] = -psis[2, :, 1]
        inits = np.ones((5, 2), complex)
        out = sim_mod._design_rows(psis, inits, cfg, MMSettings(), bits, False)
        assert isinstance(out[2], DegenerateChannelError)
        assert str(out[2]) == "degenerate channel: composite vector is zero"
        for k in (0, 1, 3, 4):
            designs, _ = out[k]
            oracle = beam_snrs(designs, psis[k], cfg)
            for scheme, snr in oracle.items():
                assert designs[scheme][0] == pytest.approx(snr, rel=1e-12, abs=0.0), scheme

    def test_a_chunk_without_direct_links_runs_no_mm(self, mm_runs, monkeypatch):
        monkeypatch.setattr(sim_mod, "run_stacked_mm", None)
        cfg, geo = small_setup(n_i=6)
        psis, inits = _draw(cfg, geo, tuple(child_seed(34, r) for r in range(4)))
        psis[:, :, -1] = 0.0
        out = sim_mod._design_rows(psis, inits, cfg, MMSettings(), 1, True)
        assert [type(x) for x in out] == [DegenerateChannelError] * 4
        assert len({id(x) for x in out}) == 4
        assert mm_runs == []


class TestChunkDraw:
    @pytest.mark.parametrize("n_s", [1, 4])
    @pytest.mark.parametrize("n_i", [0, 1, 8, 200])
    def test_each_row_is_its_own_draw(self, n_i, n_s):
        # bit for bit and in the same memory layout, which decides how the
        # composite's products round
        cfg, geo = table_defaults()
        cfg = replace(cfg, n_i=n_i, n_s=n_s)
        seeds = tuple(child_seed(21, n_i, n_s, r) for r in range(5))
        psis, inits = _draw(cfg, geo, seeds)
        assert psis.shape == (5, n_s, n_i + 1) and inits.shape == (5, n_i + 1)
        for psi, init, seed in zip(psis, inits, seeds):
            rng = np.random.default_rng(seed)
            want = build_composite(generate_channels(rng, cfg, geo))
            want_init = random_lifted_init(rng, n_i)
            assert (psi.strides, init.strides) == (want.strides, want_init.strides)
            assert psi.tobytes() == want.tobytes()
            assert init.tobytes() == want_init.tobytes()


class _LazyFuture:
    """A future whose task runs only when its result is asked for."""

    def __init__(self, fn, arg, ran):
        self.fn, self.arg, self.ran, self.cancelled = fn, arg, ran, False

    def result(self):
        assert not self.cancelled
        self.ran.append(self.arg)
        return self.fn(self.arg)

    def cancel(self):
        self.cancelled = True
        return True


class TestRealizationLoop:
    """The loop under a stand-in process pool that runs a task when it is read."""

    @pytest.fixture
    def pool(self, monkeypatch):
        import concurrent.futures

        state = {"futures": [], "ran": []}

        class LazyPool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, arg):
                state["futures"].append(_LazyFuture(fn, arg, state["ran"]))
                return state["futures"][-1]

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", LazyPool)
        monkeypatch.setattr(sim_mod, "_CHUNK", 2)
        return state

    POINTS = [(small_setup()[0], i) for i in range(3)]
    KEYS = [(i,) for i in range(3)]

    @staticmethod
    def task(args):
        (_, point, seeds) = args
        return [(point, seed) for seed in seeds]

    def test_every_point_is_submitted_before_the_first_is_read(self, pool):
        loop = sim_mod._realizations(self.task, self.POINTS, 3, 5, self.KEYS, workers=2)
        first = next(loop)
        assert first == [(0, child_seed(5, 0, r)) for r in range(3)]
        # three points of two chunks each: all submitted, the first point's read
        assert len(pool["futures"]) == 6
        assert [arg[1] for arg in pool["ran"]] == [0, 0]
        assert [row for rows in loop for row in rows] == [
            (i, child_seed(5, i, r)) for i in (1, 2) for r in range(3)
        ]

    def test_stopping_early_cancels_the_tasks_not_started(self, pool):
        loop = sim_mod._realizations(self.task, self.POINTS, 3, 5, self.KEYS, workers=2)
        next(loop)
        loop.close()
        assert [arg[1] for arg in pool["ran"]] == [0, 0]
        assert [f.cancelled for f in pool["futures"][2:]] == [True] * 4


class TestCompositeOncePerRealization:
    def test_bound_reuses_the_designs_composite(self, monkeypatch):
        original = sim_mod._draw
        calls = {"n": 0}

        def counting(cfg, geo, seeds):
            calls["n"] += len(seeds)
            return original(cfg, geo, seeds)

        monkeypatch.setattr(sim_mod, "_draw", counting)
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

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_study_and_bound_check_reject_a_seed_before_the_first_draw(self, seed, monkeypatch):
        # child_seed masks to 64 bits, so an unchecked seed would run as another
        def drawn(*args):
            raise AssertionError("a channel was drawn")

        monkeypatch.setattr(sim_mod, "_draw", drawn)
        cfg, geo = small_setup()
        with pytest.raises(ConfigError, match=r"^seed must fit in 64 unsigned bits$"):
            run_iteration_study([4], cfg, geo, seed=seed, n_channels=1)
        with pytest.raises(ConfigError, match=r"^seed must fit in 64 unsigned bits$"):
            run_bound_check(cfg, geo, 1, seed)

    @pytest.mark.parametrize("epsilon", [-1.0, float("inf")])
    def test_epsilon_checked_before_the_first_draw(self, epsilon, monkeypatch):
        def drawn(*args):
            raise AssertionError("a channel was drawn")

        monkeypatch.setattr(sim_mod, "_draw", drawn)
        cfg, geo = small_setup()
        with pytest.raises(ConfigError, match="epsilon must be positive and finite"):
            run_iteration_study([4], cfg, geo, seed=1, n_channels=1, epsilon=epsilon)

    def test_on_point_gets_each_row_in_order(self):
        cfg, geo = small_setup()
        seen = []
        rows = run_iteration_study([4, 6, 8], cfg, geo, seed=5, n_channels=3, on_point=seen.append)
        assert seen == rows
        assert [row.n_i for row in rows] == [4, 6, 8]
        assert run_iteration_study([4, 6, 8], cfg, geo, seed=5, n_channels=3) == rows

    @pytest.mark.parametrize("chunk", [1, 3])
    def test_rows_do_not_depend_on_the_chunk(self, monkeypatch, chunk):
        cfg, geo = small_setup()
        default = run_iteration_study([4, 8], cfg, geo, seed=13, n_channels=7)
        monkeypatch.setattr(sim_mod, "_CHUNK", chunk)
        assert run_iteration_study([4, 8], cfg, geo, seed=13, n_channels=7) == default

    def test_chunk_counts_are_each_realizations_own_runs(self):
        # the oracle: four run_mm calls per realization, each from its own draw
        cfg, geo = small_setup(n_i=6)
        plain_accel = [MMSettings(1e-5, sim_mod._STUDY_MAX_ITER, accel) for accel in (False, True)]
        seeds = tuple(child_seed(3, r) for r in range(4))
        counts = sim_mod._study_task((cfg, geo, plain_accel, seeds))
        assert len(counts) == len(seeds)
        for seed, row in zip(seeds, counts):
            (psi,), (init,) = _draw(cfg, geo, (seed,))
            assert row == tuple(
                run_mm(init, psi, run_cfg, settings).iterations
                for run_cfg in (cfg, _nonrobust_config(cfg))
                for settings in plain_accel
            )

    def test_acceleration_and_robustness_ordering(self):
        cfg, geo = small_setup()
        rows = run_iteration_study([6, 16], cfg, geo, seed=31, n_channels=8)
        for row in rows:
            assert row.robust_accel < row.robust_plain
            assert row.nonrobust_accel < row.nonrobust_plain
            assert row.nonrobust_plain < row.robust_plain
        assert rows[1].robust_plain > rows[0].robust_plain
