import numpy as np
import pytest

from irsbf.channels import sample_los, sample_rayleigh
from irsbf.los import asymptotic_snr, los_snr_closed, solve_los
from irsbf.mm import MMSettings, random_lifted_init, run_mm
from irsbf.model import ChannelSet, DimensionError, SystemConfig, build_composite
from irsbf.txbf import evaluate_snr, optimal_transmit_beam, psi_tilde

from conftest import complex_gaussian


def los_instance(rng, n_s=4, n_i=12, gain=0.5, **cfg_overrides):
    params = dict(n_s=n_s, n_i=n_i, p=2.0, kappa_s=0.07, kappa_d=0.07, sigma_n2=0.03)
    params.update(cfg_overrides)
    cfg = SystemConfig(**params)
    los = sample_los(rng, n_s, n_i, gain)
    h_id = complex_gaussian(rng, n_i)
    psi = build_composite(ChannelSet(h_si=los.h_si, h_id=h_id, h_sd=np.zeros(n_s, dtype=complex)))
    return cfg, los, h_id, psi


class TestClosedForm:
    def test_coherent_combining(self, rng):
        cfg, los, h_id, _ = los_instance(rng)
        sol = solve_los(los, h_id, cfg)
        combined = np.abs(np.vdot(h_id, np.exp(1j * sol.phases) * los.a_i))
        assert combined == pytest.approx(np.sum(np.abs(h_id)), rel=1e-12)

    def test_closed_ratio_matches_direct_evaluation(self, rng):
        for _ in range(10):
            cfg, los, h_id, psi = los_instance(rng, n_i=int(rng.integers(2, 20)))
            sol = solve_los(los, h_id, cfg)
            direct = evaluate_snr(sol.w, sol.phases, psi, cfg)
            assert sol.snr == pytest.approx(direct, rel=1e-10)

    def test_beam_norm_and_direction(self, rng):
        cfg, los, h_id, _ = los_instance(rng)
        sol = solve_los(los, h_id, cfg)
        assert np.linalg.norm(sol.w) ** 2 == pytest.approx(cfg.p_tilde, rel=1e-12)
        np.testing.assert_allclose(
            sol.w, np.sqrt(cfg.p_tilde / cfg.n_s) * los.a_s, atol=1e-12
        )

    def test_weighted_mf_beam_gives_same_snr(self, rng):
        # plugging the aligned phases into the general closed-form beam must
        # match the steering-vector beam in value (directions may differ by
        # a global phase)
        cfg, los, h_id, psi = los_instance(rng)
        sol = solve_los(los, h_id, cfg)
        w_general = optimal_transmit_beam(sol.phases, psi, cfg)
        assert evaluate_snr(w_general, sol.phases, psi, cfg) == pytest.approx(
            evaluate_snr(sol.w, sol.phases, psi, cfg), rel=1e-9
        )

    def test_global_optimality_against_random_reflections(self, rng):
        cfg, los, h_id, psi = los_instance(rng, n_i=8)
        sol = solve_los(los, h_id, cfg)
        for _ in range(10_000):
            phases = rng.uniform(0, 2 * np.pi, 8)
            assert psi_tilde(phases, psi, cfg) <= psi_tilde(sol.phases, psi, cfg) * (1 + 1e-12)

    def test_mm_reaches_closed_form(self, rng):
        cfg, los, h_id, psi = los_instance(rng, n_i=10)
        sol = solve_los(los, h_id, cfg)
        res = run_mm(random_lifted_init(rng, 10), psi, cfg, MMSettings(epsilon=1e-10))
        assert res.objectives[-1] == pytest.approx(
            psi_tilde(sol.phases, psi, cfg), rel=1e-6
        )


    @pytest.mark.parametrize("n", [1, 11, 13])
    def test_a_drop_link_of_another_length_raises(self, rng, n):
        cfg, los, h_id, _ = los_instance(rng, n_i=12)
        with pytest.raises(DimensionError, match=f"h_id has {n} entries, expected 12 from a_i"):
            solve_los(los, h_id[:n] if n < 12 else complex_gaussian(rng, n), cfg)


class TestAsymptotic:
    def test_noise_free_ceiling(self):
        cfg = SystemConfig(n_s=4, n_i=100, p=2.0, kappa_s=0.07, kappa_d=0.07, sigma_n2=1e-15)
        val = asymptotic_snr(cfg, 400, sigma_id2=0.1, eta_abs2=0.5)
        ceiling = cfg.n_s / (cfg.kappa_d * cfg.n_s + (1 + cfg.kappa_d) * cfg.kappa_s)
        assert val == pytest.approx(ceiling, rel=1e-6)

    def test_monotone_in_elements_and_variance(self):
        cfg = SystemConfig(n_s=4, n_i=10, p=2.0, kappa_s=0.07, kappa_d=0.07, sigma_n2=0.5)
        sizes = range(10, 201, 10)
        vals = [asymptotic_snr(cfg, n, sigma_id2=0.1, eta_abs2=0.5) for n in sizes]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        sig_vals = [asymptotic_snr(cfg, 50, sigma_id2=s, eta_abs2=0.5) for s in (0.05, 0.1, 0.2)]
        assert all(b > a for a, b in zip(sig_vals, sig_vals[1:]))

    def test_invalid_arguments(self):
        cfg = SystemConfig(n_s=2, n_i=4, p=1.0, kappa_s=0.1, kappa_d=0.1, sigma_n2=0.1)
        with pytest.raises(ValueError):
            asymptotic_snr(cfg, 0, 0.1, 0.5)
        with pytest.raises(ValueError):
            asymptotic_snr(cfg, 10, -0.1, 0.5)

    def test_large_array_monte_carlo(self):
        # at 400 elements the combined drop-link magnitude concentrates, so
        # the mean closed-form SNR approaches the limit formula
        n_i = 400
        sigma_id2 = 0.04
        cfg = SystemConfig(n_s=4, n_i=n_i, p=2.0, kappa_s=0.07, kappa_d=0.07, sigma_n2=40.0)
        rng = np.random.default_rng(12)
        eta_abs2 = 0.5
        snrs = []
        for _ in range(200):
            h_id = sample_rayleigh(rng, n_i, 1, sigma_id2).ravel()
            snrs.append(los_snr_closed(cfg, eta_abs2, float(np.sum(np.abs(h_id)))))
        assert np.mean(snrs) == pytest.approx(
            asymptotic_snr(cfg, n_i, sigma_id2, eta_abs2), rel=0.05
        )

    def test_solution_carries_asymptotic_field(self, rng):
        cfg, los, h_id, _ = los_instance(rng)
        sol = solve_los(los, h_id, cfg, sigma_id2=0.1)
        assert sol.snr_asymptotic == pytest.approx(
            asymptotic_snr(cfg, cfg.n_i, 0.1, float(np.abs(los.eta) ** 2)), rel=1e-12
        )
        assert solve_los(los, h_id, cfg).snr_asymptotic is None
