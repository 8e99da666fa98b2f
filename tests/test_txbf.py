import numpy as np
import pytest

from irsbf.mm import MMSettings, random_lifted_init, run_mm
from irsbf.model import (
    ChannelSet,
    DegenerateChannelError,
    ReflectConfig,
    SystemConfig,
    build_composite,
)
from irsbf.txbf import (
    composite_vector,
    evaluate_snr,
    optimal_transmit_beam,
    psi_tilde,
    snr_from_psi_tilde,
)

from conftest import complex_gaussian, random_channels


def full_inverse_beam(theta, ch, cfg):
    """Independent oracle: the un-simplified optimizer with a dense Hermitian solve."""
    v = composite_vector(theta, ch)
    full = cfg.kappa_d * np.outer(v, np.conj(v)) + np.diag(
        (1.0 + cfg.kappa_d) * cfg.kappa_s * np.abs(v) ** 2
        + (1.0 + cfg.kappa_d) * cfg.sigma_n2 / cfg.p_tilde
    )
    w = np.linalg.solve(full, v)
    w = np.sqrt(cfg.p_tilde) * w / np.linalg.norm(w)
    lead = np.flatnonzero(np.abs(w) > 0)[0]
    return w * np.exp(-1j * np.angle(w[lead]))


class TestEvaluateSnr:
    def test_zero_beam(self, rng, small_cfg):
        ch = random_channels(rng, small_cfg.n_i, small_cfg.n_s)
        theta = ReflectConfig(rng.uniform(0, 2 * np.pi, small_cfg.n_i))
        assert evaluate_snr(np.zeros(small_cfg.n_s, complex), theta, ch, small_cfg) == 0.0

    def test_matched_filter_limit(self, rng):
        cfg = SystemConfig(n_s=5, n_i=0, p=3.0, kappa_s=0.0, kappa_d=0.0, sigma_n2=0.2)
        ch = random_channels(rng, 0, 5)
        w = np.sqrt(cfg.p_tilde) * ch.h_sd / np.linalg.norm(ch.h_sd)
        expected = cfg.p_tilde * np.linalg.norm(ch.h_sd) ** 2 / cfg.sigma_n2
        assert evaluate_snr(w, None, ch, cfg) == pytest.approx(expected, rel=1e-12)

    def test_saturation_with_power(self, rng, small_cfg):
        ch = random_channels(rng, small_cfg.n_i, small_cfg.n_s)
        theta = ReflectConfig(rng.uniform(0, 2 * np.pi, small_cfg.n_i))
        direction = complex_gaussian(rng, small_cfg.n_s)
        direction /= np.linalg.norm(direction)

        def snr_at(p_scale):
            cfg = SystemConfig(
                n_s=small_cfg.n_s, n_i=small_cfg.n_i, p=small_cfg.p * p_scale,
                kappa_s=small_cfg.kappa_s, kappa_d=small_cfg.kappa_d, sigma_n2=small_cfg.sigma_n2,
            )
            return evaluate_snr(np.sqrt(cfg.p_tilde) * direction, theta, ch, cfg)

        assert snr_at(1e6) == pytest.approx(snr_at(1e8), rel=0.01)

    def test_global_phase_invariance(self, rng, small_cfg):
        ch = random_channels(rng, small_cfg.n_i, small_cfg.n_s)
        theta = ReflectConfig(rng.uniform(0, 2 * np.pi, small_cfg.n_i))
        w = optimal_transmit_beam(theta, ch, small_cfg)
        rotated = w * np.exp(1j * 1.234)
        assert evaluate_snr(rotated, theta, ch, small_cfg) == pytest.approx(
            evaluate_snr(w, theta, ch, small_cfg), rel=1e-12
        )


class TestOptimalBeam:
    def test_matched_filter_at_zero_kappa(self, rng):
        cfg = SystemConfig(n_s=4, n_i=3, p=2.0, kappa_s=0.0, kappa_d=0.0, sigma_n2=0.1)
        ch = random_channels(rng, 3, 4)
        theta = ReflectConfig(rng.uniform(0, 2 * np.pi, 3))
        v = composite_vector(theta, ch)
        w = optimal_transmit_beam(theta, ch, cfg)
        mf = np.sqrt(cfg.p_tilde) * v / np.linalg.norm(v)
        mf *= np.exp(-1j * np.angle(mf[np.flatnonzero(np.abs(mf) > 0)[0]]))
        np.testing.assert_allclose(w, mf, atol=1e-12)

    def test_full_budget(self, rng, small_cfg):
        ch = random_channels(rng, small_cfg.n_i, small_cfg.n_s)
        theta = ReflectConfig(rng.uniform(0, 2 * np.pi, small_cfg.n_i))
        w = optimal_transmit_beam(theta, ch, small_cfg)
        assert np.linalg.norm(w) ** 2 == pytest.approx(small_cfg.p_tilde, rel=1e-12)

    def test_matches_full_inverse_oracle(self, rng):
        worst = 0.0
        for _ in range(100):
            n_s, n_i = int(rng.integers(1, 9)), int(rng.integers(0, 17))
            cfg = SystemConfig(
                n_s=n_s, n_i=n_i, p=float(rng.uniform(0.5, 4.0)),
                kappa_s=float(rng.uniform(0, 0.6)), kappa_d=float(rng.uniform(0, 0.6)),
                sigma_n2=float(rng.uniform(0.01, 1.0)),
            )
            ch = random_channels(rng, n_i, n_s)
            theta = ReflectConfig(rng.uniform(0, 2 * np.pi, n_i))
            w = optimal_transmit_beam(theta, ch, cfg)
            oracle = full_inverse_beam(theta, ch, cfg)
            worst = max(worst, np.linalg.norm(w - oracle) / np.linalg.norm(oracle))
        assert worst < 1e-10

    def test_beats_random_search(self, rng):
        cfg = SystemConfig(n_s=3, n_i=4, p=1.5, kappa_s=0.2, kappa_d=0.1, sigma_n2=0.3)
        ch = random_channels(rng, 4, 3)
        theta = ReflectConfig(rng.uniform(0, 2 * np.pi, 4))
        w_star = optimal_transmit_beam(theta, ch, cfg)
        best = evaluate_snr(w_star, theta, ch, cfg)
        draws = complex_gaussian(rng, 10_000, 3)
        norms = np.linalg.norm(draws, axis=1, keepdims=True)
        scales = np.sqrt(cfg.p_tilde) * rng.uniform(0, 1, (10_000, 1)) ** 0.5
        candidates = draws / norms * scales
        for w in candidates:
            assert evaluate_snr(w, theta, ch, cfg) <= best * (1 + 1e-9)

    def test_degenerate_channel_raises(self):
        cfg = SystemConfig(n_s=2, n_i=0, p=1.0, kappa_s=0.1, kappa_d=0.1, sigma_n2=0.1)
        ch = ChannelSet(
            h_si=np.zeros((0, 2), complex), h_id=np.zeros(0, complex), h_sd=np.zeros(2, complex)
        )
        with pytest.raises(DegenerateChannelError, match="degenerate channel"):
            optimal_transmit_beam(None, ch, cfg)


class TestObjectiveMaps:
    def test_zero_vector(self, small_cfg):
        ch = ChannelSet(
            h_si=np.zeros((8, 4), complex), h_id=np.zeros(8, complex), h_sd=np.zeros(4, complex)
        )
        assert psi_tilde(None, ch, small_cfg) == 0.0

    def test_kappa_s_zero_closed_form(self, rng):
        cfg = SystemConfig(n_s=4, n_i=5, p=2.0, kappa_s=0.0, kappa_d=0.3, sigma_n2=0.07)
        ch = random_channels(rng, 5, 4)
        theta = ReflectConfig(rng.uniform(0, 2 * np.pi, 5))
        v = composite_vector(theta, ch)
        expected = cfg.p_tilde * np.linalg.norm(v) ** 2 / ((1 + cfg.kappa_d) * cfg.sigma_n2)
        assert psi_tilde(theta, ch, cfg) == pytest.approx(expected, rel=1e-12)

    def test_snr_map_consistency_with_direct_evaluation(self, rng, small_cfg):
        # the mapped objective must equal the actual receive SNR at the
        # optimal beam, which pins down the map without any power prefactor
        ch = random_channels(rng, small_cfg.n_i, small_cfg.n_s)
        theta = ReflectConfig(rng.uniform(0, 2 * np.pi, small_cfg.n_i))
        w = optimal_transmit_beam(theta, ch, small_cfg)
        direct = evaluate_snr(w, theta, ch, small_cfg)
        mapped = snr_from_psi_tilde(psi_tilde(theta, ch, small_cfg), small_cfg)
        assert mapped == pytest.approx(direct, rel=1e-9)

    def test_snr_map_edges(self, small_cfg):
        assert snr_from_psi_tilde(0.0, small_cfg) == 0.0
        cfg0 = SystemConfig(n_s=2, n_i=0, p=1.0, kappa_s=0.1, kappa_d=0.0, sigma_n2=0.1)
        assert snr_from_psi_tilde(3.7, cfg0) == pytest.approx(3.7, rel=1e-15)
        assert snr_from_psi_tilde(1e12, small_cfg) == pytest.approx(
            1.0 / small_cfg.kappa_d, rel=1e-9
        )
        with pytest.raises(ValueError):
            snr_from_psi_tilde(-1.0, small_cfg)

    def test_snr_map_monotone(self, small_cfg, rng):
        pts = np.sort(rng.uniform(0, 100, 50))
        vals = [snr_from_psi_tilde(float(p), small_cfg) for p in pts]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_objective_map_matches_the_built_beam_at_the_mm_reflection(self, rng, small_cfg):
        # the closed-form map of the optimizer's final objective is the SNR
        # of the closed-form beam at the reflection it returns, and that
        # objective is the reflect objective there
        ch = random_channels(rng, small_cfg.n_i, small_cfg.n_s)
        mm = run_mm(
            random_lifted_init(rng, small_cfg.n_i), build_composite(ch), small_cfg, MMSettings()
        )
        pt = mm.objectives[-1]
        assert pt == pytest.approx(psi_tilde(mm.reflect, ch, small_cfg), rel=1e-9)
        w = optimal_transmit_beam(mm.reflect, ch, small_cfg)
        assert snr_from_psi_tilde(pt, small_cfg) == pytest.approx(
            evaluate_snr(w, mm.reflect, ch, small_cfg), rel=1e-9
        )
