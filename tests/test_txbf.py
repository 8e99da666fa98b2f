import numpy as np
import pytest

from irsbf.mm import MMSettings, random_lifted_init, run_mm
from irsbf.model import (
    ChannelSet,
    DegenerateChannelError,
    DimensionError,
    SystemConfig,
    build_composite,
)
from irsbf.txbf import (
    composite_vector,
    evaluate_snr,
    matched_filter_snr,
    optimal_transmit_beam,
    psi_tilde,
    psi_tilde_from_powers,
    snr_from_psi_tilde,
)

from conftest import complex_gaussian, random_channels


def full_inverse_beam(phases, psi, cfg):
    """Independent oracle: the un-simplified optimizer with a dense Hermitian solve."""
    v = composite_vector(phases, psi)
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
        psi = build_composite(random_channels(rng, small_cfg.n_i, small_cfg.n_s))
        phases = rng.uniform(0, 2 * np.pi, small_cfg.n_i)
        assert evaluate_snr(np.zeros(small_cfg.n_s, complex), phases, psi, small_cfg) == 0.0

    def test_matched_filter_limit(self, rng):
        cfg = SystemConfig(n_s=5, n_i=0, p=3.0, kappa_s=0.0, kappa_d=0.0, sigma_n2=0.2)
        ch = random_channels(rng, 0, 5)
        psi = build_composite(ch)
        w = np.sqrt(cfg.p_tilde) * ch.h_sd / np.linalg.norm(ch.h_sd)
        expected = cfg.p_tilde * np.linalg.norm(ch.h_sd) ** 2 / cfg.sigma_n2
        assert evaluate_snr(w, None, psi, cfg) == pytest.approx(expected, rel=1e-12)

    def test_saturation_with_power(self, rng, small_cfg):
        psi = build_composite(random_channels(rng, small_cfg.n_i, small_cfg.n_s))
        phases = rng.uniform(0, 2 * np.pi, small_cfg.n_i)
        direction = complex_gaussian(rng, small_cfg.n_s)
        direction /= np.linalg.norm(direction)

        def snr_at(p_scale):
            cfg = SystemConfig(
                n_s=small_cfg.n_s, n_i=small_cfg.n_i, p=small_cfg.p * p_scale,
                kappa_s=small_cfg.kappa_s, kappa_d=small_cfg.kappa_d, sigma_n2=small_cfg.sigma_n2,
            )
            return evaluate_snr(np.sqrt(cfg.p_tilde) * direction, phases, psi, cfg)

        assert snr_at(1e6) == pytest.approx(snr_at(1e8), rel=0.01)

    def test_global_phase_invariance(self, rng, small_cfg):
        psi = build_composite(random_channels(rng, small_cfg.n_i, small_cfg.n_s))
        phases = rng.uniform(0, 2 * np.pi, small_cfg.n_i)
        w = optimal_transmit_beam(phases, psi, small_cfg)
        rotated = w * np.exp(1j * 1.234)
        assert evaluate_snr(rotated, phases, psi, small_cfg) == pytest.approx(
            evaluate_snr(w, phases, psi, small_cfg), rel=1e-12
        )


class TestOptimalBeam:
    def test_matched_filter_at_zero_kappa(self, rng):
        cfg = SystemConfig(n_s=4, n_i=3, p=2.0, kappa_s=0.0, kappa_d=0.0, sigma_n2=0.1)
        psi = build_composite(random_channels(rng, 3, 4))
        phases = rng.uniform(0, 2 * np.pi, 3)
        v = composite_vector(phases, psi)
        w = optimal_transmit_beam(phases, psi, cfg)
        mf = np.sqrt(cfg.p_tilde) * v / np.linalg.norm(v)
        mf *= np.exp(-1j * np.angle(mf[np.flatnonzero(np.abs(mf) > 0)[0]]))
        np.testing.assert_allclose(w, mf, atol=1e-12)

    def test_full_budget(self, rng, small_cfg):
        psi = build_composite(random_channels(rng, small_cfg.n_i, small_cfg.n_s))
        phases = rng.uniform(0, 2 * np.pi, small_cfg.n_i)
        w = optimal_transmit_beam(phases, psi, small_cfg)
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
            psi = build_composite(random_channels(rng, n_i, n_s))
            phases = rng.uniform(0, 2 * np.pi, n_i)
            w = optimal_transmit_beam(phases, psi, cfg)
            oracle = full_inverse_beam(phases, psi, cfg)
            worst = max(worst, np.linalg.norm(w - oracle) / np.linalg.norm(oracle))
        assert worst < 1e-10

    def test_beats_random_search(self, rng):
        cfg = SystemConfig(n_s=3, n_i=4, p=1.5, kappa_s=0.2, kappa_d=0.1, sigma_n2=0.3)
        psi = build_composite(random_channels(rng, 4, 3))
        phases = rng.uniform(0, 2 * np.pi, 4)
        w_star = optimal_transmit_beam(phases, psi, cfg)
        best = evaluate_snr(w_star, phases, psi, cfg)
        draws = complex_gaussian(rng, 10_000, 3)
        norms = np.linalg.norm(draws, axis=1, keepdims=True)
        scales = np.sqrt(cfg.p_tilde) * rng.uniform(0, 1, (10_000, 1)) ** 0.5
        candidates = draws / norms * scales
        for w in candidates:
            assert evaluate_snr(w, phases, psi, cfg) <= best * (1 + 1e-9)

    @pytest.mark.parametrize("shape", [(3,), (5,), (1, 4), (4, 1)])
    def test_phases_of_another_shape_raise(self, rng, small_cfg, shape):
        # psi has n_i + 1 = 5 columns, so only 4 phases fit it
        psi = build_composite(random_channels(rng, 4, small_cfg.n_s))
        phases = rng.uniform(0, 2 * np.pi, shape)
        for call in (lambda: composite_vector(phases, psi), lambda: psi_tilde(phases, psi, small_cfg)):
            with pytest.raises(DimensionError, match=r"phases must have shape \(4,\), got "):
                call()

    def test_degenerate_channel_raises(self):
        cfg = SystemConfig(n_s=2, n_i=0, p=1.0, kappa_s=0.1, kappa_d=0.1, sigma_n2=0.1)
        psi = build_composite(ChannelSet(
            h_si=np.zeros((0, 2), complex), h_id=np.zeros(0, complex), h_sd=np.zeros(2, complex)
        ))
        with pytest.raises(DegenerateChannelError, match="degenerate channel"):
            optimal_transmit_beam(None, psi, cfg)


class TestObjectiveMaps:
    def test_zero_vector(self, small_cfg):
        psi = build_composite(ChannelSet(
            h_si=np.zeros((8, 4), complex), h_id=np.zeros(8, complex), h_sd=np.zeros(4, complex)
        ))
        assert psi_tilde(None, psi, small_cfg) == 0.0

    def test_kappa_s_zero_closed_form(self, rng):
        cfg = SystemConfig(n_s=4, n_i=5, p=2.0, kappa_s=0.0, kappa_d=0.3, sigma_n2=0.07)
        psi = build_composite(random_channels(rng, 5, 4))
        phases = rng.uniform(0, 2 * np.pi, 5)
        v = composite_vector(phases, psi)
        expected = cfg.p_tilde * np.linalg.norm(v) ** 2 / ((1 + cfg.kappa_d) * cfg.sigma_n2)
        assert psi_tilde(phases, psi, cfg) == pytest.approx(expected, rel=1e-12)

    def test_snr_map_consistency_with_direct_evaluation(self, rng, small_cfg):
        # the mapped objective must equal the actual receive SNR at the
        # optimal beam, which pins down the map without any power prefactor
        psi = build_composite(random_channels(rng, small_cfg.n_i, small_cfg.n_s))
        phases = rng.uniform(0, 2 * np.pi, small_cfg.n_i)
        w = optimal_transmit_beam(phases, psi, small_cfg)
        direct = evaluate_snr(w, phases, psi, small_cfg)
        mapped = snr_from_psi_tilde(psi_tilde(phases, psi, small_cfg), small_cfg)
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
        psi = build_composite(random_channels(rng, small_cfg.n_i, small_cfg.n_s))
        mm = run_mm(
            random_lifted_init(rng, small_cfg.n_i), psi, small_cfg, MMSettings()
        )
        pt = mm.objectives[-1]
        assert pt == pytest.approx(psi_tilde(mm.phases, psi, small_cfg), rel=1e-9)
        w = optimal_transmit_beam(mm.phases, psi, small_cfg)
        assert snr_from_psi_tilde(pt, small_cfg) == pytest.approx(
            evaluate_snr(w, mm.phases, psi, small_cfg), rel=1e-9
        )


class TestRowScoring:
    """The stack forms score each row as the one-realization functions do."""

    def test_objective_and_snr_map_per_row(self, rng, small_cfg):
        q = np.abs(complex_gaussian(rng, 5, small_cfg.n_s)) ** 2
        objectives = psi_tilde_from_powers(q, small_cfg)
        assert objectives.shape == (5,)
        for row, objective in zip(q, objectives):
            assert objective == psi_tilde_from_powers(row, small_cfg)
        snrs = snr_from_psi_tilde(objectives, small_cfg)
        assert snrs.tolist() == [snr_from_psi_tilde(float(x), small_cfg) for x in objectives]
        with pytest.raises(ValueError):
            snr_from_psi_tilde(np.array([1.0, -1.0]), small_cfg)

    @pytest.mark.parametrize("kappa_s", [0.0, 0.1])
    def test_matched_filter_snr_is_the_matched_filters_evaluation(self, rng, kappa_s):
        cfg = SystemConfig(n_s=4, n_i=3, p=2.0, kappa_s=kappa_s, kappa_d=0.15, sigma_n2=0.05)
        psis = [build_composite(random_channels(rng, cfg.n_i, cfg.n_s)) for _ in range(5)]
        profiles = [rng.uniform(0, 2 * np.pi, cfg.n_i) for _ in psis]
        vs = np.array([composite_vector(t, psi) for t, psi in zip(profiles, psis)])
        snrs = matched_filter_snr(np.abs(vs) ** 2, cfg)
        for snr, v, phases, psi in zip(snrs, vs, profiles, psis):
            w = np.sqrt(cfg.p_tilde) * v / np.linalg.norm(v)
            assert snr == pytest.approx(evaluate_snr(w, phases, psi, cfg), rel=1e-12, abs=0.0)
            # never above the optimal beam's SNR, and equal to it without
            # transmit distortion
            optimal = snr_from_psi_tilde(psi_tilde(phases, psi, cfg), cfg)
            assert snr <= optimal * (1.0 + 1e-12)
            if kappa_s == 0.0:
                assert snr == pytest.approx(optimal, rel=1e-12, abs=0.0)
