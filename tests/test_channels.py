import numpy as np
import pytest

from irsbf.channels import (
    Geometry,
    derive_distances,
    generate_channels,
    path_loss_linear,
    sample_los,
    sample_rayleigh,
    ula_response,
)
from irsbf.model import ConfigError, SystemConfig


def table_geometry(**overrides):
    base = dict(d_si=50.0, d_v=2.0, d_sd_h=49.0)
    base.update(overrides)
    return Geometry(**base)


class TestPathLoss:
    def test_reference_distance(self):
        geo = table_geometry()
        assert path_loss_linear(1.0, 2.5, geo) == pytest.approx(1e-3, rel=1e-12)

    def test_decade_with_exponent_two(self):
        geo = table_geometry()
        assert path_loss_linear(10.0, 2.0, geo) == pytest.approx(1e-5, rel=1e-12)

    def test_zero_exponent_flat(self):
        geo = table_geometry()
        for d in (0.5, 1.0, 7.0, 300.0):
            assert path_loss_linear(d, 0.0, geo) == pytest.approx(1e-3, rel=1e-12)

    def test_strictly_decreasing_and_continuous(self):
        geo = table_geometry()
        ds = np.linspace(0.2, 200.0, 400)
        gains = [path_loss_linear(float(d), 2.5, geo) for d in ds]
        assert all(b < a for a, b in zip(gains, gains[1:]))
        eps = 1e-9
        left = path_loss_linear(1.0 - eps, 2.5, geo)
        right = path_loss_linear(1.0 + eps, 2.5, geo)
        assert left == pytest.approx(right, rel=1e-6)

    def test_nonpositive_distance_rejected(self):
        with pytest.raises(ConfigError):
            path_loss_linear(0.0, 2.0, table_geometry())


class TestGeometry:
    def test_table_distances(self):
        d_sd, d_id = derive_distances(table_geometry())
        assert d_sd == pytest.approx(np.sqrt(2405.0), rel=1e-14)
        assert d_id == pytest.approx(np.sqrt(5.0), rel=1e-14)

    @pytest.mark.parametrize(
        "d_sd_h, node", [(50.0, r"IRS \(d_id = 0\)"), (0.0, r"source \(d_sd = 0\)")]
    )
    def test_destination_on_a_node_rejected_when_built(self, d_sd_h, node):
        # collinear with the source-to-IRS axis, at the surface or the source
        with pytest.raises(ConfigError, match=f"destination coincides with the {node}"):
            Geometry(d_si=50.0, d_v=0.0, d_sd_h=d_sd_h)
        d_sd, d_id = derive_distances(table_geometry(d_sd_h=d_sd_h, d_v=1e-9))
        assert min(d_sd, d_id) == pytest.approx(1e-9, rel=1e-12)

    def test_vertical_only(self):
        d_sd, _ = derive_distances(table_geometry(d_sd_h=0.0))
        assert d_sd == pytest.approx(2.0, rel=1e-15)


class TestRayleigh:
    def test_seed_determinism(self):
        a = sample_rayleigh(np.random.default_rng(42), 5, 3, 0.7)
        b = sample_rayleigh(np.random.default_rng(42), 5, 3, 0.7)
        np.testing.assert_array_equal(a, b)

    def test_zero_gain(self):
        assert np.all(sample_rayleigh(np.random.default_rng(1), 4, 4, 0.0) == 0)

    def test_negative_gain_rejected(self):
        with pytest.raises(ConfigError):
            sample_rayleigh(np.random.default_rng(1), 2, 2, -0.1)

    def test_moments(self):
        gain = 0.37
        draws = sample_rayleigh(np.random.default_rng(7), 1000, 1000, gain)
        var = np.mean(np.abs(draws) ** 2)
        assert var == pytest.approx(gain, rel=0.01)
        n = draws.size
        # complex mean is CN(0, gain/n); both real parts within 3 sigma
        sigma = np.sqrt(gain / 2.0 / n)
        mean = np.mean(draws)
        assert abs(mean.real) < 3 * sigma
        assert abs(mean.imag) < 3 * sigma


class TestLOS:
    def test_rank_one_and_norms(self):
        rng = np.random.default_rng(3)
        los = sample_los(rng, n_s=4, n_i=9, gain=0.6)
        h = los.h_si
        assert np.linalg.matrix_rank(h) == 1
        assert np.sum(np.abs(los.a_s) ** 2) == pytest.approx(4.0, rel=1e-14)
        assert np.sum(np.abs(los.a_i) ** 2) == pytest.approx(9.0, rel=1e-14)
        assert np.abs(los.eta) ** 2 == pytest.approx(0.6, rel=1e-12)
        assert np.linalg.norm(h, "fro") ** 2 == pytest.approx(0.6 * 9 * 4, rel=1e-12)

    def test_ula_entries_unit_modulus(self):
        a = ula_response(16, 1.234)
        np.testing.assert_allclose(np.abs(a), 1.0, atol=1e-15)


class TestGenerateChannels:
    def test_shapes_and_determinism(self):
        cfg = SystemConfig(n_s=4, n_i=50, p=10**1.2, kappa_s=0.07, kappa_d=0.07, sigma_n2=10**-8.5)
        geo = table_geometry()
        ch1 = generate_channels(np.random.default_rng(5), cfg, geo)
        ch2 = generate_channels(np.random.default_rng(5), cfg, geo)
        assert ch1.h_si.shape == (50, 4)
        assert ch1.h_id.shape == (50,)
        assert ch1.h_sd.shape == (4,)
        np.testing.assert_array_equal(ch1.h_si, ch2.h_si)

    def test_link_gains_match_path_loss(self):
        cfg = SystemConfig(n_s=2, n_i=40, p=1.0, kappa_s=0.0, kappa_d=0.0, sigma_n2=1.0)
        geo = table_geometry()
        d_sd, d_id = derive_distances(geo)
        rng = np.random.default_rng(11)
        e_si, e_id, e_sd = [], [], []
        for _ in range(300):
            ch = generate_channels(rng, cfg, geo)
            e_si.append(np.mean(np.abs(ch.h_si) ** 2))
            e_id.append(np.mean(np.abs(ch.h_id) ** 2))
            e_sd.append(np.mean(np.abs(ch.h_sd) ** 2))
        assert np.mean(e_si) == pytest.approx(path_loss_linear(geo.d_si, geo.gamma_si, geo), rel=0.05)
        assert np.mean(e_id) == pytest.approx(path_loss_linear(d_id, geo.gamma_id, geo), rel=0.05)
        assert np.mean(e_sd) == pytest.approx(path_loss_linear(d_sd, geo.gamma_sd, geo), rel=0.15)
