import numpy as np
import pytest

from irsbf.model import (
    ChannelSet,
    ConfigError,
    DimensionError,
    SystemConfig,
    build_composite,
    lift_phases,
    reflect_phases,
)
from irsbf.txbf import composite_vector

from conftest import complex_gaussian, random_channels


def table_config(**overrides):
    base = dict(n_s=4, n_i=50, p=10**1.2, kappa_s=0.07, kappa_d=0.07, sigma_n2=10**-8.5)
    base.update(overrides)
    return SystemConfig(**base)


class TestSystemConfig:
    def test_table_defaults_valid(self):
        # the checks run in __post_init__, so a value that constructs is valid
        cfg = table_config()
        assert (cfg.n_s, cfg.n_i) == (4, 50)

    def test_zero_kappa_is_valid(self):
        cfg = table_config(kappa_s=0.0, kappa_d=0.0)
        assert cfg.kappa_s == 0.0

    @pytest.mark.parametrize(
        "field,value",
        [
            ("kappa_d", 1.0),
            ("kappa_d", -0.1),
            ("kappa_s", 1.5),
            ("p", 0.0),
            ("p", -1.0),
            ("sigma_n2", 0.0),
            ("n_s", 0),
            ("n_i", -1),
        ],
    )
    def test_invalid_field_named_in_error(self, field, value):
        with pytest.raises(ConfigError, match=field):
            table_config(**{field: value})

    def test_effective_power_identity(self):
        assert table_config(p=2.0, kappa_s=0.0).p_tilde == 2.0

    def test_effective_power_symmetry(self):
        assert table_config(p=3.0, kappa_s=0.5).p_tilde == pytest.approx(2.0, rel=1e-15)

    def test_effective_power_table_value(self):
        # 10^1.2 / 1.07 recomputed by hand
        assert table_config().p_tilde == pytest.approx(14.812085910851526, rel=1e-12)

    def test_effective_power_monotone_in_kappa_linear_in_p(self, rng):
        kappas = np.sort(rng.uniform(0.0, 0.99, 25))
        values = [table_config(kappa_s=float(k)).p_tilde for k in kappas]
        assert all(b < a for a, b in zip(values, values[1:]))
        p1 = table_config(p=1.0, kappa_s=0.3).p_tilde
        p7 = table_config(p=7.0, kappa_s=0.3).p_tilde
        assert p7 == pytest.approx(7.0 * p1, rel=1e-14)

    def test_objective_coeffs_distortion_diagonal(self, rng):
        cfg = table_config()
        a, c = cfg.objective_coeffs
        assert a == (1 + cfg.kappa_d) * cfg.kappa_s
        assert c == (1 + cfg.kappa_d) * cfg.sigma_n2 / cfg.p_tilde
        assert c > 0.0
        assert table_config(kappa_s=0.0).objective_coeffs[0] == 0.0
        # a q + c is the diagonal of the beam's distortion weight, computed
        # term by term as in the model
        v = complex_gaussian(rng, cfg.n_s)
        expected = (1 + cfg.kappa_d) * cfg.kappa_s * np.abs(v) ** 2
        expected += (1 + cfg.kappa_d) * cfg.sigma_n2 / cfg.p_tilde
        np.testing.assert_allclose(a * np.abs(v) ** 2 + c, expected, rtol=1e-14)


class TestChannelSet:
    def test_dimension_mismatch_rejected(self, rng):
        with pytest.raises(DimensionError):
            ChannelSet(
                h_si=complex_gaussian(rng, 5, 3),
                h_id=complex_gaussian(rng, 4),
                h_sd=complex_gaussian(rng, 3),
            )

    def test_nonfinite_rejected(self, rng):
        h_si = complex_gaussian(rng, 2, 2)
        h_si[0, 0] = np.nan
        with pytest.raises(DimensionError, match="h_si"):
            ChannelSet(h_si=h_si, h_id=complex_gaussian(rng, 2), h_sd=complex_gaussian(rng, 2))


class TestComposite:
    def test_no_irs_single_column(self, rng):
        ch = random_channels(rng, 0, 3)
        psi = build_composite(ch)
        assert psi.shape == (3, 1)
        np.testing.assert_allclose(psi[:, 0], ch.h_sd)

    def test_zero_drop_link_zeroes_reflect_columns(self, rng):
        ch = ChannelSet(
            h_si=complex_gaussian(rng, 5, 3),
            h_id=np.zeros(5, dtype=complex),
            h_sd=complex_gaussian(rng, 3),
        )
        psi = build_composite(ch)
        assert np.all(psi[:, :5] == 0)
        np.testing.assert_allclose(psi[:, 5], ch.h_sd)

    def test_lifting_reproduces_effective_channel(self, rng):
        # v = H_SI^H Theta^H h_ID + h_SD must equal psi @ lifted for any phases
        for _ in range(20):
            n_i, n_s = int(rng.integers(1, 9)), int(rng.integers(1, 5))
            ch = random_channels(rng, n_i, n_s)
            phases = rng.uniform(0, 2 * np.pi, n_i)
            direct = ch.h_si.conj().T @ (np.conj(np.exp(1j * phases)) * ch.h_id) + ch.h_sd
            via_psi = build_composite(ch) @ lift_phases(phases)
            np.testing.assert_allclose(via_psi, direct, atol=1e-12 * max(1.0, np.abs(direct).max()))
            np.testing.assert_array_equal(composite_vector(phases, build_composite(ch)), via_psi)

    def test_no_irs_composite_vector_is_the_direct_link(self, rng):
        ch = random_channels(rng, 6, 3)
        np.testing.assert_array_equal(composite_vector(None, build_composite(ch)), ch.h_sd)

    def test_numerator_reconstruction_2x2(self, rng):
        ch = random_channels(rng, 2, 2)
        phases = rng.uniform(0, 2 * np.pi, 2)
        w = complex_gaussian(rng, 2)
        v = ch.h_si.conj().T @ (np.conj(np.exp(1j * phases)) * ch.h_id) + ch.h_sd
        lhs = np.abs(np.vdot(v, w))
        rhs = np.abs(np.vdot(build_composite(ch) @ lift_phases(phases), w))
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestLiftPhases:
    def test_lifted_vector_is_the_conjugate_coefficients_and_a_unit_slack(self):
        phases = np.array([0.0, np.pi / 2.0])
        np.testing.assert_array_equal(lift_phases(phases), np.append(np.conj(np.exp(1j * phases)), 1.0))
        # any array-like, as the functions that take phases accept them
        np.testing.assert_array_equal(lift_phases([0.0, np.pi / 2.0]), lift_phases(phases))

    @pytest.mark.parametrize("shape", [(6,), (3, 6)])
    def test_lift_and_read_back_round_trip(self, rng, shape):
        phases = rng.uniform(-np.pi, np.pi, shape)
        back = reflect_phases(lift_phases(phases))
        assert back.shape == shape
        np.testing.assert_allclose(np.exp(1j * back), np.exp(1j * phases), atol=1e-14)
        # each row of a stack lifts and reads back bit for bit as it does alone
        for row, phases_row in zip(np.atleast_2d(back), np.atleast_2d(phases)):
            assert row.tobytes() == reflect_phases(lift_phases(phases_row)).tobytes()

    def test_reflect_phases_divides_out_slack(self, rng):
        phases = rng.uniform(0, 2 * np.pi, 4)
        slack = np.exp(1j * 0.7)
        tt = np.concatenate([np.conj(np.exp(1j * phases)) * slack, [slack]])
        np.testing.assert_allclose(np.exp(1j * reflect_phases(tt)), np.exp(1j * phases), atol=1e-14)
