import numpy as np
import pytest

from irsbf.channels import sample_los
from irsbf.mm import (
    MMSettings,
    _mm_alpha,
    _mm_map,
    _mm_quantities,
    lambda_max_power_iteration,
    lifted_objective,
    quantize_phases,
    random_lifted_init,
    run_mm,
    surrogate_value,
)
from irsbf.model import (
    ChannelSet,
    ConfigError,
    PhaseConstraint,
    ReflectConfig,
    SystemConfig,
    build_composite,
    lift_reflect,
)
from irsbf.txbf import psi_tilde

from conftest import complex_gaussian, random_channels


def random_problem(rng, n_i=8, n_s=4, **cfg_overrides):
    params = dict(n_s=n_s, n_i=n_i, p=2.0, kappa_s=0.1, kappa_d=0.15, sigma_n2=0.05)
    params.update(cfg_overrides)
    cfg = SystemConfig(**params)
    psi = build_composite(random_channels(rng, n_i, n_s))
    return cfg, psi


def run_steps(tt, psi, cfg, steps, accelerate=False):
    """Run exactly ``steps`` optimizer iterations (no early stop) from ``tt``."""
    return run_mm(tt, psi, cfg, MMSettings(epsilon=1e-300, max_iter=steps, accelerate=accelerate))


def quantities(tt0, psi, cfg):
    """Surrogate quantities (v0, xi, d, lam) and coefficient alpha at tt0."""
    v0, xi, d, lam = _mm_quantities(tt0, psi, cfg, psi.psi @ psi.psi.conj().T)
    return v0, xi, d, lam, _mm_alpha(tt0, psi, cfg, v0, xi, d, lam)


class TestLiftedObjective:
    def test_matrix_form_equivalence(self, rng):
        # separable sum vs the explicit diagonal-matrix-inverse quadratic form
        cfg, psi = random_problem(rng)
        for _ in range(10):
            tt = random_lifted_init(rng, cfg.n_i)
            v = psi.psi @ tt
            a = (1 + cfg.kappa_d) * cfg.kappa_s
            c = (1 + cfg.kappa_d) * cfg.sigma_n2 / cfg.p_tilde
            inner = np.diag(a * np.abs(v) ** 2 + c)
            matrix_form = float(np.real(np.vdot(v, np.linalg.solve(inner, v))))
            assert lifted_objective(tt, psi, cfg) == pytest.approx(matrix_form, rel=1e-12)

    def test_zero_composite(self, rng):
        cfg = SystemConfig(n_s=3, n_i=4, p=1.0, kappa_s=0.1, kappa_d=0.1, sigma_n2=0.1)
        ch = ChannelSet(
            h_si=np.zeros((4, 3), complex), h_id=np.zeros(4, complex), h_sd=np.zeros(3, complex)
        )
        tt = random_lifted_init(rng, 4)
        assert lifted_objective(tt, build_composite(ch), cfg) == 0.0

    def test_global_phase_invariance(self, rng):
        cfg, psi = random_problem(rng)
        tt = random_lifted_init(rng, cfg.n_i)
        for _ in range(5):
            phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
            assert lifted_objective(phase * tt, psi, cfg) == pytest.approx(
                lifted_objective(tt, psi, cfg), rel=1e-12
            )


class TestPowerIteration:
    def test_identity(self):
        assert lambda_max_power_iteration(np.eye(5)) == pytest.approx(1.0, rel=1e-12)

    def test_diagonal(self):
        assert lambda_max_power_iteration(np.diag([1.0, 2.0, 7.0])) == pytest.approx(7.0, rel=1e-10)

    def test_zero_matrix(self):
        assert lambda_max_power_iteration(np.zeros((4, 4))) == 0.0

    def test_random_psd_vs_dense_eigensolve(self, rng):
        for _ in range(10):
            b = complex_gaussian(rng, 12, 12)
            omega = b @ b.conj().T
            expected = float(np.linalg.eigvalsh(omega)[-1])
            lam = lambda_max_power_iteration(omega)
            assert lam == pytest.approx(expected, rel=1e-8)


class TestMMStep:
    def test_monotone_over_200_steps(self, rng):
        cfg, psi = random_problem(rng, n_i=8)
        res = run_steps(random_lifted_init(rng, 8), psi, cfg, 200)
        objs = res.objectives
        assert all(b >= a - 1e-12 for a, b in zip(objs, objs[1:]))
        np.testing.assert_allclose(np.abs(res.reflect.theta), 1.0, atol=1e-12)

    def test_scalar_problem_fixed_point_in_one_step(self, rng):
        cfg, psi = random_problem(rng, n_i=0, n_s=3)
        gram = psi.psi @ psi.psi.conj().T
        step1 = _mm_map(random_lifted_init(rng, 0), psi, cfg, gram)
        step2 = _mm_map(step1, psi, cfg, gram)
        assert lifted_objective(step2, psi, cfg) == pytest.approx(
            lifted_objective(step1, psi, cfg), rel=1e-12
        )
        np.testing.assert_allclose(step2, step1, atol=1e-12)

    def test_rank_one_alignment_matches_closed_form(self, rng):
        # no direct link, ideal hardware, single transmit antenna: the fixed
        # point must combine the drop link coherently
        los = sample_los(rng, n_s=1, n_i=6, gain=0.5)
        h_id = complex_gaussian(rng, 6)
        ch = ChannelSet(h_si=los.h_si, h_id=h_id, h_sd=np.zeros(1, complex))
        cfg = SystemConfig(n_s=1, n_i=6, p=1.0, kappa_s=0.0, kappa_d=0.0, sigma_n2=0.1)
        psi = build_composite(ch)
        res = run_mm(random_lifted_init(rng, 6), psi, cfg, MMSettings(epsilon=1e-12))
        combined = np.abs(np.vdot(h_id, res.reflect.theta * los.a_i))
        assert combined == pytest.approx(np.sum(np.abs(h_id)), rel=1e-6)

    def test_cached_quantities(self, rng):
        cfg, psi = random_problem(rng, n_i=5)
        _, xi, _, lam, alpha = quantities(random_lifted_init(rng, 5), psi, cfg)
        floor = (1 + cfg.kappa_d) * cfg.sigma_n2 / cfg.p_tilde
        assert np.all(xi >= floor * (1 - 1e-12))
        assert lam >= 0.0
        assert alpha.shape == (6,)


class TestLambdaShift:
    def test_shifted_coupling_matrix_is_psd(self, rng):
        for _ in range(10):
            cfg, psi = random_problem(rng, n_i=int(rng.integers(1, 10)))
            _, _, d, lam, _ = quantities(random_lifted_init(rng, cfg.n_i), psi, cfg)
            omega = psi.psi.conj().T @ (d[:, None] * psi.psi)
            shifted = lam * np.eye(omega.shape[0]) - omega
            min_eig = float(np.linalg.eigvalsh(shifted)[0])
            assert min_eig >= -1e-9 * max(1.0, lam)

    def test_phase_vector_and_one_column_factor_share_the_eigenvalue(self, rng):
        for n_i, n_s in ((0, 1), (3, 1), (8, 4), (40, 3)):
            cfg, psi = random_problem(rng, n_i=n_i, n_s=n_s)
            tt = random_lifted_init(rng, n_i)
            gram = psi.psi @ psi.psi.conj().T
            lam = _mm_quantities(tt, psi, cfg, gram)[3]
            assert lam > 0.0
            assert _mm_quantities(tt[:, None], psi, cfg, gram)[3] == lam

    def test_omega_psd(self, rng):
        cfg, psi = random_problem(rng, n_i=7)
        _, _, d, _, _ = quantities(random_lifted_init(rng, 7), psi, cfg)
        assert np.all(d >= 0.0)
        omega = psi.psi.conj().T @ (d[:, None] * psi.psi)
        assert float(np.linalg.eigvalsh(omega)[0]) >= -1e-12


class TestSurrogate:
    def test_tight_at_expansion_point(self, rng):
        for _ in range(5):
            cfg, psi = random_problem(rng, n_i=int(rng.integers(0, 9)))
            tt0 = random_lifted_init(rng, cfg.n_i)
            f0 = lifted_objective(tt0, psi, cfg)
            assert surrogate_value(tt0, tt0, psi, cfg) == pytest.approx(f0, abs=1e-10 * max(1, f0))

    def test_minorizes_everywhere(self, rng):
        cfg, psi = random_problem(rng, n_i=6)
        tt0 = random_lifted_init(rng, 6)
        for _ in range(1000):
            tt = random_lifted_init(rng, 6)
            gap = lifted_objective(tt, psi, cfg) - surrogate_value(tt, tt0, psi, cfg)
            assert gap >= -1e-10

    def test_first_order_match(self, rng):
        cfg, psi = random_problem(rng, n_i=5)
        tt0 = random_lifted_init(rng, 5)
        h = 1e-6
        for _ in range(10):
            direction = rng.standard_normal(6)

            def on_torus(t):
                return tt0 * np.exp(1j * t * direction)

            df = (
                lifted_objective(on_torus(h), psi, cfg)
                - lifted_objective(on_torus(-h), psi, cfg)
            ) / (2 * h)
            ds = (
                surrogate_value(on_torus(h), tt0, psi, cfg)
                - surrogate_value(on_torus(-h), tt0, psi, cfg)
            ) / (2 * h)
            assert ds == pytest.approx(df, abs=1e-5 * max(1.0, abs(df)))


class TestRunMM:
    def test_monotone_and_unit_modulus(self, rng):
        cfg, psi = random_problem(rng, n_i=10)
        for accelerate in (False, True):
            res = run_mm(
                random_lifted_init(rng, 10), psi, cfg, MMSettings(accelerate=accelerate)
            )
            objs = res.objectives
            assert all(b >= a - 1e-12 for a, b in zip(objs, objs[1:]))
            np.testing.assert_allclose(np.abs(res.reflect.theta), 1.0, atol=1e-12)
            assert res.converged

    def test_extraction_preserves_objective(self, rng):
        cfg, psi = random_problem(rng, n_i=9)
        res = run_mm(random_lifted_init(rng, 9), psi, cfg, MMSettings())
        ch_free = psi  # evaluate via the reflect config on the same composite
        rc = res.reflect
        tt = lift_reflect(rc)
        assert lifted_objective(tt, ch_free, cfg) == pytest.approx(
            res.result.psi_tilde_val, rel=1e-12
        )

    def test_max_iter_flagging(self, rng):
        cfg, psi = random_problem(rng, n_i=12)
        res = run_mm(
            random_lifted_init(rng, 12), psi, cfg,
            MMSettings(accelerate=False, max_iter=2, epsilon=1e-14),
        )
        assert not res.converged
        assert res.iterations == 2

    def test_deterministic_ones_init(self, rng):
        cfg, psi = random_problem(rng, n_i=4)
        a = run_mm(np.ones(5, dtype=complex), psi, cfg, MMSettings())
        b = run_mm(np.ones(5, dtype=complex), psi, cfg, MMSettings())
        np.testing.assert_array_equal(a.reflect.theta, b.reflect.theta)


class TestSquarem:
    def test_fixed_point_falls_back_to_plain_step(self, rng):
        cfg, psi = random_problem(rng, n_i=6)
        res = run_mm(random_lifted_init(rng, 6), psi, cfg, MMSettings(epsilon=1e-13))
        state = lift_reflect(res.reflect)
        plain = run_steps(state, psi, cfg, 1)
        accel = run_steps(state, psi, cfg, 1, accelerate=True)
        assert accel.objectives[-1] == pytest.approx(plain.objectives[-1], rel=1e-10)

    def test_accelerated_cycle_beats_plain_step(self, rng):
        cfg, psi = random_problem(rng, n_i=16)
        state = random_lifted_init(rng, 16)
        for _ in range(10):
            plain = run_steps(state, psi, cfg, 1)
            accel = run_steps(state, psi, cfg, 1, accelerate=True)
            assert accel.objectives[-1] >= plain.objectives[-1] - 1e-12
            state = lift_reflect(accel.reflect)

    def test_accelerated_converges_faster(self, rng):
        cfg, psi = random_problem(rng, n_i=20)
        init = random_lifted_init(rng, 20)
        settings = MMSettings(epsilon=1e-5)
        plain = run_mm(init, psi, cfg, MMSettings(epsilon=1e-5, accelerate=False, max_iter=50_000))
        accel = run_mm(init, psi, cfg, settings)
        assert accel.iterations < plain.iterations


class TestQuantize:
    def test_exact_grid_point(self):
        for bits in (1, 2, 3):
            rc = quantize_phases(ReflectConfig.from_phases(np.zeros(3)), PhaseConstraint.discrete(bits))
            np.testing.assert_array_equal(rc.phases, 0.0)

    def test_one_bit(self):
        rc = quantize_phases(
            ReflectConfig.from_phases(np.array([0.9 * np.pi])), PhaseConstraint.discrete(1)
        )
        assert rc.phases[0] == pytest.approx(np.pi)

    def test_wrap_around(self):
        rc = quantize_phases(
            ReflectConfig.from_phases(np.array([1.99 * np.pi])), PhaseConstraint.discrete(2)
        )
        assert rc.phases[0] == 0.0

    def test_tie_breaks_to_smaller_level(self):
        rc = quantize_phases(
            ReflectConfig.from_phases(np.array([np.pi / 2.0])), PhaseConstraint.discrete(1)
        )
        assert rc.phases[0] == 0.0

    def test_requires_discrete(self):
        with pytest.raises(ConfigError):
            quantize_phases(ReflectConfig.from_phases(np.zeros(2)), PhaseConstraint.continuous())

    def test_quantized_never_beats_continuous(self, rng):
        for seed in range(10):
            local = np.random.default_rng(seed)
            cfg, psi = random_problem(local, n_i=6)
            res = run_mm(random_lifted_init(local, 6), psi, cfg, MMSettings())
            quant = quantize_phases(res.reflect, PhaseConstraint.discrete(2))
            cont_val = res.result.psi_tilde_val
            quant_val = lifted_objective(lift_reflect(quant), psi, cfg)
            assert quant_val <= cont_val * (1 + 1e-9)
            assert quant_val >= 0.0

    def test_exhaustive_discrete_sandwich(self, rng):
        # two elements, four levels: the discrete exhaustive optimum sits
        # between the projected solution and the continuous optimum
        cfg, psi = random_problem(rng, n_i=2)
        res = run_mm(random_lifted_init(rng, 2), psi, cfg, MMSettings(epsilon=1e-10))
        quant = quantize_phases(res.reflect, PhaseConstraint.discrete(2))
        quant_val = lifted_objective(lift_reflect(quant), psi, cfg)
        levels = 2 * np.pi * np.arange(4) / 4
        best = 0.0
        for p1 in levels:
            for p2 in levels:
                rc = ReflectConfig.from_phases(np.array([p1, p2]))
                best = max(best, lifted_objective(lift_reflect(rc), psi, cfg))
        assert best >= quant_val - 1e-12
        assert best <= res.result.psi_tilde_val * (1 + 1e-9)
