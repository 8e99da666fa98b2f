import numpy as np
import pytest

from irsbf.channels import sample_los
from irsbf.mm import (
    _LAMBDA_MARGIN,
    MMSettings,
    _evaluate,
    _project_unit,
    _run_constants,
    _step,
    _surrogate_coefficient,
    _top_eigenvalue,
    lambda_max_power_iteration,
    lifted_objective,
    quantize_phases,
    random_lifted_init,
    run_mm,
)
from irsbf.model import (
    ChannelSet,
    ConfigError,
    ReflectConfig,
    SystemConfig,
    build_composite,
    lift_reflect,
)

from irsbf.txbf import _row_power

from conftest import complex_gaussian, random_channels


def random_problem(rng, n_i=8, n_s=4, **cfg_overrides):
    params = dict(n_s=n_s, n_i=n_i, p=2.0, kappa_s=0.1, kappa_d=0.15, sigma_n2=0.05)
    params.update(cfg_overrides)
    cfg = SystemConfig(**params)
    psi = build_composite(random_channels(rng, n_i, n_s))
    return cfg, psi


def surrogate_value(tt, tt0, psi, cfg):
    """Oracle: the minorizer of the lifted objective, expanded at ``tt0`` and evaluated at ``tt``.

    Built from the optimizer's own constants, evaluation and surrogate
    coefficient.  It lower-bounds the objective everywhere on the torus,
    touches it at the expansion point, and matches its first-order behavior
    there; its linear term is Re<alpha, tt> with ``alpha`` the coefficient
    whose phases the optimizer step takes.
    """
    tt = np.asarray(tt, dtype=complex).ravel()
    tt0 = np.asarray(tt0, dtype=complex).ravel()
    run = _run_constants(psi, cfg)
    v0, xi, f0 = _evaluate(tt0, run)
    alpha, d, lam = _surrogate_coefficient(tt0, v0, xi, run)
    term1 = 2.0 * float(np.real(np.vdot(alpha, tt)))
    term2 = -2.0 * run.a * tt0.shape[0] * lam
    term3 = 2.0 * run.a * float(np.sum(d * _row_power(v0))) - f0
    return term1 + term2 + term3


def run_steps(tt, psi, cfg, steps, accelerate=False):
    """Run exactly ``steps`` optimizer iterations (no early stop) from ``tt``."""
    return run_mm(tt, psi, cfg, MMSettings(epsilon=1e-300, max_iter=steps, accelerate=accelerate))


def quantities(tt0, psi, cfg):
    """Surrogate quantities (v0, xi, d, lam) and coefficient alpha at tt0."""
    run = _run_constants(psi, cfg)
    v0, xi, _ = _evaluate(tt0, run)
    alpha, d, lam = _surrogate_coefficient(tt0, v0, xi, run)
    return v0, xi, d, lam, alpha


def mm_step(tt0, psi, cfg):
    """One optimizer step from tt0."""
    run = _run_constants(psi, cfg)
    return _step(tt0, _evaluate(tt0, run), run)


def random_factor(rng, n_i, rank):
    """A factor with unit-norm rows, one per lifted entry."""
    v = complex_gaussian(rng, n_i + 1, rank)
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _oracle_per_row(x, like):
    return x if like.ndim == 1 else x[:, None]


def evaluate_oracle(tt, run):
    """Oracle: the two-pass evaluation, with the objective summed by ``np.sum``."""
    v = run.m @ tt
    q = _row_power(v)
    xi = run.a * q + run.c
    return v, xi, float(np.sum(q / xi))


def surrogate_coefficient_oracle(tt0, v0, xi, run):
    """Oracle: the surrogate coefficient with the eigenvalue from ``np.linalg.eigvalsh``."""
    u = v0 / _oracle_per_row(xi, v0)
    if run.a == 0.0:
        return run.mh @ u, np.zeros_like(xi), 0.0
    d = _row_power(u)
    lam = 0.0
    if d.any():
        sd = np.sqrt(d)
        lam = float(np.linalg.eigvalsh(sd[:, None] * run.gram * sd[None, :])[-1])
        lam = max(lam, 0.0) * (1.0 + _LAMBDA_MARGIN)
    alpha = run.mh @ (u - run.a * _oracle_per_row(d, v0) * v0) + (run.a * lam) * tt0
    return alpha, d, lam


class TestLiftedObjective:
    def test_matrix_form_equivalence(self, rng):
        # separable sum vs the explicit diagonal-matrix-inverse quadratic form
        cfg, psi = random_problem(rng)
        for _ in range(10):
            tt = random_lifted_init(rng, cfg.n_i)
            v = psi @ tt
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
        step1 = mm_step(random_lifted_init(rng, 0), psi, cfg)
        step2 = mm_step(step1, psi, cfg)
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


class TestKernels:
    def test_evaluation_objective_is_bitwise_lifted_objective(self, rng):
        for n_i, n_s in ((0, 1), (5, 3), (40, 4)):
            cfg, psi = random_problem(rng, n_i=n_i, n_s=n_s)
            run = _run_constants(psi, cfg)
            tt = random_lifted_init(rng, n_i)
            v, xi, obj = _evaluate(tt, run)
            assert obj == lifted_objective(tt, psi, cfg)
            np.testing.assert_array_equal(v, psi @ tt)
            a, c = cfg.objective_coeffs
            np.testing.assert_array_equal(xi, a * np.abs(v) ** 2 + c)
            factor = random_factor(rng, n_i, min(n_s + 1, n_i + 1))
            assert _evaluate(factor, run)[2] == lifted_objective(factor, psi, cfg)

    def test_fused_alpha_matches_the_two_product_form(self, rng):
        for n_i, n_s in ((0, 1), (6, 4), (50, 4)):
            cfg, psi = random_problem(rng, n_i=n_i, n_s=n_s)
            m = psi
            a, _ = cfg.objective_coeffs
            for tt0 in (random_lifted_init(rng, n_i), random_factor(rng, n_i, 3)):
                v0, xi, d, lam, alpha = quantities(tt0, psi, cfg)
                per_row = (lambda x: x) if tt0.ndim == 1 else (lambda x: x[:, None])
                two = m.conj().T @ (v0 / per_row(xi)) - a * (
                    m.conj().T @ (per_row(d) * v0) - lam * tt0
                )
                assert np.linalg.norm(alpha - two) <= 1e-12 * np.linalg.norm(two)

    def test_zero_channel_skips_the_eigenvalue(self):
        cfg = SystemConfig(n_s=3, n_i=4, p=1.0, kappa_s=0.1, kappa_d=0.1, sigma_n2=0.1)
        ch = ChannelSet(
            h_si=np.zeros((4, 3), complex), h_id=np.zeros(4, complex), h_sd=np.zeros(3, complex)
        )
        _, _, d, lam, alpha = quantities(np.ones(5, complex), build_composite(ch), cfg)
        assert lam == 0.0
        np.testing.assert_array_equal(d, 0.0)
        np.testing.assert_array_equal(alpha, 0.0)

    def test_unit_projection_matches_the_phase_map(self, rng):
        z = complex_gaussian(rng, 200)
        np.testing.assert_allclose(
            _project_unit(z, 1.0), np.exp(1j * np.angle(z)), rtol=0, atol=1e-15
        )
        f = complex_gaussian(rng, 30, 4)
        np.testing.assert_allclose(
            _project_unit(f, 0.0), f / np.linalg.norm(f, axis=1, keepdims=True), rtol=0, atol=1e-15
        )

    def test_unit_projection_keeps_the_fallback_at_zeros(self, rng):
        z = complex_gaussian(rng, 6)
        z[[1, 4]] = 0.0
        keep = random_lifted_init(rng, 5)
        out = _project_unit(z, keep)
        assert out[1] == keep[1] and out[4] == keep[4]
        live = [0, 2, 3, 5]
        np.testing.assert_allclose(out[live], np.exp(1j * np.angle(z[live])), rtol=0, atol=1e-15)
        f = complex_gaussian(rng, 4, 3)
        f[2] = 0.0
        keep_f = random_factor(rng, 3, 3)
        out_f = _project_unit(f, keep_f)
        np.testing.assert_array_equal(out_f[2], keep_f[2])
        np.testing.assert_allclose(np.linalg.norm(out_f, axis=1), 1.0, atol=1e-15)

    def test_random_init_is_unit_modulus(self, rng):
        z = random_lifted_init(rng, 30)
        np.testing.assert_allclose(np.abs(z), 1.0, atol=1e-15)


class TestLeanKernelsMatchTheirOracles:
    @pytest.mark.parametrize(
        "n_i, n_s, overrides",
        [(8, 4, {}), (50, 4, {}), (0, 1, {}), (8, 4, {"kappa_s": 0.0, "kappa_d": 0.0})],
        ids=["n8", "n50", "n_s1-n_i0", "kappa0"],
    )
    def test_evaluation_and_coefficient_are_bitwise_the_oracles(self, rng, n_i, n_s, overrides):
        cfg, psi = random_problem(rng, n_i=n_i, n_s=n_s, **overrides)
        run = _run_constants(psi, cfg)
        assert (run.a == 0.0) == ("kappa_s" in overrides)
        for tt in (random_lifted_init(rng, n_i), random_factor(rng, n_i, min(n_s + 1, n_i + 1))):
            # along a run of plain steps, so the iterates are the optimizer's own
            for _ in range(5):
                ev = _evaluate(tt, run)
                for got, want in zip(ev, evaluate_oracle(tt, run)):
                    np.testing.assert_array_equal(got, want)
                assert type(ev[2]) is float
                coefficient = _surrogate_coefficient(tt, ev[0], ev[1], run)
                oracle = surrogate_coefficient_oracle(tt, ev[0], ev[1], run)
                for got, want in zip(coefficient, oracle):
                    np.testing.assert_array_equal(got, want)
                tt = _step(tt, ev, run)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_top_eigenvalue_is_bitwise_eigvalsh(self, rng, n):
        for _ in range(50):
            b = complex_gaussian(rng, n, n)
            r = rng.standard_normal((n, n))
            for h in (b @ b.conj().T, b + b.conj().T, r @ r.T, r + r.T):
                assert _top_eigenvalue(h) == np.linalg.eigvalsh(h)[-1]
        assert _top_eigenvalue(np.zeros((n, n))) == 0.0

    def test_top_eigenvalue_raises_on_a_nan_matrix(self):
        # numpy's default error state warns of a failed solve before the raise
        with np.errstate(invalid="ignore"):
            full = np.full((3, 3), np.nan, dtype=complex)
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.eigvalsh(full)
            with pytest.raises(np.linalg.LinAlgError):
                _top_eigenvalue(full)
            # a NaN that LAPACK passes through, which eigvalsh returns, raises too
            partial = np.eye(3, dtype=complex)
            partial[2, 1] = np.nan
            assert np.isnan(np.linalg.eigvalsh(partial)[-1])
            with pytest.raises(np.linalg.LinAlgError):
                _top_eigenvalue(partial)
        assert issubclass(np.linalg.LinAlgError, ValueError)


class TestLambdaShift:
    def test_shifted_coupling_matrix_is_psd(self, rng):
        for _ in range(10):
            cfg, psi = random_problem(rng, n_i=int(rng.integers(1, 10)))
            _, _, d, lam, _ = quantities(random_lifted_init(rng, cfg.n_i), psi, cfg)
            omega = psi.conj().T @ (d[:, None] * psi)
            shifted = lam * np.eye(omega.shape[0]) - omega
            min_eig = float(np.linalg.eigvalsh(shifted)[0])
            assert min_eig >= -1e-9 * max(1.0, lam)

    def test_phase_vector_and_one_column_factor_share_the_eigenvalue(self, rng):
        for n_i, n_s in ((0, 1), (3, 1), (8, 4), (40, 3)):
            cfg, psi = random_problem(rng, n_i=n_i, n_s=n_s)
            tt = random_lifted_init(rng, n_i)
            lam = quantities(tt, psi, cfg)[3]
            assert lam > 0.0
            assert quantities(tt[:, None], psi, cfg)[3] == lam

    def test_omega_psd(self, rng):
        cfg, psi = random_problem(rng, n_i=7)
        _, _, d, _, _ = quantities(random_lifted_init(rng, 7), psi, cfg)
        assert np.all(d >= 0.0)
        omega = psi.conj().T @ (d[:, None] * psi)
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
            res.objectives[-1], rel=1e-12
        )

    def test_max_iter_flagging(self, rng):
        cfg, psi = random_problem(rng, n_i=12)
        res = run_mm(
            random_lifted_init(rng, 12), psi, cfg,
            MMSettings(accelerate=False, max_iter=2, epsilon=1e-14),
        )
        assert not res.converged
        assert res.iterations == 2

    @pytest.mark.parametrize("epsilon", [0.0, -1e-5, float("inf"), float("nan")])
    def test_accuracy_must_be_positive_and_finite(self, epsilon):
        # an infinite accuracy would stop every run after one iteration
        with pytest.raises(ConfigError, match="epsilon must be positive and finite"):
            MMSettings(epsilon=epsilon)

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
            rc = quantize_phases(ReflectConfig(np.zeros(3)), bits)
            np.testing.assert_array_equal(rc.phases, 0.0)

    def test_one_bit(self):
        rc = quantize_phases(
            ReflectConfig(np.array([0.9 * np.pi])), 1
        )
        assert rc.phases[0] == pytest.approx(np.pi)

    def test_wrap_around(self):
        rc = quantize_phases(
            ReflectConfig(np.array([1.99 * np.pi])), 2
        )
        assert rc.phases[0] == 0.0

    def test_tie_breaks_to_smaller_level(self):
        rc = quantize_phases(
            ReflectConfig(np.array([np.pi / 2.0])), 1
        )
        assert rc.phases[0] == 0.0

    def test_requires_discrete(self):
        with pytest.raises(ConfigError):
            quantize_phases(ReflectConfig(np.zeros(2)), None)

    @pytest.mark.parametrize("bits", range(1, 9))
    def test_matches_the_distance_matrix_oracle(self, bits):
        # the nearest of all 2**bits levels under wrapped angular distance,
        # found by brute force over an n_i x 2**bits distance matrix
        phases = np.random.default_rng(100 + bits).uniform(-4.0 * np.pi, 4.0 * np.pi, 5_000)
        levels = 2.0 * np.pi * np.arange(2**bits) / 2**bits
        wrapped = np.abs((phases[:, None] - levels[None, :] + np.pi) % (2.0 * np.pi) - np.pi)
        oracle = levels[np.argmin(wrapped, axis=1)]
        np.testing.assert_array_equal(quantize_phases(ReflectConfig(phases), bits).phases, oracle)

    @pytest.mark.parametrize("bits", range(1, 9))
    def test_exact_ties_go_to_the_lower_index(self, bits):
        # phases whose index is an exact half-integer; at the wrap the
        # lower index is the last level, not level 0
        n = 2**bits
        step = 2.0 * np.pi / n
        for j in (0, n // 2, n - 1):
            phase = (j + 0.5) * step
            if np.mod(phase, 2.0 * np.pi) / step != j + 0.5:
                continue  # the phase itself rounded off the midpoint
            assert quantize_phases(ReflectConfig(np.array([phase])), bits).phases[0] == (
                2.0 * np.pi * j / n
            )
        assert quantize_phases(ReflectConfig(np.array([np.pi / n])), bits).phases[0] == 0.0

    def test_fine_resolution_needs_no_level_table(self):
        phases = np.array([0.1, 3.0, -2.0])
        fine = quantize_phases(ReflectConfig(phases), 40).phases
        np.testing.assert_allclose(fine, np.mod(phases, 2.0 * np.pi), rtol=0.0, atol=1e-11)
        quantize_phases(ReflectConfig(phases), 52)
        with pytest.raises(ConfigError, match="bits <= 52, got 53"):
            quantize_phases(ReflectConfig(phases), 53)

    def test_quantized_never_beats_continuous(self, rng):
        for seed in range(10):
            local = np.random.default_rng(seed)
            cfg, psi = random_problem(local, n_i=6)
            res = run_mm(random_lifted_init(local, 6), psi, cfg, MMSettings())
            quant = quantize_phases(res.reflect, 2)
            cont_val = res.objectives[-1]
            quant_val = lifted_objective(lift_reflect(quant), psi, cfg)
            assert quant_val <= cont_val * (1 + 1e-9)
            assert quant_val >= 0.0

    def test_exhaustive_discrete_sandwich(self, rng):
        # two elements, four levels: the discrete exhaustive optimum sits
        # between the projected solution and the continuous optimum
        cfg, psi = random_problem(rng, n_i=2)
        res = run_mm(random_lifted_init(rng, 2), psi, cfg, MMSettings(epsilon=1e-10))
        quant = quantize_phases(res.reflect, 2)
        quant_val = lifted_objective(lift_reflect(quant), psi, cfg)
        levels = 2 * np.pi * np.arange(4) / 4
        best = 0.0
        for p1 in levels:
            for p2 in levels:
                rc = ReflectConfig(np.array([p1, p2]))
                best = max(best, lifted_objective(lift_reflect(rc), psi, cfg))
        assert best >= quant_val - 1e-12
        assert best <= res.objectives[-1] * (1 + 1e-9)
