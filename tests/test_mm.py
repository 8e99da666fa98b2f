import math
import re
from dataclasses import replace

import numpy as np
import pytest

from irsbf.channels import sample_los
from irsbf.mm import (
    _BLEND,
    _LAMBDA_MARGIN,
    _ROWS,
    MMResult,
    MMSettings,
    _diagonal_certificate,
    _evaluate,
    _project_unit,
    _run_constants,
    _step,
    _step_length,
    _step_lengths,
    _surrogate_coefficient,
    _top_eigenvalue,
    lambda_max_power_iteration,
    lifted_objective,
    quantize_phases,
    random_lifted_init,
    run_mm,
    run_stacked_mm,
)
import irsbf.mm as mm_mod
from irsbf.model import (
    ChannelSet,
    ConfigError,
    DimensionError,
    SystemConfig,
    build_composite,
    lift_phases,
    reflect_phases,
)

from irsbf.sim import _draw, child_seed, table_defaults, with_setting

from conftest import complex_gaussian, random_channels


def row_power(v):
    """|v|^2 per entry of a vector, or summed along each row of a matrix."""
    p = np.abs(v) ** 2
    return p if p.ndim == 1 else p.sum(axis=1)


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
    alpha, d, y = _surrogate_coefficient(tt0, v0, xi, run)
    term1 = 2.0 * float(np.real(np.vdot(alpha, tt)))
    # tt^H diag(y) tt = sum(y) on the torus, at tt and at tt0 alike
    term2 = -2.0 * run.a * float(np.sum(y))
    term3 = 2.0 * run.a * float(np.sum(d * row_power(v0))) - f0
    return term1 + term2 + term3


def run_steps(tt, psi, cfg, steps, accelerate=False):
    """Run exactly ``steps`` optimizer iterations (no early stop) from ``tt``."""
    return run_mm(tt, psi, cfg, MMSettings(epsilon=1e-300, max_iter=steps, accelerate=accelerate))


def quantities(tt0, psi, cfg):
    """Surrogate quantities (v0, xi, d, y) and coefficient alpha at tt0."""
    run = _run_constants(psi, cfg)
    v0, xi, _ = _evaluate(tt0, run)
    alpha, d, y = _surrogate_coefficient(tt0, v0, xi, run)
    return v0, xi, d, y, alpha


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
    q = row_power(v)
    xi = run.a * q + run.c
    return v, xi, float(np.sum(q / xi))


def majorizer_weights(tt0, psi, cfg):
    """Oracle: the element weights w, b_i^H z b_i / c^2 for the bound's blended image z at tt0.

    b = diag(sqrt(c) / xi) Psi and m = b tt0 (a factor's columns alike), and
    z = (1 - beta) m m^H + beta |m|^2 / n_s I, written out.
    """
    a, c = cfg.objective_coeffs
    v0 = psi @ tt0
    xi = a * row_power(v0) + c
    b = (np.sqrt(c) / xi)[:, None] * psi
    m = b @ tt0
    m = m if m.ndim == 2 else m[:, None]
    z = (1.0 - _BLEND) * (m @ m.conj().T) + _BLEND * np.sum(np.abs(m) ** 2) / len(m) * np.eye(len(m))
    return np.sqrt(np.einsum("mi,mn,ni->i", b.conj(), z, b).real) / c


def surrogate_coefficient_oracle(tt0, v0, xi, run):
    """Oracle: the surrogate coefficient, its majorizer's eigenvalue from ``np.linalg.eigvalsh``."""
    u = v0 / _oracle_per_row(xi, v0)
    if run.a == 0.0:
        return run.mh @ u, np.zeros_like(xi), np.zeros(len(tt0))
    d = row_power(u)
    w = (1.0 - _BLEND) * row_power(run.mh @ (u / _oracle_per_row(xi, v0)))
    w += (_BLEND / len(d)) * np.sum(d) * (run.power @ xi**-2.0)
    w = np.sqrt(w)
    inv = np.divide(1.0, w, out=np.zeros_like(w), where=w > 0.0)
    sd = np.sqrt(d)
    t = float(np.linalg.eigvalsh(sd[:, None] * ((run.m * inv) @ run.mh) * sd[None, :])[-1])
    y = t * (1.0 + _LAMBDA_MARGIN) * w
    # Psi^H (u - a d v0) as c Psi^H (u / xi), since u - a d v0 = c v0 / xi^2
    alpha = run.c * (run.mh @ (u / _oracle_per_row(xi, v0))) + run.a * _oracle_per_row(y, tt0) * tt0
    return alpha, d, y


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
        np.testing.assert_allclose(np.abs(res.lifted), 1.0, atol=1e-12)

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
        combined = np.abs(np.vdot(h_id, np.exp(1j * res.phases) * los.a_i))
        assert combined == pytest.approx(np.sum(np.abs(h_id)), rel=1e-6)

    def test_cached_quantities(self, rng):
        cfg, psi = random_problem(rng, n_i=5)
        _, xi, _, y, alpha = quantities(random_lifted_init(rng, 5), psi, cfg)
        floor = (1 + cfg.kappa_d) * cfg.sigma_n2 / cfg.p_tilde
        assert np.all(xi >= floor * (1 - 1e-12))
        assert np.all(y > 0.0)
        assert alpha.shape == y.shape == (6,)


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
        # alpha = c Psi^H (u / xi) + a y tt0 against Psi^H u - a (Psi^H (d v0) - y tt0)
        # for a phase vector, a factor and each row of a stack of three, on
        # random problems and at the pinned edges, also with tiny noise
        from test_properties import EDGES, make_problem

        stacks = []
        for n_i, n_s in ((0, 1), (6, 4), (50, 4)):
            cfg = random_problem(rng, n_i=n_i, n_s=n_s)[0]
            stacks.append((cfg, [build_composite(random_channels(rng, n_i, n_s)) for _ in range(3)]))
        for edge in EDGES:
            problems = [make_problem(**{**edge, "seed": edge["seed"] + 1000 * j}) for j in range(3)]
            cfg = problems[0][0]
            for sigma_n2 in (cfg.sigma_n2, 1e-30):
                stacks.append((replace(cfg, sigma_n2=sigma_n2), [psi for _, psi, _ in problems]))
        for cfg, psis in stacks:
            a, _ = cfg.objective_coeffs
            n_i = cfg.n_i
            cases = [(psis[0], random_lifted_init(rng, n_i)), (psis[1], random_factor(rng, n_i, 3))]
            run = _run_constants(np.stack(psis), cfg)
            tt = np.stack([random_lifted_init(rng, n_i) for _ in psis])
            v0, xi, _ = _evaluate(tt, run)
            alpha, d, y = _surrogate_coefficient(tt, v0, xi, run)
            rows = [(psi, tt[k], v0[k], xi[k], d[k], y[k], alpha[k]) for k, psi in enumerate(psis)]
            rows += [(psi, tt0, *quantities(tt0, psi, cfg)) for psi, tt0 in cases]
            for m, tt0, v0, xi, d, y, alpha in rows:
                per_row = (lambda x: x) if tt0.ndim == 1 else (lambda x: x[:, None])
                two = m.conj().T @ (v0 / per_row(xi)) - a * (
                    m.conj().T @ (per_row(d) * v0) - per_row(y) * tt0
                )
                assert np.linalg.norm(alpha - two) <= 1e-12 * np.linalg.norm(two)

    def test_zero_channel_gets_a_zero_majorizer(self):
        cfg = SystemConfig(n_s=3, n_i=4, p=1.0, kappa_s=0.1, kappa_d=0.1, sigma_n2=0.1)
        ch = ChannelSet(
            h_si=np.zeros((4, 3), complex), h_id=np.zeros(4, complex), h_sd=np.zeros(3, complex)
        )
        _, _, d, y, alpha = quantities(np.ones(5, complex), build_composite(ch), cfg)
        np.testing.assert_array_equal(y, 0.0)
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

    def test_factor_projection_is_bitwise_the_norm_division(self, rng):
        # the factor path inlines np.linalg.norm's body; it must round alike
        for shape in ((51, 5), (7, 1), (1, 3), (200, 2)):
            f = complex_gaussian(rng, *shape)
            np.testing.assert_array_equal(
                _project_unit(f, 0.0), f / np.linalg.norm(f, axis=1, keepdims=True)
            )
        f = complex_gaussian(rng, 6, 3)
        f[4] = 0.0
        out = _project_unit(f, f)
        live = [0, 1, 2, 3, 5]
        np.testing.assert_array_equal(
            out[live], f[live] / np.linalg.norm(f[live], axis=1, keepdims=True)
        )
        np.testing.assert_array_equal(out[4], 0.0)

    def test_stack_projection_is_bitwise_the_division(self, rng):
        # magnitudes over 300 decades, and entries with an exactly zero real
        # or imaginary part of either sign, where a product with the real
        # 1/|z| would flip the zero's sign
        z = 10.0 ** rng.uniform(-150, 150, (5, 40)) * np.exp(1j * rng.uniform(-4, 4, (5, 40)))
        parts = (1e-150, -1e-150, 3.0, -0.5, 1e150, -1e150)
        z[0, :24] = [complex(zero, x) for zero in (0.0, -0.0) for x in parts * 2][:24]
        z[1, :24] = [complex(x, zero) for zero in (0.0, -0.0) for x in parts * 2][:24]
        z[2, :4] = [1e150 + 1e-150j, -1e-150 + 1e150j, 1e-150 - 1e150j, -1e150 - 1e-150j]
        out = _project_unit(z, z, rows=True)
        np.testing.assert_array_equal(out.view(np.uint64), (z / np.abs(z)).view(np.uint64))

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


    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_top_eigenvalue_of_a_stack_is_bitwise_each_eigvalsh(self, rng, n):
        b = complex_gaussian(rng, 7, n, n)
        stack = b @ b.conj().transpose(0, 2, 1)
        stack[3] = 0.0
        top = _top_eigenvalue(stack)
        assert top.shape == (7,)
        assert top.tolist() == [np.linalg.eigvalsh(h)[-1] for h in stack]
        assert lambda_max_power_iteration(stack).tolist() == top.tolist()

    def test_top_eigenvalue_of_a_stack_raises_on_any_nan(self):
        stack = np.stack([np.eye(3, dtype=complex)] * 4)
        stack[2, 2, 1] = np.nan
        with np.errstate(invalid="ignore"), pytest.raises(np.linalg.LinAlgError):
            _top_eigenvalue(stack)


def plain_loop_oracle(tt, psi, cfg, settings):
    """Oracle: the plain loop on one problem, composed of ``_step`` and ``_evaluate``.

    The steps share one majorizer state, as a run's steps do.
    """
    run = _run_constants(psi, cfg)
    ev = _evaluate(tt, run)
    objectives = [ev[2]]
    ref = mm_mod._Majorizer()
    for _ in range(settings.max_iter):
        tt = _step(tt, ev, run, ref)
        ev = _evaluate(tt, run)
        objectives.append(ev[2])
        if abs(objectives[-1] - objectives[-2]) / max(1.0, abs(objectives[-2])) < settings.epsilon:
            return tt, objectives, True
    return tt, objectives, False


def stacked_problems(rng, n_rows, n_i=8, n_s=4, **cfg_overrides):
    """A shared configuration, and a stack of composites and of inits, one per row."""
    cfg, _ = random_problem(rng, n_i=n_i, n_s=n_s, **cfg_overrides)
    psis = np.stack([build_composite(random_channels(rng, n_i, n_s)) for _ in range(n_rows)])
    inits = np.stack([random_lifted_init(rng, n_i) for _ in range(n_rows)])
    return cfg, psis, inits


PLAIN = MMSettings(epsilon=1e-6, max_iter=3000, accelerate=False)


class TestStackedPlainLoop:
    """Each row of a stack runs bit for bit as the plain loop on that row alone."""

    @staticmethod
    def assert_rows_match_the_oracle(inits, psis, cfg, settings=PLAIN):
        results = run_stacked_mm(inits, psis, cfg, settings)
        assert len(results) == len(inits)
        for init, psi, res in zip(inits, psis, results):
            tt, objectives, converged = plain_loop_oracle(init.copy(), psi, cfg, settings)
            assert res.objectives == tuple(objectives)
            assert res.iterations == len(objectives) - 1
            assert res.converged is converged
            np.testing.assert_array_equal(res.phases, reflect_phases(tt))
            alone = run_mm(init, psi, cfg, settings)
            assert alone.objectives == res.objectives
            np.testing.assert_array_equal(alone.phases, res.phases)
        return results

    @pytest.mark.parametrize("n_rows", [1, 3, 17])
    def test_rows_are_bitwise_the_single_loop(self, rng, n_rows):
        cfg, psis, inits = stacked_problems(rng, n_rows)
        results = self.assert_rows_match_the_oracle(inits, psis, cfg)
        assert all(res.converged for res in results)
        if n_rows > 1:
            # the rows leave the stack at different steps
            assert len({res.iterations for res in results}) > 1

    @pytest.mark.parametrize(
        "n_i, n_s, overrides",
        [(0, 4, {}), (8, 1, {}), (0, 1, {}), (8, 9, {}), (8, 4, {"kappa_s": 0.0, "kappa_d": 0.0})],
        ids=["n_i0", "n_s1", "n_i0-n_s1", "n_s9", "kappa0"],
    )
    def test_edge_sizes_and_kappa_zero(self, rng, n_i, n_s, overrides):
        cfg, psis, inits = stacked_problems(rng, 5, n_i=n_i, n_s=n_s, **overrides)
        self.assert_rows_match_the_oracle(inits, psis, cfg)

    @pytest.mark.parametrize("kappa", [0.0, 0.1])
    def test_one_eigensolve_per_step_over_the_stack(self, rng, monkeypatch, kappa):
        cfg, psis, inits = stacked_problems(rng, 6, kappa_s=kappa, kappa_d=kappa)
        calls = []
        original = mm_mod.lambda_max_power_iteration

        def counting(omega):
            calls.append(omega.shape)
            return original(omega)

        monkeypatch.setattr(mm_mod, "lambda_max_power_iteration", counting)
        results = run_stacked_mm(inits, psis, cfg, PLAIN)
        if kappa == 0.0:
            # a = 0: the coupling term vanishes, and no eigensolve runs
            assert calls == []
        else:
            # one eigensolve over the stack per fresh step, every
            # _REFRESH-th step of the run, the first included
            steps = max(res.iterations for res in results)
            assert len(calls) == -(-steps // mm_mod._REFRESH)
            assert calls[0] == (6, 4, 4)

    @pytest.mark.parametrize("kappa", [0.0, 0.1])
    def test_zero_channels_fall_back_row_by_row(self, rng, kappa):
        cfg, psis, inits = stacked_problems(rng, 4, kappa_s=kappa, kappa_d=kappa)
        psis[0] = 0.0  # an all-zero channel: d = 0, and every entry keeps its start
        psis[1, 2, :] = 0.0  # one antenna unreached: one zero entry of d
        psis[2, :, 3] = 0.0  # one element unreached: with kappa 0, its coefficient is 0
        results = self.assert_rows_match_the_oracle(inits, psis, cfg)
        assert results[0].objectives == (0.0, 0.0) and results[0].converged
        np.testing.assert_array_equal(results[0].phases, reflect_phases(inits[0]))

    def test_rows_cut_at_max_iter_beside_converged_rows(self, rng):
        cfg, psis, inits = stacked_problems(rng, 4)
        psis[1] = 0.0  # converges at the first step
        settings = MMSettings(epsilon=1e-12, max_iter=4, accelerate=False)
        results = self.assert_rows_match_the_oracle(inits, psis, cfg, settings)
        assert [res.converged for res in results] == [False, True, False, False]
        assert [res.iterations for res in results] == [4, 1, 4, 4]

    @pytest.mark.parametrize("kappa", [0.0, 0.1])
    def test_nan_init_raises_a_config_error(self, rng, kappa):
        cfg, psis, inits = stacked_problems(rng, 3, kappa_s=kappa, kappa_d=kappa)
        inits[1, 0] = np.nan
        with pytest.raises(ConfigError, match="unit modulus"):
            run_stacked_mm(inits, psis, cfg, PLAIN)
        with pytest.raises(ConfigError, match="unit modulus"):
            run_mm(inits[1], psis[1], cfg, PLAIN)

    @pytest.mark.parametrize("shape", [(8,), (10,), (9, 1), (1, 9)])
    def test_a_single_init_of_another_shape_raises(self, rng, shape):
        cfg, psis, _ = stacked_problems(rng, 1)
        with pytest.raises(DimensionError, match=re.escape(f"init must have shape (9,), got {shape}")):
            run_mm(np.ones(shape, complex), psis[0], cfg, PLAIN)

    @pytest.mark.parametrize("shape", [(9,), (27,), (2, 9), (4, 9), (3, 8), (3, 9, 1)])
    def test_a_stacked_init_of_another_shape_raises(self, rng, shape):
        cfg, psis, _ = stacked_problems(rng, 3)
        with pytest.raises(DimensionError, match=re.escape(f"init must have shape (3, 9), got {shape}")):
            run_stacked_mm(np.ones(shape, complex), psis, cfg, PLAIN)

    def test_nan_channel_raises(self, rng):
        cfg, psis, inits = stacked_problems(rng, 3)
        psis[1, 0, 0] = np.nan
        with np.errstate(invalid="ignore"):
            with pytest.raises(np.linalg.LinAlgError):
                run_stacked_mm(inits, psis, cfg, PLAIN)
            with pytest.raises(np.linalg.LinAlgError):
                run_mm(inits[1], psis[1], cfg, PLAIN)


def squarem_loop_oracle(tt, psi, cfg, settings, cap=None):
    """Oracle: the accelerated loop on one problem, and the candidates each cycle tried.

    Composed of ``_step``, ``_evaluate`` and ``_project_unit``, as the
    single-run loop was written before it gained a row axis; the steps
    share one majorizer state, as a run's steps do.  A cycle tries at most
    ``cap`` candidates, the library's cap by default.
    """
    run = _run_constants(psi, cfg)
    ev = _evaluate(tt, run)
    objectives, tries = [ev[2]], []
    ref = mm_mod._Majorizer()
    for _ in range(settings.max_iter):
        x1 = _step(tt, ev, run, ref)
        x2 = _step(x1, _evaluate(x1, run), run, ref)
        ev2 = _evaluate(x2, run)
        r = x1 - tt
        v = x2 - x1 - r
        nr, nv = math.sqrt(np.vdot(r, r).real), math.sqrt(np.vdot(v, v).real)
        t0, (tt, ev) = tt, (x2, ev2)
        tries.append(0)
        alpha = -nr / nv if nr > 0.0 and nv > 0.0 else -1.0
        for _ in range(mm_mod._BACKTRACKS if cap is None else cap):
            if abs(alpha + 1.0) < 1e-4:
                break
            cand = _project_unit(t0 - 2.0 * alpha * r + alpha**2 * v, x2)
            ev_c = _evaluate(cand, run)
            tries[-1] += 1
            if ev_c[2] >= ev2[2]:
                tt, ev = cand, ev_c
                break
            alpha = (alpha - 1.0) / 2.0
        objectives.append(ev[2])
        if abs(objectives[-1] - objectives[-2]) / max(1.0, abs(objectives[-2])) < settings.epsilon:
            return tt, objectives, True, tries
    return tt, objectives, False, tries


ACCEL = MMSettings(epsilon=1e-6, max_iter=3000)


class TestStackedSquarem:
    """Each row of an accelerated stack runs bit for bit as SQUAREM on that row alone."""

    @staticmethod
    def assert_rows_match_the_oracle(inits, psis, cfg, settings=ACCEL):
        results = run_stacked_mm(inits, psis, cfg, settings)
        assert len(results) == len(inits)
        tries = []
        for init, psi, res in zip(inits, psis, results):
            tt, objectives, converged, row_tries = squarem_loop_oracle(
                init.copy(), psi, cfg, settings
            )
            assert res.objectives == tuple(objectives)
            assert res.iterations == len(objectives) - 1
            assert res.converged is converged
            np.testing.assert_array_equal(res.phases, reflect_phases(tt))
            alone = run_mm(init, psi, cfg, settings)
            assert (alone.objectives, alone.iterations, alone.converged) == (
                res.objectives, res.iterations, res.converged
            )
            np.testing.assert_array_equal(alone.phases, res.phases)
            tries.append(row_tries)
        return results, tries

    @pytest.mark.parametrize("n_rows", [1, 3, 17])
    def test_rows_are_bitwise_their_own_runs(self, rng, n_rows):
        cfg, psis, inits = stacked_problems(rng, n_rows, n_i=50)
        results, _ = self.assert_rows_match_the_oracle(inits, psis, cfg)
        assert all(res.converged for res in results)
        if n_rows > 1:
            # the rows leave the stack at different cycles
            assert len({res.iterations for res in results}) > 1

    def test_rows_backtrack_beside_rows_that_accept_at_once(self):
        # the sweeps' operating point, where backtracking is common
        cfg, geo = table_defaults()
        cfg = replace(cfg, n_i=50)
        # the draws as they come, a stack used in place: each composite keeps
        # its own memory layout, which rounds its products as a single run's
        psis, inits = _draw(cfg, geo, tuple(child_seed(3, r) for r in range(17)))
        assert not psis[0].flags.c_contiguous
        _, tries = self.assert_rows_match_the_oracle(inits, psis, cfg)
        # per cycle, the candidates tried by each row still in the stack
        cycles = [[t[c] for t in tries if len(t) > c] for c in range(max(map(len, tries)))]
        # a row kept its first candidate while another backtracked alone ...
        assert any(col.count(1) > 1 and sum(n > 1 for n in col) == 1 for col in cycles)
        # ... and while several backtracked together
        assert any(1 in col and sum(n > 1 for n in col) >= 2 for col in cycles)

    def test_a_row_with_a_zero_step(self, rng):
        cfg, psis, inits = stacked_problems(rng, 4)
        psis[1] = 0.0  # every step keeps the start: r = 0, and no candidate is tried
        results, tries = self.assert_rows_match_the_oracle(inits, psis, cfg)
        assert results[1].objectives == (0.0, 0.0) and tries[1] == [0]
        np.testing.assert_array_equal(results[1].phases, reflect_phases(inits[1]))

    @pytest.mark.parametrize(
        "n_i, n_s, overrides",
        [(0, 4, {}), (8, 1, {}), (0, 1, {}), (8, 9, {}), (8, 4, {"kappa_s": 0.0, "kappa_d": 0.0})],
        ids=["n_i0", "n_s1", "n_i0-n_s1", "n_s9", "kappa0"],
    )
    def test_edge_sizes_and_kappa_zero(self, rng, n_i, n_s, overrides):
        cfg, psis, inits = stacked_problems(rng, 5, n_i=n_i, n_s=n_s, **overrides)
        self.assert_rows_match_the_oracle(inits, psis, cfg)

    def test_rows_cut_at_max_iter_beside_converged_rows(self, rng):
        cfg, psis, inits = stacked_problems(rng, 4)
        psis[1] = 0.0  # converges at the first cycle
        settings = MMSettings(epsilon=1e-12, max_iter=3)
        results, _ = self.assert_rows_match_the_oracle(inits, psis, cfg, settings)
        assert [res.converged for res in results] == [False, True, False, False]
        assert [res.iterations for res in results] == [3, 1, 3, 3]

    def test_nan_channel_raises(self, rng):
        cfg, psis, inits = stacked_problems(rng, 3)
        psis[1, 0, 0] = np.nan
        with np.errstate(invalid="ignore"):
            with pytest.raises(np.linalg.LinAlgError):
                run_stacked_mm(inits, psis, cfg, ACCEL)
            with pytest.raises(np.linalg.LinAlgError):
                run_mm(inits[1], psis[1], cfg, ACCEL)

    @pytest.mark.parametrize("settings", [ACCEL, PLAIN], ids=["squarem", "plain"])
    def test_the_callers_stack_is_left_as_it_was(self, settings):
        # the loop moves the kept rows of the caller's composites to the front
        # in place as rows leave, and puts them back before it returns
        cfg, geo = table_defaults()
        cfg = replace(cfg, n_i=50)
        psis, inits = _draw(cfg, geo, tuple(child_seed(4, r) for r in range(9)))
        before, strides, inits_before = psis.copy(), psis.strides, inits.copy()
        results = run_stacked_mm(inits, psis, cfg, settings)
        # rows left at several different passes, not only from the back
        iterations = [res.iterations for res in results]
        assert len(set(iterations)) > 2 and iterations != sorted(iterations, reverse=True)
        assert psis.strides == strides and psis.tobytes() == before.tobytes()
        assert inits.tobytes() == inits_before.tobytes()


class TestBacktrackingCap:
    """A SQUAREM cycle tries at most three candidates per row, then keeps the plain point x2."""

    @staticmethod
    def late_acceptance():
        """Draws 33-35 at n_s 2, n_i 4, kappa 0; uncapped, row 1's cycle 3 keeps its try 4."""
        cfg, geo = table_defaults()
        for name, value in (("n_s", 2), ("n_i", 4), ("kappa", 0)):
            cfg, geo = with_setting(cfg, geo, name, value)
        psis, inits = _draw(cfg, geo, tuple(child_seed(1, r) for r in (33, 34, 35)))
        return cfg, psis, inits

    def test_the_uncapped_loop_keeps_a_fourth_candidate(self):
        cfg, psis, inits = self.late_acceptance()
        settings = MMSettings()
        *_, tries = squarem_loop_oracle(inits[1].copy(), psis[1], cfg, settings, cap=60)
        _, capped, _, capped_tries = squarem_loop_oracle(inits[1].copy(), psis[1], cfg, settings)
        assert max(tries[:2]) <= 3 and tries[2] == 4 and capped_tries[2] == 3
        # the runs agree up to cycle 3, which kept the fourth candidate uncapped
        _, uncapped, _, _ = squarem_loop_oracle(inits[1].copy(), psis[1], cfg,
                                                replace(settings, max_iter=3), cap=60)
        assert uncapped[:3] == capped[:3] and uncapped[3] > capped[3]

    @staticmethod
    def cycle_3(cfg, psi, init):
        """Cycle 3's start and its evaluation, and the plain two-step point x2 and its evaluation."""
        tt, _, _, _ = squarem_loop_oracle(init.copy(), psi, cfg,
                                          MMSettings(epsilon=1e-300, max_iter=2))
        run = _run_constants(psi, cfg)
        ev = _evaluate(tt, run)
        x1 = _step(tt, ev, run)
        x2 = _step(x1, _evaluate(x1, run), run)
        return tt, ev, (x2, *_evaluate(x2, run))

    @pytest.mark.parametrize("layout", ["single", "twin", "beside-zero"])
    def test_a_capped_cycle_tries_three_and_returns_x2(self, monkeypatch, layout):
        # "twin": two equal rows backtrack together for three stacked rounds;
        # "beside-zero": a zero composite has no candidate to try, so the row
        # backtracks alone from the first round
        cfg, psis, inits = self.late_acceptance()
        tt, ev, plain = self.cycle_3(cfg, psis[1], inits[1])
        if layout == "single":
            run = _run_constants(psis[1], cfg)
        else:
            other = psis[1] if layout == "twin" else np.zeros_like(psis[1])
            run = _run_constants(np.stack([psis[1], other]), cfg)
            tt = np.stack([tt, tt])
            ev = _evaluate(tt, run)
        evaluate, calls = mm_mod._evaluate, []

        def counting(x, r):
            calls.append(1)
            return evaluate(x, r)

        monkeypatch.setattr(mm_mod, "_evaluate", counting)
        out = mm_mod._squarem_cycle(tt, ev, run)
        # two plain steps, then three candidates, all rejected
        assert len(calls) == 5
        for want, got in zip(plain, (out[0], *out[1])):
            got = got if layout == "single" else got[0]
            assert np.asarray(want).tobytes() == np.asarray(got).tobytes()

    def test_run_mm_and_the_stack_keep_x2_at_cycle_3(self):
        cfg, psis, inits = self.late_acceptance()
        _, tries = TestStackedSquarem.assert_rows_match_the_oracle(inits, psis, cfg, MMSettings())
        assert tries[1][2] == 3
        *_, plain = self.cycle_3(cfg, psis[1], inits[1])
        three = MMSettings(epsilon=1e-300, max_iter=3)
        for res in (run_mm(inits[1], psis[1], cfg, three), run_stacked_mm(inits, psis, cfg, three)[1]):
            assert res.objectives[3] == plain[3]
            assert res.phases.tobytes() == reflect_phases(plain[0]).tobytes()


class TestRowCompaction:
    """A row that leaves the stack is replaced by one from the back, not by every row behind it."""

    @pytest.mark.parametrize("settings", [ACCEL, PLAIN], ids=["squarem", "plain"])
    def test_a_pass_moves_no_more_matrices_than_rows_departed(self, monkeypatch, settings):
        cfg, geo = table_defaults()
        cfg = replace(cfg, n_i=50)
        psis, inits = _draw(cfg, geo, tuple(child_seed(6, r) for r in range(9)))
        psis[[0, 4]] = 0.0  # these converge at the first pass, from the front and the middle
        before, strides = psis.copy(), psis.strides
        swaps, passes = [], []
        swap_rows, keep_rows = mm_mod._swap_rows, mm_mod._keep_rows

        def counting_swap(m, order, j, k):
            swaps.append((j, k))
            swap_rows(m, order, j, k)

        def recording_keep(tt, ev, run, keep, order, ref):
            start = len(swaps)
            state = keep_rows(tt, ev, run, keep, order, ref)
            passes.append((len(tt), list(keep), len(swaps) - start))
            return state

        monkeypatch.setattr(mm_mod, "_swap_rows", counting_swap)
        monkeypatch.setattr(mm_mod, "_keep_rows", recording_keep)
        results = run_stacked_mm(inits, psis, cfg, settings)
        # the first pass: rows 0 and 4 leave, rows 8 and 7 fill their places
        assert passes[0] == (9, [1, 2, 3, 5, 6, 7, 8], 2)
        assert len(passes) > 3
        for rows, keep, moved in passes:
            assert moved <= rows - len(keep)
        # the restore undoes the loop's swaps, with no more swaps than those
        departed = sum(rows - len(keep) for rows, keep, _ in passes)
        assert len(swaps) <= 2 * departed
        assert psis.strides == strides and psis.tobytes() == before.tobytes()
        for init, psi, res in zip(inits, psis, results):
            alone = run_mm(init, psi, cfg, settings)
            assert (alone.objectives, alone.iterations, alone.converged) == (
                res.objectives, res.iterations, res.converged
            )
            np.testing.assert_array_equal(alone.phases.view(np.uint64),
                                          res.phases.view(np.uint64))


class TestBatchedExtraction:
    """The canonical lift of a stack, ``lift_phases(reflect_phases(stack))``, is the one-row map.

    That is ``lift_phases(reflect_phases(row))`` of each row, bit for bit.
    """

    @staticmethod
    def assert_rows_own(stack):
        lifted = lift_phases(reflect_phases(stack))
        assert lifted.shape == stack.shape
        for t, got in zip(stack, lifted):
            want = lift_phases(reflect_phases(t))
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
            # and the one-row forms, written out
            expected = np.angle(np.conj(t[:-1] / t[-1]))
            written = np.concatenate([np.conj(np.exp(1j * expected)), [1.0 + 0.0j]])
            np.testing.assert_array_equal(got.view(np.uint64), written.view(np.uint64))

    @pytest.mark.parametrize("n_i, n_s", [(50, 4), (8, 1), (0, 4), (0, 1)])
    def test_results_and_lifted_starts_are_each_rows_own(self, rng, n_i, n_s):
        cfg, psis, inits = stacked_problems(rng, 6, n_i=n_i, n_s=n_s)
        last, _, _ = mm_mod._ascend_rows(inits, _run_constants(psis.copy(), cfg), ACCEL, list(range(6)))
        # iterates on the axes, with signed zeros, and a slack off 1
        signed = [1.0, complex(-1.0, -0.0), 1j, complex(-0.0, -1.0), complex(-1.0, 0.0), -1j]
        axes = np.resize(np.array(signed), n_i + 1)
        axes[-1] = 0.6 - 0.8j
        stack = np.array([*last, axes, [complex(-0.0, 1.0)] * n_i + [-1j]])
        self.assert_rows_own(stack)
        # a single row, as a stack of one and as a vector
        self.assert_rows_own(stack[-2:-1])
        one = lift_phases(reflect_phases(stack[-2]))
        np.testing.assert_array_equal(one.view(np.uint64), (lift_phases(reflect_phases(stack[-2:-1]))[0]).view(np.uint64))

    def test_results_keep_the_last_iterate(self, rng):
        cfg, psis, inits = stacked_problems(rng, 5)
        for k, res in enumerate(run_stacked_mm(inits, psis, cfg, ACCEL)):
            assert res.objectives[-1] == lifted_objective(res.lifted, psis[k], cfg)
            # the phases are read off on first use, by the one-row extraction, and kept
            assert "phases" not in vars(res)
            assert res.phases.tobytes() == reflect_phases(res.lifted).tobytes()
            assert res.phases is res.phases

    def test_a_zero_coefficient_raises_as_extraction_does(self):
        stack = np.array([[1.0, 1.0 + 0j], [0.0j, 1.0]])
        with pytest.raises(ConfigError, match="zero reflection coefficient"):
            reflect_phases(stack[1])
        with pytest.raises(ConfigError, match="zero reflection coefficient"):
            reflect_phases(stack)
        with pytest.raises(ConfigError, match="zero reflection coefficient"):
            MMResult(stack[1], 0, True, (0.0,)).phases


class TestStepLengths:
    @pytest.mark.parametrize("n", [1, 2, 7, 50, 333])
    def test_batched_lengths_are_each_rows_own(self, rng, n):
        r = rng.standard_normal((20, n)) + 1j * rng.standard_normal((20, n))
        v = rng.standard_normal((20, n)) + 1j * rng.standard_normal((20, n))
        r[1] = 0.0
        v[2] = 0.0
        r[3] = v[3] = 0.0
        r[4] *= 1e-150
        v[5] *= 1e150
        lengths = _step_lengths(r, v)
        assert lengths[1:4] == [-1.0] * 3
        assert lengths == [_step_length(a, b) for a, b in zip(r, v)]


class TestMajorizer:
    """diag(y) majorizes the coupling matrix M = Psi^H diag(d) Psi, weighted by the bound's image."""

    def test_shifted_coupling_matrix_is_psd(self, rng):
        for _ in range(10):
            cfg, psi = random_problem(rng, n_i=int(rng.integers(1, 10)))
            _, _, d, y, _ = quantities(random_lifted_init(rng, cfg.n_i), psi, cfg)
            omega = psi.conj().T @ (d[:, None] * psi)
            min_eig = float(np.linalg.eigvalsh(np.diag(y) - omega)[0])
            assert min_eig >= -1e-9 * max(1.0, np.max(y))

    def test_phase_vector_and_one_column_factor_share_the_majorizer(self, rng):
        for n_i, n_s in ((0, 1), (3, 1), (8, 4), (40, 3)):
            cfg, psi = random_problem(rng, n_i=n_i, n_s=n_s)
            tt = random_lifted_init(rng, n_i)
            y = quantities(tt, psi, cfg)[3]
            assert np.all(y > 0.0)
            np.testing.assert_array_equal(quantities(tt[:, None], psi, cfg)[3], y)

    def test_weights_are_the_bounds_blended_image(self, rng):
        # y = t w with w_i^2 = b_i^H z b_i, written out, and t the exact
        # eigenvalue of the coupling matrix scaled by diag(w)^(-1/2)
        for n_i, n_s in ((0, 1), (6, 4), (30, 2)):
            cfg, psi = random_problem(rng, n_i=n_i, n_s=n_s)
            for tt in (random_lifted_init(rng, n_i), random_factor(rng, n_i, 3)):
                _, _, d, y, _ = quantities(tt, psi, cfg)
                w = majorizer_weights(tt, psi, cfg)
                scaled = (psi / np.sqrt(w)).conj().T @ (d[:, None] * (psi / np.sqrt(w)))
                t = float(np.linalg.eigvalsh(scaled)[-1]) * (1.0 + _LAMBDA_MARGIN)
                np.testing.assert_allclose(y, t * w, rtol=1e-10, atol=0.0)

    def test_omega_psd(self, rng):
        cfg, psi = random_problem(rng, n_i=7)
        _, _, d, _, _ = quantities(random_lifted_init(rng, 7), psi, cfg)
        assert np.all(d >= 0.0)
        omega = psi.conj().T @ (d[:, None] * psi)
        assert float(np.linalg.eigvalsh(omega)[0]) >= -1e-12


def certificate(b, u, scale=None):
    """``_diagonal_certificate`` of b with the optimizer's eigensolve and margin."""
    return _diagonal_certificate(b, np.swapaxes(b.conj(), -1, -2), u, _top_eigenvalue, _LAMBDA_MARGIN,
                                 scale)


class TestDiagonalCertificate:
    """The certificate's edges: no entries, zero and NaN entries, and stacks chunked by ``_ROWS``."""

    def test_empty_weights_give_an_empty_certificate(self):
        for shape in ((3, 0), (2, 3, 0), (_ROWS + 1, 3, 0)):
            y, s = certificate(np.zeros(shape, complex), np.zeros(shape[:-2] + (0,)))
            assert y.shape == shape[:-2] + (0,)
            assert s.shape == shape[:-1] + (3,)
            np.testing.assert_array_equal(s, 0.0)

    def test_a_zero_entry_gets_a_zero_weight_and_drops_its_column(self, rng):
        b = complex_gaussian(rng, 4, 7)
        u = rng.uniform(0.5, 2.0, 7)
        u[2] = 0.0
        y, s = certificate(b, u)
        assert y[2] == 0.0
        live = [0, 1, 3, 4, 5, 6]
        reduced = (b[:, live] / u[live]) @ b[:, live].conj().T
        np.testing.assert_allclose(s, reduced, rtol=1e-13, atol=0.0)
        t = np.linalg.eigvalsh(reduced)[-1] * (1.0 + _LAMBDA_MARGIN)
        np.testing.assert_allclose(y, t * u, rtol=1e-13, atol=0.0)

    def test_a_nan_entry_gets_a_nan_weight_and_drops_its_column(self, rng):
        b = complex_gaussian(rng, 4, 7)
        u = rng.uniform(0.5, 2.0, 7)
        u[5] = 0.0
        y0, s0 = certificate(b, u)
        u[5] = np.nan
        y, s = certificate(b, u)
        np.testing.assert_array_equal(s, s0)
        assert np.isnan(y[5])
        np.testing.assert_array_equal(np.delete(y, 5), np.delete(y0, 5))

    @pytest.mark.parametrize("n_rows", [1, _ROWS, _ROWS + 1, 2 * _ROWS + 3])
    def test_each_row_of_a_stack_is_bitwise_its_own_certificate(self, rng, n_rows):
        # every entry positive, and one zero entry, which sends the stack
        # down the other path than its other rows take alone
        b = complex_gaussian(rng, n_rows, 4, 9)
        positive = rng.uniform(0.5, 2.0, (n_rows, 9))
        one_zero = positive.copy()
        one_zero[n_rows // 2, 3] = 0.0
        scale = rng.uniform(0.5, 2.0, (n_rows, 4))
        for u, sc in ((u, sc) for u in (positive, one_zero) for sc in (None, scale)):
            y, s = certificate(b, u, sc)
            for k in range(n_rows):
                y_k, s_k = certificate(b[k], u[k], None if sc is None else sc[k])
                np.testing.assert_array_equal(y[k], y_k)
                np.testing.assert_array_equal(s[k], s_k)


def scaled_coefficient_oracle(tt0, v0, xi, run, y_ref, d_ref):
    """Oracle: the coefficient of a step between refreshes, with y = rho y_ref written out."""
    u = v0 / xi
    d = row_power(u)
    y = np.max(d / d_ref) * y_ref
    return run.c * (run.mh @ (u / xi)) + run.a * y * tt0, d, y


def robust_stack(seed, n_rows, n_i, kappa):
    """The sweeps' operating point at ``n_i`` and ``kappa``: its configuration, drawn composites and inits."""
    cfg, geo = table_defaults()
    for name, value in (("n_i", n_i), ("kappa", kappa)):
        cfg, geo = with_setting(cfg, geo, name, value)
    psis, inits = _draw(cfg, geo, tuple(child_seed(seed, n_i, r) for r in range(n_rows)))
    return cfg, psis, inits


def assert_rows_are_their_own_runs(inits, psis, cfg, settings):
    results = run_stacked_mm(inits, psis, cfg, settings)
    for init, psi, res in zip(inits, psis, results):
        alone = run_mm(init, psi, cfg, settings)
        assert (alone.objectives, alone.iterations, alone.converged) == (
            res.objectives, res.iterations, res.converged
        )
        assert alone.lifted.tobytes() == res.lifted.tobytes()
    return results


class TestMajorizerRefresh:
    """A robust run builds its majorizer fresh every ``_REFRESH``-th step and scales it in between."""

    @pytest.mark.parametrize("n_i, n_s", [(0, 1), (8, 4), (50, 4)])
    def test_steps_between_refreshes_scale_the_last_fresh_majorizer(self, rng, n_i, n_s):
        cfg, psi = random_problem(rng, n_i=n_i, n_s=n_s)
        run = _run_constants(psi, cfg)
        tt, ref = random_lifted_init(rng, n_i), mm_mod._Majorizer()
        for k in range(3 * mm_mod._REFRESH + 1):
            ev = _evaluate(tt, run)
            got = _surrogate_coefficient(tt, ev[0], ev[1], run, ref)
            if k % mm_mod._REFRESH == 0:
                want = surrogate_coefficient_oracle(tt, ev[0], ev[1], run)
                y_ref, d_ref = want[2], want[1]
            else:
                want = scaled_coefficient_oracle(tt, ev[0], ev[1], run, y_ref, d_ref)
            for g, w in zip(got, want):
                assert g.tobytes() == w.tobytes()
            assert ref.steps == k + 1
            tt = _project_unit(got[0], tt)
        # a call without the state stays a fresh step
        ev = _evaluate(tt, run)
        for g, w in zip(_surrogate_coefficient(tt, ev[0], ev[1], run),
                        surrogate_coefficient_oracle(tt, ev[0], ev[1], run)):
            assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("settings, seed", [(ACCEL, 5), (PLAIN, 1)], ids=["squarem", "plain"])
    def test_rows_that_leave_between_refreshes(self, settings, seed):
        cfg, psis, inits = robust_stack(seed, 12, 50, 0.07)
        results = assert_rows_are_their_own_runs(inits, psis, cfg, settings)
        steps = sorted(res.iterations * (2 if settings.accelerate else 1) for res in results)
        # rows left the stack between refreshes, and so did the last row's
        # partner, which handed the last row its reference alone
        assert sum(n % mm_mod._REFRESH > 0 for n in steps) >= 3
        assert steps[-2] < steps[-1] and steps[-2] % mm_mod._REFRESH > 0

    @pytest.mark.parametrize("stale", [[1], [0, 1, 2, 3, 4]], ids=["one-row", "every-row"])
    @pytest.mark.parametrize("settings", [ACCEL, PLAIN], ids=["squarem", "plain"])
    def test_a_row_whose_reference_has_a_zero_goes_fresh_alone(self, monkeypatch, settings, stale):
        cfg, psis, inits = robust_stack(2, 5, 8, 0.07)
        psis[stale, 2, :] = 0.0  # one antenna unreached: d_ref has a zero entry after every refresh
        calls = []
        original = mm_mod.lambda_max_power_iteration

        def counting(omega):
            calls.append(omega.shape)
            return original(omega)

        monkeypatch.setattr(mm_mod, "lambda_max_power_iteration", counting)
        results = run_stacked_mm(inits, psis, cfg, settings)
        monkeypatch.undo()
        steps = [res.iterations * (2 if settings.accelerate else 1) for res in results]
        # per step, one eigensolve over the rows left on a refresh or when
        # any row left goes fresh, whose build is copied into such rows alone
        expected = []
        for k in range(max(steps)):
            live = [r for r, n in enumerate(steps) if n > k]
            if k % mm_mod._REFRESH == 0 or any(r in stale for r in live):
                expected.append((len(live), 4, 4) if len(live) > 1 else (4, 4))
        assert calls == expected
        assert sorted(steps)[-2] > mm_mod._REFRESH
        assert_rows_are_their_own_runs(inits, psis, cfg, settings)

    @pytest.mark.parametrize("settings", [ACCEL, PLAIN], ids=["squarem", "plain"])
    def test_a_row_whose_ratio_is_infinite_goes_fresh(self, rng, monkeypatch, settings):
        cfg, psis, inits = stacked_problems(rng, 3, n_i=1, n_s=2)
        # (Psi tt)_0 of the middle row is exactly 0 at its start and nonzero
        # after, so d_ref_0 = 0 < d_0 at the next step: rho is infinite
        psis[1, 0] = [1.0, -1.0]
        inits[1] = [1.0, 1.0]
        infinite, original = [], mm_mod._Majorizer.next

        def spying(ref, z, d, xi, run):
            if ref.steps % mm_mod._REFRESH:
                with np.errstate(divide="ignore", invalid="ignore"):
                    infinite.append(int(np.count_nonzero(np.isposinf(np.max(d / ref.d, axis=-1)))))
            return original(ref, z, d, xi, run)

        monkeypatch.setattr(mm_mod._Majorizer, "next", spying)
        results = run_stacked_mm(inits, psis, cfg, settings)
        assert sum(infinite) == 1
        monkeypatch.undo()
        assert_rows_are_their_own_runs(inits, psis, cfg, settings)
        for res in results:
            objs = np.asarray(res.objectives)
            assert np.all(objs[1:] >= objs[:-1] - 1e-12 * np.abs(objs[:-1]))

    @pytest.mark.parametrize("kappa", [0.01, 0.07, 0.3])
    @pytest.mark.parametrize("n_i", [1, 8, 50, 200])
    def test_robust_runs_never_lower_their_objective(self, n_i, kappa):
        cfg, psis, inits = robust_stack(3, 3, n_i, kappa)
        assert cfg.objective_coeffs[0] > 0.0
        for settings in (MMSettings(max_iter=400), MMSettings(max_iter=400, accelerate=False)):
            for res in assert_rows_are_their_own_runs(inits, psis, cfg, settings):
                objs = np.asarray(res.objectives)
                assert np.all(objs[1:] >= objs[:-1] - 1e-12 * np.abs(objs[:-1]))


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
            np.testing.assert_allclose(np.abs(res.lifted), 1.0, atol=1e-12)
            assert res.converged

    def test_extraction_preserves_objective(self, rng):
        cfg, psi = random_problem(rng, n_i=9)
        res = run_mm(random_lifted_init(rng, 9), psi, cfg, MMSettings())
        tt = lift_phases(res.phases)  # the phases lifted again, on the same composite
        assert lifted_objective(tt, psi, cfg) == pytest.approx(
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
        np.testing.assert_array_equal(a.phases, b.phases)


class TestSquarem:
    def test_fixed_point_falls_back_to_plain_step(self, rng):
        cfg, psi = random_problem(rng, n_i=6)
        res = run_mm(random_lifted_init(rng, 6), psi, cfg, MMSettings(epsilon=1e-13))
        state = lift_phases(res.phases)
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
            state = lift_phases(accel.phases)

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
            np.testing.assert_array_equal(quantize_phases(np.zeros(3), bits), 0.0)

    def test_one_bit(self):
        assert quantize_phases(np.array([0.9 * np.pi]), 1)[0] == pytest.approx(np.pi)

    def test_wrap_around(self):
        assert quantize_phases(np.array([1.99 * np.pi]), 2)[0] == 0.0

    def test_tie_breaks_to_smaller_level(self):
        assert quantize_phases(np.array([np.pi / 2.0]), 1)[0] == 0.0

    def test_requires_discrete(self):
        with pytest.raises(ConfigError):
            quantize_phases(np.zeros(2), None)

    @pytest.mark.parametrize("bits", range(1, 9))
    def test_matches_the_distance_matrix_oracle(self, bits):
        # the nearest of all 2**bits levels under wrapped angular distance,
        # found by brute force over an n_i x 2**bits distance matrix
        phases = np.random.default_rng(100 + bits).uniform(-4.0 * np.pi, 4.0 * np.pi, 5_000)
        levels = 2.0 * np.pi * np.arange(2**bits) / 2**bits
        wrapped = np.abs((phases[:, None] - levels[None, :] + np.pi) % (2.0 * np.pi) - np.pi)
        oracle = levels[np.argmin(wrapped, axis=1)]
        np.testing.assert_array_equal(quantize_phases(phases, bits), oracle)

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
            assert quantize_phases(np.array([phase]), bits)[0] == (
                2.0 * np.pi * j / n
            )
        assert quantize_phases(np.array([np.pi / n]), bits)[0] == 0.0

    def test_fine_resolution_needs_no_level_table(self):
        phases = np.array([0.1, 3.0, -2.0])
        fine = quantize_phases(phases, 40)
        np.testing.assert_allclose(fine, np.mod(phases, 2.0 * np.pi), rtol=0.0, atol=1e-11)
        quantize_phases(phases, 52)
        with pytest.raises(ConfigError, match="bits <= 52, got 53"):
            quantize_phases(phases, 53)

    @pytest.mark.parametrize("bits", [1, 2, 5])
    def test_a_stack_rounds_each_row_as_alone(self, rng, bits):
        phases = rng.uniform(-4.0 * np.pi, 4.0 * np.pi, (7, 9))
        stacked = quantize_phases(phases, bits)
        assert stacked.shape == phases.shape
        for row, got in zip(phases, stacked):
            assert got.tobytes() == quantize_phases(row, bits).tobytes()

    def test_quantized_never_beats_continuous(self, rng):
        for seed in range(10):
            local = np.random.default_rng(seed)
            cfg, psi = random_problem(local, n_i=6)
            res = run_mm(random_lifted_init(local, 6), psi, cfg, MMSettings())
            quant = quantize_phases(res.phases, 2)
            cont_val = res.objectives[-1]
            quant_val = lifted_objective(lift_phases(quant), psi, cfg)
            assert quant_val <= cont_val * (1 + 1e-9)
            assert quant_val >= 0.0

    def test_exhaustive_discrete_sandwich(self, rng):
        # two elements, four levels: the discrete exhaustive optimum sits
        # between the projected solution and the continuous optimum
        cfg, psi = random_problem(rng, n_i=2)
        res = run_mm(random_lifted_init(rng, 2), psi, cfg, MMSettings(epsilon=1e-10))
        quant = quantize_phases(res.phases, 2)
        quant_val = lifted_objective(lift_phases(quant), psi, cfg)
        levels = 2 * np.pi * np.arange(4) / 4
        best = 0.0
        for p1 in levels:
            for p2 in levels:
                best = max(best, lifted_objective(lift_phases(np.array([p1, p2])), psi, cfg))
        assert best >= quant_val - 1e-12
        assert best <= res.objectives[-1] * (1 + 1e-9)
