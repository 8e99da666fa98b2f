import numpy as np
import pytest

from irsbf.mm import MMSettings, lifted_objective, random_lifted_init, run_mm
from irsbf.model import CompositeChannel, SystemConfig, lift_reflect
from irsbf.sdr import (
    ProjectionError,
    _objective_gradient,
    project_elliptope,
    rank_one_start,
    relaxed_objective,
    solve_sdr,
)
from irsbf.txbf import snr_from_psi_tilde

from conftest import complex_gaussian


def random_composite(rng, n_s, n_i):
    return CompositeChannel(psi=complex_gaussian(rng, n_s, n_i + 1))


def small_problem(rng, n_i=4, n_s=3, **overrides):
    params = dict(n_s=n_s, n_i=n_i, p=2.0, kappa_s=0.1, kappa_d=0.1, sigma_n2=0.05)
    params.update(overrides)
    return SystemConfig(**params), random_composite(rng, n_s, n_i)


def elliptope_grid_max(psi, cfg, nr=600, nphi=1200):
    """Exhaustive 2x2 oracle over the off-diagonal disk |z| <= 1."""
    a = (1 + cfg.kappa_d) * cfg.kappa_s
    c = (1 + cfg.kappa_d) * cfg.sigma_n2 / cfg.p_tilde
    radii = np.linspace(0.0, 1.0, nr)
    phases = np.linspace(0.0, 2.0 * np.pi, nphi, endpoint=False)
    z = (radii[:, None] * np.exp(1j * phases)[None, :]).ravel()
    p0, p1 = psi.psi[:, 0], psi.psi[:, 1]
    q = (np.abs(p0) ** 2 + np.abs(p1) ** 2)[:, None] + 2.0 * np.real(
        (np.conj(p0) * p1)[:, None] * z[None, :]
    )
    q = np.maximum(q, 0.0)
    return float(np.sum(q / (a * q + c), axis=0).max())


class TestRelaxedObjective:
    def test_rank_one_matches_lifted_objective(self, rng):
        cfg, psi = small_problem(rng, n_i=5)
        for _ in range(10):
            tt = random_lifted_init(rng, 5)
            assert relaxed_objective(rank_one_start(tt), psi, cfg) == pytest.approx(
                lifted_objective(tt, psi, cfg), rel=1e-12
            )

    def test_single_unit_entry(self):
        cfg = SystemConfig(n_s=2, n_i=1, p=1.0, kappa_s=0.2, kappa_d=0.1, sigma_n2=0.3)
        psi = CompositeChannel(psi=np.array([[1.0 + 0j, 0.0], [0.0, 0.0]]))
        a = (1 + cfg.kappa_d) * cfg.kappa_s
        c = (1 + cfg.kappa_d) * cfg.sigma_n2 / cfg.p_tilde
        assert relaxed_objective(np.eye(2, dtype=complex), psi, cfg) == pytest.approx(
            1.0 / (a + c), rel=1e-12
        )

    def test_saturation_bound(self, rng):
        cfg, psi = small_problem(rng, n_i=3)
        big = CompositeChannel(psi=psi.psi * 1e6)
        ceiling = cfg.n_s / ((1 + cfg.kappa_d) * cfg.kappa_s)
        val = relaxed_objective(np.eye(4, dtype=complex), big, cfg)
        assert val == pytest.approx(ceiling, rel=1e-6)
        assert val <= ceiling

    def test_concavity_along_segments(self, rng):
        cfg, psi = small_problem(rng, n_i=4)
        for _ in range(50):
            x = rank_one_start(random_lifted_init(rng, 4))
            y = rank_one_start(random_lifted_init(rng, 4))
            lam = rng.uniform(0.05, 0.95)
            mix = relaxed_objective(lam * x + (1 - lam) * y, psi, cfg)
            split = lam * relaxed_objective(x, psi, cfg) + (1 - lam) * relaxed_objective(y, psi, cfg)
            assert mix >= split - 1e-9

    def test_gradient_matches_finite_differences(self, rng):
        cfg, psi = small_problem(rng, n_i=3)
        x = project_elliptope(rank_one_start(random_lifted_init(rng, 3)) + 0.05 * np.eye(4))
        grad = _objective_gradient(x, psi, cfg)
        h = 1e-6
        for _ in range(10):
            direction = complex_gaussian(rng, 4, 4)
            direction = (direction + direction.conj().T) / 2.0
            analytic = float(np.real(np.trace(grad @ direction)))
            plus = relaxed_objective(x + h * direction, psi, cfg)
            minus = relaxed_objective(x - h * direction, psi, cfg)
            numeric = (plus - minus) / (2 * h)
            assert analytic == pytest.approx(numeric, abs=1e-5 * max(1.0, abs(numeric)))


class TestProjection:
    def test_feasible_unchanged(self, rng):
        x = rank_one_start(random_lifted_init(rng, 4))
        out = project_elliptope(x, tol=1e-10)
        np.testing.assert_allclose(out, x, atol=1e-8)

    def test_scaled_identity(self):
        out = project_elliptope(2.0 * np.eye(5, dtype=complex))
        np.testing.assert_allclose(out, np.eye(5), atol=1e-8)

    def test_random_hermitian_lands_in_both_sets(self, rng):
        m = complex_gaussian(rng, 6, 6)
        m = (m + m.conj().T) / 2.0
        out = project_elliptope(m, tol=1e-9)
        np.testing.assert_allclose(np.diagonal(out).real, 1.0, atol=1e-8)
        assert float(np.linalg.eigvalsh(out)[0]) >= -1e-8

    def test_dykstra_at_least_as_close_as_naive_alternation(self, rng):
        m = complex_gaussian(rng, 6, 6)
        m = (m + m.conj().T) / 2.0 - 1.5 * np.eye(6)  # push outside the PSD cone
        dyk = project_elliptope(m, tol=1e-11, max_iter=100_000)
        x = m.copy()
        for _ in range(5000):
            vals, vecs = np.linalg.eigh((x + x.conj().T) / 2.0)
            x = (vecs * np.maximum(vals, 0.0)) @ vecs.conj().T
            np.fill_diagonal(x, 1.0)
        assert np.linalg.norm(m - dyk) <= np.linalg.norm(m - x) + 1e-8

    def test_iteration_cap_raises_with_last_iterate(self, rng):
        m = complex_gaussian(rng, 6, 6)
        m = (m + m.conj().T) / 2.0
        with pytest.raises(ProjectionError) as err:
            project_elliptope(m, tol=1e-14, max_iter=2)
        assert err.value.last.shape == (6, 6)


class TestSolveSdr:
    def test_matches_2x2_grid_oracle(self, rng):
        for seed in range(5):
            local = np.random.default_rng(900 + seed)
            cfg, psi = small_problem(local, n_i=1, n_s=4)
            oracle = elliptope_grid_max(psi, cfg)
            ub = solve_sdr(
                psi, cfg, tol=1e-9, max_iter=2000, stall_window=40,
                proj_tol=1e-10, proj_max_iter=5000,
            )
            assert ub.bound_psi_tilde == pytest.approx(oracle, rel=1e-3)

    def test_dominates_mm_with_warm_start(self, rng):
        for seed in range(20):
            local = np.random.default_rng(7000 + seed)
            n_i = int(local.integers(2, 9))
            cfg, psi = small_problem(local, n_i=n_i)
            res = run_mm(random_lifted_init(local, n_i), psi, cfg, MMSettings())
            ub = solve_sdr(
                psi, cfg, tol=1e-6, max_iter=25, stall_window=8,
                init=rank_one_start(lift_reflect(res.reflect)),
            )
            assert ub.bound_psi_tilde >= res.result.psi_tilde_val - 1e-6

    def test_result_feasibility_invariants(self, rng):
        cfg, psi = small_problem(rng, n_i=5)
        ub = solve_sdr(psi, cfg, tol=1e-6, max_iter=40)
        assert np.max(np.abs(np.diagonal(ub.theta_big) - 1.0)) <= 1e-7
        assert float(np.linalg.eigvalsh(ub.theta_big)[0]) >= -1e-7
        assert ub.bound_snr == pytest.approx(
            snr_from_psi_tilde(ub.bound_psi_tilde, cfg), rel=1e-12
        )

    def test_linear_objective_path(self, rng):
        cfg, psi = small_problem(rng, n_i=3, kappa_s=0.0, kappa_d=0.1)
        tt = random_lifted_init(rng, 3)
        ub = solve_sdr(psi, cfg, tol=1e-8, max_iter=300, init=rank_one_start(tt))
        assert ub.bound_psi_tilde >= lifted_objective(tt, psi, cfg) - 1e-9

    def test_best_value_non_decreasing_in_budget(self, rng):
        cfg, psi = small_problem(rng, n_i=4)
        short = solve_sdr(psi, cfg, tol=1e-12, max_iter=5, stall_window=50)
        long = solve_sdr(psi, cfg, tol=1e-12, max_iter=80, stall_window=50)
        assert long.bound_psi_tilde >= short.bound_psi_tilde - 1e-10

    def test_snr_bound_map(self, rng):
        cfg, psi = small_problem(rng, n_i=2)
        ub = solve_sdr(psi, cfg, max_iter=20)
        assert ub.bound_snr == snr_from_psi_tilde(ub.bound_psi_tilde, cfg)
        cfg0 = SystemConfig(n_s=3, n_i=2, p=2.0, kappa_s=0.1, kappa_d=0.0, sigma_n2=0.05)
        assert snr_from_psi_tilde(5.0, cfg0) == pytest.approx(5.0, rel=1e-15)
        assert snr_from_psi_tilde(0.0, cfg0) == 0.0
