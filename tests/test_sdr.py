import numpy as np
import pytest

from irsbf.mm import MMSettings, lifted_objective, random_lifted_init, run_mm
from irsbf.model import SystemConfig, lift_reflect
from irsbf.sdr import _diag_quad, _gradient_factor, relaxed_objective, solve_sdr
from irsbf.txbf import snr_from_psi_tilde

from conftest import complex_gaussian


def random_composite(rng, n_s, n_i):
    return complex_gaussian(rng, n_s, n_i + 1)


def small_problem(rng, n_i=4, n_s=3, **overrides):
    params = dict(n_s=n_s, n_i=n_i, p=2.0, kappa_s=0.1, kappa_d=0.1, sigma_n2=0.05)
    params.update(overrides)
    return SystemConfig(**params), random_composite(rng, n_s, n_i)


def rank_one_start(theta_tilde):
    return np.outer(theta_tilde, theta_tilde.conj())


def elliptope_grid_max(psi, cfg, nr=600, nphi=1200):
    """Exhaustive 2x2 oracle over the off-diagonal disk |z| <= 1."""
    a = (1 + cfg.kappa_d) * cfg.kappa_s
    c = (1 + cfg.kappa_d) * cfg.sigma_n2 / cfg.p_tilde
    radii = np.linspace(0.0, 1.0, nr)
    phases = np.linspace(0.0, 2.0 * np.pi, nphi, endpoint=False)
    z = (radii[:, None] * np.exp(1j * phases)[None, :]).ravel()
    p0, p1 = psi[:, 0], psi[:, 1]
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
        psi = np.array([[1.0 + 0j, 0.0], [0.0, 0.0]])
        a = (1 + cfg.kappa_d) * cfg.kappa_s
        c = (1 + cfg.kappa_d) * cfg.sigma_n2 / cfg.p_tilde
        assert relaxed_objective(np.eye(2, dtype=complex), psi, cfg) == pytest.approx(
            1.0 / (a + c), rel=1e-12
        )

    def test_saturation_bound(self, rng):
        cfg, psi = small_problem(rng, n_i=3)
        big = psi * 1e6
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
        x = 0.95 * rank_one_start(random_lifted_init(rng, 3)) + 0.05 * np.eye(4)
        b = _gradient_factor(_diag_quad(psi, x), psi, cfg)
        grad = b.conj().T @ b
        h = 1e-6
        for _ in range(10):
            direction = complex_gaussian(rng, 4, 4)
            direction = (direction + direction.conj().T) / 2.0
            analytic = float(np.real(np.trace(grad @ direction)))
            plus = relaxed_objective(x + h * direction, psi, cfg)
            minus = relaxed_objective(x - h * direction, psi, cfg)
            numeric = (plus - minus) / (2 * h)
            assert analytic == pytest.approx(numeric, abs=1e-5 * max(1.0, abs(numeric)))


class TestSolveSdr:
    def test_matches_2x2_grid_oracle(self, rng):
        for seed in range(5):
            local = np.random.default_rng(900 + seed)
            cfg, psi = small_problem(local, n_i=1, n_s=4)
            oracle = elliptope_grid_max(psi, cfg)
            ub = solve_sdr(psi, cfg, tol=1e-9, max_iter=2000)
            assert ub.bound_psi_tilde == pytest.approx(oracle, rel=1e-3)

    def test_dominates_mm_with_warm_start(self, rng):
        for seed in range(20):
            local = np.random.default_rng(7000 + seed)
            n_i = int(local.integers(2, 9))
            cfg, psi = small_problem(local, n_i=n_i)
            res = run_mm(random_lifted_init(local, n_i), psi, cfg, MMSettings())
            ub = solve_sdr(psi, cfg, tol=1e-6, max_iter=25, init=lift_reflect(res.reflect))
            assert ub.bound_psi_tilde >= res.result.psi_tilde_val - 1e-6

    def test_bound_dominates_without_a_warm_start_or_ascent(self):
        # one cycle from all-ones phases leaves the primal far from the
        # optimum; the certificate must still dominate the MM value
        for seed in range(10):
            local = np.random.default_rng(7100 + seed)
            cfg, psi = small_problem(local, n_i=6)
            res = run_mm(random_lifted_init(local, 6), psi, cfg, MMSettings())
            ub = solve_sdr(psi, cfg, max_iter=1)
            assert ub.bound_psi_tilde >= res.result.psi_tilde_val - 1e-9
            assert ub.bound_psi_tilde >= ub.primal_psi_tilde

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
        ub = solve_sdr(psi, cfg, tol=1e-8, max_iter=300, init=tt)
        assert ub.bound_psi_tilde >= lifted_objective(tt, psi, cfg) - 1e-9

    def test_best_value_non_decreasing_in_budget(self, rng):
        cfg, psi = small_problem(rng, n_i=4)
        runs = [solve_sdr(psi, cfg, tol=1e-12, max_iter=k) for k in (1, 5, 20, 80)]
        for short, long in zip(runs, runs[1:]):
            assert long.primal_psi_tilde >= short.primal_psi_tilde - 1e-10
        for ub in runs:
            assert ub.bound_psi_tilde >= ub.primal_psi_tilde - 1e-10

    def test_snr_bound_map(self, rng):
        cfg, psi = small_problem(rng, n_i=2)
        ub = solve_sdr(psi, cfg, max_iter=20)
        assert ub.bound_snr == snr_from_psi_tilde(ub.bound_psi_tilde, cfg)
        cfg0 = SystemConfig(n_s=3, n_i=2, p=2.0, kappa_s=0.1, kappa_d=0.0, sigma_n2=0.05)
        assert snr_from_psi_tilde(5.0, cfg0) == pytest.approx(5.0, rel=1e-15)
        assert snr_from_psi_tilde(0.0, cfg0) == 0.0
