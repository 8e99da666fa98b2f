import re
from dataclasses import replace

import numpy as np
import pytest

import irsbf.sdr as sdr_mod
from irsbf.mm import (
    MMSettings,
    _evaluate,
    _run_constants,
    lifted_objective,
    random_lifted_init,
    run_mm,
)
from irsbf.model import ConfigError, DimensionError, SystemConfig, lift_phases
from irsbf.sdr import (
    _DUAL_BLEND,
    _DUAL_MAX_MAPS,
    _T_MARGIN,
    _dual_certificate,
    solve_sdr,
)
from irsbf.sim import Scheme, _draw, child_seed, table_defaults
from irsbf.txbf import psi_tilde_from_powers, snr_from_psi_tilde

from conftest import complex_gaussian, design_all, design_objective


def _diag_quad(psi_m, x):
    """Real diagonal of psi_m @ x @ psi_m^H."""
    return np.real(np.einsum("mi,ij,mj->m", psi_m, x, psi_m.conj(), optimize=True))


def _gradient_factor(q, psi, cfg):
    """Oracle: B with B^H B the relaxed objective's gradient at received powers ``q``."""
    a, c = cfg.objective_coeffs
    return (np.sqrt(c) / (a * q + c))[:, None] * psi


def dual_certificate_oracle(b, m, tol):
    """Oracle: the plain dual ascent, one map per step with no extrapolation.

    Every sum, conjugate and eigenvalue is recomputed in the loop.
    """
    norms = np.linalg.norm(b, axis=0)
    best = norms * np.sum(norms)
    live = norms > 0.0
    b = b[:, live]
    z = (1.0 - _DUAL_BLEND) * (m @ m.conj().T) + _DUAL_BLEND * (b @ b.conj().T)
    for _ in range(_DUAL_MAX_MAPS):
        u = np.sqrt(np.maximum(np.real(np.sum(b.conj() * (z @ b), axis=0)), 0.0))
        if not np.all(u > 0.0):
            break
        s = (b / u) @ b.conj().T
        t = float(np.linalg.eigvalsh(s)[-1]) * (1.0 + _T_MARGIN)
        if t * np.sum(u) < np.sum(best):
            best = np.zeros_like(norms)
            best[live] = t * u
        z = s @ z @ s
        if np.sum(best) - float(np.real(np.trace(z))) <= tol * np.sum(best):
            break
    return best


def certificate_inputs(v, psi, cfg):
    """(b, m) of the dual ascent at X = v v^H, built as ``sdr._certify`` builds them."""
    run = _run_constants(psi, cfg)
    xi = _evaluate(v, run)[1]
    b = (np.sqrt(run.c) / xi)[:, None] * run.m
    return b, b @ v


def relaxed_objective(theta_big, psi, cfg):
    """Oracle: the separable concave objective at a Hermitian matrix, formed explicitly."""
    return psi_tilde_from_powers(np.maximum(_diag_quad(psi, np.asarray(theta_big)), 0.0), cfg)


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


def random_factor(rng, n, rank):
    """A factor with unit-norm rows."""
    v = complex_gaussian(rng, n, rank)
    return v / np.linalg.norm(v, axis=1, keepdims=True)


DUAL_CASES = pytest.mark.parametrize(
    "n_i, n_s, overrides, dead",
    [
        (8, 4, {}, False),
        (50, 4, {}, False),
        (0, 1, {}, False),
        (6, 1, {}, False),
        (8, 2, {}, False),
        (8, 3, {}, False),
        (8, 4, {"kappa_s": 0.0, "kappa_d": 0.0}, False),
        (8, 4, {}, True),
        (8, 2, {}, True),
    ],
    ids=["n8", "n50", "n_s1-n_i0", "n_s1", "n_s2", "n_s3", "kappa0", "zero-column", "n_s2-zero-column"],
)


def dual_inputs(rng, n_i, n_s, overrides, dead):
    """(b, m) pairs at a phase vector and at a factor of rank n_s + 1."""
    cfg, psi = small_problem(rng, n_i=n_i, n_s=n_s, **overrides)
    if dead:
        psi[:, 2] = 0.0
    tt = random_lifted_init(rng, n_i)
    for v in (tt[:, None], random_factor(rng, n_i + 1, n_s + 1)):
        yield certificate_inputs(v, psi, cfg)


class TestDualCertificate:
    @DUAL_CASES
    def test_certificate_is_dual_feasible(self, rng, n_i, n_s, overrides, dead):
        # lambda_max(b diag(1/y) b^H) <= 1 on the live columns: diag(y) - b^H b is PSD
        for b, m in dual_inputs(rng, n_i, n_s, overrides, dead):
            live = np.linalg.norm(b, axis=0) > 0.0
            for tol in (0.0, 1e-8, 1e-4):
                y = _dual_certificate(b, m, tol)
                assert np.all(y[~live] == 0.0)
                assert np.all(y[live] > 0.0)
                scaled = (b[:, live] / y[live]) @ b[:, live].conj().T
                assert float(np.linalg.eigvalsh(scaled)[-1]) <= 1.0

    @DUAL_CASES
    def test_not_looser_than_the_plain_ascent_when_it_stops_on_its_test(
        self, rng, n_i, n_s, overrides, dead, monkeypatch
    ):
        # at its stop the kept certificate is within tol of a feasible value,
        # and so of the optimum, which the oracle's certificate also bounds
        maps = []
        top = sdr_mod._top_eigenvalue
        monkeypatch.setattr(sdr_mod, "_top_eigenvalue", lambda h: maps.append(1) or top(h))
        stopped = 0
        for b, m in dual_inputs(rng, n_i, n_s, overrides, dead):
            for tol in (1e-8, 1e-4):
                maps.clear()
                y = _dual_certificate(b, m, tol)
                if len(maps) < _DUAL_MAX_MAPS:
                    stopped += 1
                    oracle = float(np.sum(dual_certificate_oracle(b, m, tol)))
                    assert float(np.sum(y)) <= oracle * (1.0 + 2.0 * tol)
        assert stopped >= 2

    def test_fewer_maps_than_the_plain_ascent(self, monkeypatch):
        # SQUAREM's point: on pinned designs at n_i 50, the extrapolated
        # ascent stops after fewer maps in total than the plain one
        maps = []
        top, eigvalsh = sdr_mod._top_eigenvalue, np.linalg.eigvalsh
        monkeypatch.setattr(sdr_mod, "_top_eigenvalue", lambda h: maps.append(1) or top(h))
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda h: maps.append(1) or eigvalsh(h))
        cfg, geo = table_defaults()
        plain = extrapolated = 0
        for s in range(10):
            (psi,), (init,) = _draw(cfg, geo, (child_seed(11, 50, s),))
            run = run_mm(init, psi, cfg, MMSettings())
            b, m = certificate_inputs(lift_phases(run.phases)[:, None], psi, cfg)
            maps.clear()
            _dual_certificate(b, m, 1e-4)
            extrapolated += len(maps)
            maps.clear()
            dual_certificate_oracle(b, m, 1e-4)
            plain += len(maps)
        assert extrapolated < plain

    def test_a_nan_in_m_stops_the_ascent_as_in_the_oracle(self, rng):
        cfg, psi = small_problem(rng, n_i=6, n_s=3)
        b, m = certificate_inputs(random_lifted_init(rng, 6)[:, None], psi, cfg)
        m[1, 0] = np.nan
        y = _dual_certificate(b, m, 1e-4)
        np.testing.assert_array_equal(y, dual_certificate_oracle(b, m, 1e-4))
        norms = np.linalg.norm(b, axis=0)
        np.testing.assert_array_equal(y, norms * np.sum(norms))


def pinned_bounds(n_i, count=40, seed=11):
    """(psi, cfg, designs, bound) of the realizations child_seed(seed, n_i, s), s < count."""
    cfg, geo = table_defaults()
    cfg = replace(cfg, n_i=n_i)
    for s in range(count):
        (psi,), (init,) = _draw(cfg, geo, (child_seed(seed, n_i, s),))
        designs, ub = design_all(psi, cfg, MMSettings(), None, init, True)
        yield psi, cfg, designs, ub


class TestCertifyFirst:
    @pytest.mark.parametrize("n_i", [0, 1, 4])
    def test_kept_phases_certified_at_once(self, n_i):
        early = 0
        for psi, cfg, designs, ub in pinned_bounds(n_i):
            for scheme, (_, lifted, _) in designs.items():
                assert ub.bound_psi_tilde >= design_objective(lifted, psi, cfg), scheme
            if ub.iterations == 0:
                early += 1
                assert ub.converged
                assert ub.gap <= 1e-4 * ub.primal_psi_tilde
                np.testing.assert_array_equal(ub.factor[:, 0], designs[Scheme.ROBUST_IRS][1])
        # without a surface, and with one element on these draws, the one-map
        # certificate of the kept phases is tight to rounding
        assert early == 40 if n_i < 2 else early >= 30

    def test_few_factor_ascents_end_at_the_kept_phases(self):
        # a rank-one certified factor after an ascent means no escape step
        # improved on the kept phases
        fallbacks = 0
        for n_i in (16, 50):
            for _, _, _, ub in pinned_bounds(n_i):
                fallbacks += ub.iterations > 0 and ub.factor.shape[1] == 1
        assert fallbacks <= 6


class TestCertifyPhases:
    """The escape directions of ``_certify_phases``, from the LAPACK gufunc behind ``np.linalg.eigh``."""

    @pytest.mark.parametrize("n_i, n_s", [(1, 1), (6, 3), (40, 4)])
    def test_directions_are_bitwise_those_of_the_eigh_wrapper(self, rng, n_i, n_s):
        for _ in range(5):
            cfg, psi = small_problem(rng, n_i=n_i, n_s=n_s)
            run = _run_constants(psi, cfg)
            tt = random_lifted_init(rng, n_i)
            # tol 0 leaves no certified gap small enough, so the eigenpairs are taken
            primal, dual, bound, directions = sdr_mod._certify_phases(tt, run, 0.0)
            assert dual is None and bound is None
            _, b = sdr_mod._linearize(tt, run)
            bh = b.conj().T
            u = np.abs(bh @ (b @ tt))
            _, s = sdr_mod._diagonal_certificate(b, bh, u, sdr_mod._top_eigenvalue, _T_MARGIN)
            w, p = np.linalg.eigh(s)
            escape = w > 1.0
            inv = np.divide(1.0, u, out=np.zeros_like(u), where=u > 0.0)
            want = (bh @ p[:, escape]) * (inv[:, None] * np.sqrt(w[escape] - 1.0))
            assert directions.tobytes() == want.tobytes()

    def test_a_nan_eigenvalue_raises(self, rng, monkeypatch):
        cfg, psi = small_problem(rng, n_i=6, n_s=3)
        run = _run_constants(psi, cfg)
        certificate = sdr_mod._diagonal_certificate

        def nan_gram(*args):
            y, s = certificate(*args)
            return y, np.full_like(s, np.nan)

        monkeypatch.setattr(sdr_mod, "_diagonal_certificate", nan_gram)
        # numpy's default error state also warns of the failed solve
        with np.errstate(invalid="ignore"), pytest.raises(np.linalg.LinAlgError):
            sdr_mod._certify_phases(random_lifted_init(rng, 6), run, 0.0)


class TestSolveSdr:
    def test_matches_2x2_grid_oracle(self, rng):
        for seed in range(5):
            local = np.random.default_rng(900 + seed)
            cfg, psi = small_problem(local, n_i=1, n_s=4)
            oracle = elliptope_grid_max(psi, cfg)
            ub = solve_sdr(psi, cfg, tol=1e-9, max_iter=2000)
            assert ub.bound_psi_tilde == pytest.approx(oracle, rel=1e-3)

    def test_nan_init_raises_a_config_error(self, rng):
        cfg, psi = small_problem(rng, n_i=3)
        init = np.ones(4, dtype=complex)
        init[1] = np.nan
        with pytest.raises(ConfigError, match="unit modulus"):
            solve_sdr(psi, cfg, init=init)

    @pytest.mark.parametrize("shape", [(3,), (5,), (4, 1), (1, 4)])
    def test_an_init_of_another_shape_raises(self, rng, shape):
        cfg, psi = small_problem(rng, n_i=3)
        with pytest.raises(DimensionError, match=re.escape(f"init must have shape (4,), got {shape}")):
            solve_sdr(psi, cfg, init=np.ones(shape, dtype=complex))

    def test_dominates_mm_with_warm_start(self, rng):
        for seed in range(20):
            local = np.random.default_rng(7000 + seed)
            n_i = int(local.integers(2, 9))
            cfg, psi = small_problem(local, n_i=n_i)
            res = run_mm(random_lifted_init(local, n_i), psi, cfg, MMSettings())
            ub = solve_sdr(psi, cfg, tol=1e-6, max_iter=25, init=lift_phases(res.phases))
            assert ub.bound_psi_tilde >= res.objectives[-1] - 1e-6

    def test_bound_dominates_without_a_warm_start_or_ascent(self):
        # one cycle from all-ones phases leaves the primal far from the
        # optimum; the certificate must still dominate the MM value
        for seed in range(10):
            local = np.random.default_rng(7100 + seed)
            cfg, psi = small_problem(local, n_i=6)
            res = run_mm(random_lifted_init(local, 6), psi, cfg, MMSettings())
            ub = solve_sdr(psi, cfg, max_iter=1)
            assert ub.bound_psi_tilde >= res.objectives[-1] - 1e-9
            assert ub.bound_psi_tilde >= ub.primal_psi_tilde

    def test_result_feasibility_invariants(self, rng):
        cfg, psi = small_problem(rng, n_i=5)
        ub = solve_sdr(psi, cfg, tol=1e-6, max_iter=40)
        theta_big = ub.factor @ ub.factor.conj().T
        assert np.max(np.abs(np.diagonal(theta_big) - 1.0)) <= 1e-7
        assert float(np.linalg.eigvalsh(theta_big)[0]) >= -1e-7
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
