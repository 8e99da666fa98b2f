"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Lines are written to the real stdout so they stay visible under pytest's
capture; run with ``pytest -s tests/test_acceptance.py`` to watch them live.
"""

import sys
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from irsbf.channels import generate_channels, sample_los
from irsbf.cli import main as cli_main
from irsbf.los import asymptotic_snr, los_snr_closed, solve_los
from irsbf.mm import (
    MMSettings,
    lifted_objective,
    random_lifted_init,
    run_mm,
)
from irsbf.model import (
    ChannelSet,
    ReflectConfig,
    SystemConfig,
    build_composite,
    lift_reflect,
)
from irsbf.sdr import solve_sdr
from irsbf.sim import (
    Scheme,
    SweepSpec,
    run_iteration_study,
    run_sweep,
    table_defaults,
)
from irsbf.txbf import (
    composite_vector,
    evaluate_snr,
    optimal_transmit_beam,
    psi_tilde,
)

from conftest import complex_gaussian, design_all, random_channels
from test_mm import surrogate_value


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:2d} FAIL - {description}", file=sys.__stdout__)
        raise
    print(f"[acceptance] criterion {number:2d} PASS - {description}", file=sys.__stdout__)


def test_criterion_01_transmit_beam_closed_form_equivalence():
    with criterion(1, "diagonal-form beam matches dense-solve oracle (100 instances, <1s)"):
        rng = np.random.default_rng(101)
        start = time.perf_counter()
        worst = 0.0
        for _ in range(100):
            n_s, n_i = int(rng.integers(1, 9)), int(rng.integers(0, 17))
            cfg = SystemConfig(
                n_s=n_s, n_i=n_i, p=float(rng.uniform(0.5, 4.0)),
                kappa_s=float(rng.uniform(0.0, 0.6)), kappa_d=float(rng.uniform(0.0, 0.6)),
                sigma_n2=float(rng.uniform(0.01, 1.0)),
            )
            psi = build_composite(random_channels(rng, n_i, n_s))
            theta = ReflectConfig(rng.uniform(0, 2 * np.pi, n_i))
            v = composite_vector(theta, psi)
            dense = cfg.kappa_d * np.outer(v, np.conj(v)) + np.diag(
                (1 + cfg.kappa_d) * cfg.kappa_s * np.abs(v) ** 2
                + (1 + cfg.kappa_d) * cfg.sigma_n2 / cfg.p_tilde
            )
            oracle = np.linalg.solve(dense, v)
            oracle = np.sqrt(cfg.p_tilde) * oracle / np.linalg.norm(oracle)
            oracle *= np.exp(-1j * np.angle(oracle[np.flatnonzero(np.abs(oracle) > 0)[0]]))
            w = optimal_transmit_beam(theta, psi, cfg)
            worst = max(worst, np.linalg.norm(w - oracle) / np.linalg.norm(oracle))
        elapsed = time.perf_counter() - start
        assert worst < 1e-10, f"worst relative deviation {worst:.3e}"
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_02_mm_matches_grid_oracles_at_tiny_scale():
    with criterion(2, "optimizer matches exhaustive grids at 1-2 elements (<2min)"):
        start = time.perf_counter()
        cfg_base, geo = table_defaults()

        cfg1 = replace(cfg_base, n_i=1)
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(10_000 + seed)
            ch = generate_channels(rng, cfg1, geo)
            psi = build_composite(ch)
            res = run_mm(random_lifted_init(rng, 1), psi, cfg1, MMSettings(epsilon=1e-9))
            phis = np.linspace(0, 2 * np.pi, 100_000, endpoint=False)
            tts = np.stack([np.exp(1j * phis), np.ones_like(phis)])
            q = np.abs(psi @ tts) ** 2
            a = (1 + cfg1.kappa_d) * cfg1.kappa_s
            c = (1 + cfg1.kappa_d) * cfg1.sigma_n2 / cfg1.p_tilde
            oracle = float(np.sum(q / (a * q + c), axis=0).max())
            hits += (oracle - res.objectives[-1]) / oracle <= 1e-4
        assert hits >= 99, f"only {hits}/100 within 1e-4 of the grid"

        cfg2 = replace(cfg_base, n_i=2)
        n = 2000
        phis = np.linspace(0, 2 * np.pi, n, endpoint=False)
        e1 = np.exp(1j * phis)
        for seed in range(10):
            rng = np.random.default_rng(11_000 + seed)
            ch = generate_channels(rng, cfg2, geo)
            psi = build_composite(ch)
            res = run_mm(random_lifted_init(rng, 2), psi, cfg2, MMSettings(epsilon=1e-10))
            a = (1 + cfg2.kappa_d) * cfg2.kappa_s
            c = (1 + cfg2.kappa_d) * cfg2.sigma_n2 / cfg2.p_tilde
            cols = psi[:, 0][:, None], psi[:, 1][:, None], psi[:, 2][:, None]
            best = 0.0
            for i in range(n):
                q = np.abs(cols[0] * e1[i] + cols[1] * e1[None, :] + cols[2]) ** 2
                best = max(best, float(np.sum(q / (a * q + c), axis=0).max()))
            assert (best - res.objectives[-1]) / best <= 1e-3
        assert time.perf_counter() - start < 120.0


def test_criterion_03_surrogate_three_conditions():
    with criterion(3, "surrogate minorizes, is tight, and matches first order (20 instances)"):
        for seed in range(20):
            rng = np.random.default_rng(3_000 + seed)
            n_i = int(rng.integers(1, 10))
            n_s = int(rng.integers(1, 5))
            cfg = SystemConfig(
                n_s=n_s, n_i=n_i, p=float(rng.uniform(0.5, 4.0)),
                kappa_s=float(rng.uniform(0.01, 0.5)), kappa_d=float(rng.uniform(0.0, 0.5)),
                sigma_n2=float(rng.uniform(0.01, 0.5)),
            )
            psi = complex_gaussian(rng, n_s, n_i + 1)
            tt0 = random_lifted_init(rng, n_i)
            f0 = lifted_objective(tt0, psi, cfg)
            s0 = surrogate_value(tt0, tt0, psi, cfg)
            assert abs(f0 - s0) <= 1e-10 * max(1.0, abs(f0)), "tightness violated"
            for _ in range(1000):
                tt = random_lifted_init(rng, n_i)
                gap = lifted_objective(tt, psi, cfg) - surrogate_value(tt, tt0, psi, cfg)
                assert gap >= -1e-10, f"minorization violated by {gap:.3e}"
            h = 1e-6
            for _ in range(5):
                direction = rng.standard_normal(n_i + 1)

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
                assert abs(df - ds) <= 1e-5 * max(1.0, abs(df)), "first-order mismatch"


def test_criterion_04_monotone_convergence_500_runs():
    with criterion(4, "non-decreasing objective on 500 runs at 32 elements, eps=1e-5"):
        cfg_base, geo = table_defaults()
        cfg = replace(cfg_base, n_i=32)
        violations = 0
        for run in range(500):
            rng = np.random.default_rng(40_000 + run)
            ch = generate_channels(rng, cfg, geo)
            psi = build_composite(ch)
            settings = MMSettings(epsilon=1e-5, accelerate=(run % 2 == 0), max_iter=20_000)
            res = run_mm(random_lifted_init(rng, 32), psi, cfg, settings)
            objs = res.objectives
            if any(b < a - 1e-12 for a, b in zip(objs, objs[1:])):
                violations += 1
            assert res.converged
        assert violations == 0, f"{violations} monotonicity violations"


def test_criterion_05_bound_dominates_and_matches_tiny_oracle():
    with criterion(5, "relaxation value dominates optimizer on 500 instances; 2x2 grid match"):
        cfg_base, geo = table_defaults()
        failures = 0
        for run in range(500):
            rng = np.random.default_rng(50_000 + run)
            cfg = replace(cfg_base, n_i=int(rng.integers(2, 9)))
            ch = generate_channels(rng, cfg, geo)
            psi = build_composite(ch)
            res = run_mm(random_lifted_init(rng, cfg.n_i), psi, cfg, MMSettings())
            ub = solve_sdr(psi, cfg, tol=1e-5, max_iter=15, init=lift_reflect(res.reflect))
            if ub.bound_psi_tilde < res.objectives[-1] - 1e-6:
                failures += 1
        assert failures == 0, f"{failures}/500 dominance violations"

        for seed in range(5):
            rng = np.random.default_rng(55_000 + seed)
            cfg = SystemConfig(n_s=4, n_i=1, p=2.0, kappa_s=0.1, kappa_d=0.1, sigma_n2=0.05)
            psi = complex_gaussian(rng, 4, 2)
            a = (1 + cfg.kappa_d) * cfg.kappa_s
            c = (1 + cfg.kappa_d) * cfg.sigma_n2 / cfg.p_tilde
            radii = np.linspace(0.0, 1.0, 600)
            phases = np.linspace(0.0, 2 * np.pi, 1200, endpoint=False)
            z = (radii[:, None] * np.exp(1j * phases)[None, :]).ravel()
            p0, p1 = psi[:, 0], psi[:, 1]
            q = np.maximum(
                (np.abs(p0) ** 2 + np.abs(p1) ** 2)[:, None]
                + 2 * np.real((np.conj(p0) * p1)[:, None] * z[None, :]),
                0.0,
            )
            oracle = float(np.sum(q / (a * q + c), axis=0).max())
            ub = solve_sdr(psi, cfg, tol=1e-9, max_iter=2000)
            assert ub.bound_psi_tilde == pytest.approx(oracle, rel=1e-3)


def test_criterion_06_bound_near_tightness_at_defaults():
    with criterion(6, "mean benchmark SNR within 1.5 dB of the robust scheme (50 channels)"):
        cfg, geo = table_defaults()
        spec = SweepSpec(
            variable="n_i", values=(50.0,), n_channels=50, n_symbols=0,
            seed=606,
        )
        res = run_sweep(spec, cfg, geo)[0]
        gap_db = res.stats[Scheme.UPPER_BOUND].mean_snr_db - res.stats[Scheme.ROBUST_IRS].mean_snr_db
        assert gap_db >= -1e-9, f"bound fell below the robust scheme by {-gap_db:.3e} dB"
        assert gap_db < 1.5, f"gap {gap_db:.3f} dB"


@pytest.mark.parametrize("seed", [707, 1, 2])
def test_criterion_07_acceleration_cuts_iterations(seed):
    with criterion(7, "accelerated robust runs use <25% of plain iterations at 32 elements"):
        cfg, geo = table_defaults()
        rows = run_iteration_study([32], cfg, geo, seed=seed, n_channels=100)
        row = rows[0]
        ratio = row.robust_accel / row.robust_plain
        assert ratio < 0.25, f"ratio {ratio:.3f}"
        assert row.nonrobust_accel < row.nonrobust_plain
        assert row.nonrobust_plain < row.robust_plain


def test_criterion_08_robust_dominance_and_kappa_gap_trend():
    with criterion(8, "robust>=nonrobust per realization; gap widens with distortion"):
        cfg, geo = table_defaults()
        for seed in range(30):
            psi = build_composite(generate_channels(np.random.default_rng(80_000 + seed), cfg, geo))
            init = random_lifted_init(np.random.default_rng(seed), cfg.n_i)
            designs, _ = design_all(psi, cfg, MMSettings(), None, init, False)
            snr_r, snr_n = designs[Scheme.ROBUST_IRS][0], designs[Scheme.NONROBUST_IRS][0]
            assert snr_r >= snr_n - 1e-9, f"violated at seed {seed}"
        spec = SweepSpec(
            variable="kappa", values=(0.02, 0.15), n_channels=100, n_symbols=0,
            seed=808, bound=False,
        )
        results = run_sweep(spec, cfg, geo)
        gaps = [
            r.stats[Scheme.ROBUST_IRS].mean_snr_db - r.stats[Scheme.NONROBUST_IRS].mean_snr_db
            for r in results
        ]
        assert gaps[1] > gaps[0], f"gap did not widen: {gaps}"


def test_criterion_09_los_closed_forms():
    with criterion(9, "aligned closed form exact; optimizer and asymptote agree"):
        for seed in range(50):
            rng = np.random.default_rng(90_000 + seed)
            n_s, n_i = int(rng.integers(1, 6)), int(rng.integers(2, 17))
            cfg = SystemConfig(
                n_s=n_s, n_i=n_i, p=float(rng.uniform(0.5, 4.0)),
                kappa_s=float(rng.uniform(0.0, 0.4)), kappa_d=float(rng.uniform(0.0, 0.4)),
                sigma_n2=float(rng.uniform(0.01, 0.5)),
            )
            los = sample_los(rng, n_s, n_i, gain=float(rng.uniform(0.1, 2.0)))
            h_id = complex_gaussian(rng, n_i)
            psi = build_composite(ChannelSet(h_si=los.h_si, h_id=h_id, h_sd=np.zeros(n_s, complex)))
            sol = solve_los(los, h_id, cfg)
            direct = evaluate_snr(sol.w, sol.theta, psi, cfg)
            assert sol.snr == pytest.approx(direct, rel=1e-10)
            res = run_mm(
                random_lifted_init(rng, n_i), psi, cfg,
                MMSettings(epsilon=1e-10),
            )
            assert res.objectives[-1] == pytest.approx(
                psi_tilde(sol.theta, psi, cfg), rel=1e-6
            )
        n_i, sigma_id2, eta_abs2 = 400, 0.04, 0.5
        cfg = SystemConfig(n_s=4, n_i=n_i, p=2.0, kappa_s=0.07, kappa_d=0.07, sigma_n2=40.0)
        rng = np.random.default_rng(99_000)
        snrs = [
            los_snr_closed(
                cfg, eta_abs2,
                float(np.sum(np.abs(complex_gaussian(rng, n_i)) * np.sqrt(sigma_id2))),
            )
            for _ in range(200)
        ]
        limit = asymptotic_snr(cfg, n_i, sigma_id2, eta_abs2)
        assert np.mean(snrs) == pytest.approx(limit, rel=0.05)


def test_criterion_10_saturation_and_error_floors():
    with criterion(10, "SNR saturates with power; robust error floor is lower"):
        cfg, geo = table_defaults()
        psi = build_composite(generate_channels(np.random.default_rng(1001), cfg, geo))
        theta = ReflectConfig(
            np.random.default_rng(1002).uniform(0, 2 * np.pi, cfg.n_i)
        )
        rngd = np.random.default_rng(1003)
        direction = complex_gaussian(rngd, cfg.n_s)
        direction /= np.linalg.norm(direction)

        def snr_at(scale):
            cfg_p = replace(cfg, p=cfg.p * scale)
            return evaluate_snr(np.sqrt(cfg_p.p_tilde) * direction, theta, psi, cfg_p)

        low, high = snr_at(1e6), snr_at(1e8)
        assert abs(high - low) / low < 1e-3, f"saturation gap {(high-low)/low:.2e}"

        spec = SweepSpec(
            variable="p_dbw", values=(34.0, 40.0), n_channels=500,
            n_symbols=2000, seed=1010, bound=False,
        )
        results = run_sweep(spec, cfg, geo)
        for res in results:
            assert res.stats[Scheme.ROBUST_IRS].ser < res.stats[Scheme.NONROBUST_IRS].ser
        floor_drop = results[0].stats[Scheme.ROBUST_IRS].ser - results[1].stats[Scheme.ROBUST_IRS].ser
        assert abs(floor_drop) < 0.5 * results[0].stats[Scheme.ROBUST_IRS].ser, "no flat tail"


def test_criterion_11_cli_determinism(tmp_path):
    with criterion(11, "fixed-seed CLI output is byte-identical across runs and workers"):
        out = [tmp_path / f"run{i}.csv" for i in range(4)]
        args = ["sweep-n", "--seed", "42", "--channels", "4", "--symbols", "60", "--values", "6"]
        assert cli_main([*args, "--out", str(out[0])]) == 0
        assert cli_main([*args, "--out", str(out[1])]) == 0
        assert out[0].read_bytes() == out[1].read_bytes()
        assert cli_main([*args, "--workers", "2", "--out", str(out[2])]) == 0
        assert out[0].read_bytes() == out[2].read_bytes()
        args_nb = [
            "sweep-distance", "--seed", "5", "--channels", "3", "--symbols", "30",
            "--values", "45,50", "--no-bound",
        ]
        assert cli_main([*args_nb, "--workers", "1", "--out", str(out[3])]) == 0
        again = tmp_path / "again.csv"
        assert cli_main([*args_nb, "--workers", "3", "--out", str(again)]) == 0
        assert out[3].read_bytes() == again.read_bytes()
