import math
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
import scipy.stats as st

from zipfest.asymptotics import ratio_k_variance, ratio_r1_variance
from zipfest.errors import (AmbiguousRootError, DomainError,
                            InsufficientDataError, NoRootError, UsageError)
from zipfest.estimators import (ESTIMATORS, ImplicitSolver, log_ratio_estimate,
                                ratio_estimate_k, ratio_estimate_r1)
from zipfest.law import make_zipf_law, zeta_normalization
from zipfest.occupancy import StatisticsSnapshot
from zipfest.sampler import SeedSpec, sample_fixed

from conftest import WORKERS


def make_snapshot(total, r, r_k, u=0, k_max=8):
    r_k = tuple(r_k) + (0,) * (k_max - len(r_k))
    r_star = []
    running = r
    for k in range(1, k_max + 2):
        r_star.append(running)
        running -= r_k[k - 1] if k <= k_max else 0
    return StatisticsSnapshot(total=total, r=r, r_k=r_k, r_star_k=tuple(r_star), u=u)


class TestImplicit:
    def test_forward_then_invert_at_half(self):
        solver = ImplicitSolver("r", 10 ** 4, zeta_normalization)
        stat = solver.growth(0.5)
        assert stat == pytest.approx(138.1976598, abs=1e-6)
        result = solver.solve(stat)
        assert result.theta_hat == pytest.approx(0.5, abs=1e-8)
        assert result.ci[0] < 0.5 < result.ci[1]

    def test_forward_then_invert_u_and_rk(self):
        for which, k, expected_stat in (("u", None, 97.72050238),
                                        ("rk", 1, 69.09882989)):
            solver = ImplicitSolver(which, 10 ** 4, zeta_normalization, k=k)
            stat = solver.growth(0.5)
            assert stat == pytest.approx(expected_stat, abs=1e-6)
            assert solver.solve(stat).theta_hat == pytest.approx(0.5, abs=1e-8)

    def test_roundtrip_grid(self):
        # inversion recovers theta across the contract grid for all three
        # growth curves (n large enough that every curve clears 1)
        for which, k, n in (("r", None, 10 ** 10), ("u", None, 10 ** 10),
                            ("rk", 1, 10 ** 10)):
            solver = ImplicitSolver(which, n, zeta_normalization, k=k)
            for theta in [round(0.1 * i, 1) for i in range(1, 10)]:
                got = solver.solve(solver.growth(theta)).theta_hat
                assert got == pytest.approx(theta, abs=1e-8)

    def test_constant_c_model(self):
        result = ImplicitSolver("r", 10 ** 4, 1.0).solve(200.0)
        check = ImplicitSolver("r", 10 ** 4, lambda th: 1.0).solve(200.0)
        assert result.theta_hat == pytest.approx(check.theta_hat, abs=1e-12)

    def test_stderr_formula(self):
        solver = ImplicitSolver("r", 10 ** 4, zeta_normalization)
        result = solver.solve(solver.growth(0.5))
        from zipfest.asymptotics import implicit_variance
        expected = math.sqrt(implicit_variance(result.theta_hat, "r")) \
            / (math.log(10 ** 4) * math.sqrt(138.1976598))
        assert result.stderr == pytest.approx(expected, rel=1e-6)

    def test_no_root_carries_endpoints(self):
        with pytest.raises(NoRootError) as err:
            ImplicitSolver("r", 10 ** 4, zeta_normalization).solve(1.0)
        assert err.value.g_lo > 1.0
        assert err.value.target == 1.0

    def test_ambiguous_roots_listed(self):
        def wiggly(theta):
            return 1.0 + 0.9 * np.sin(20.0 * np.pi * np.asarray(theta))

        with pytest.raises(AmbiguousRootError) as err:
            ImplicitSolver("r", 10 ** 4, wiggly).solve(50.0)
        assert len(err.value.roots) >= 2
        assert err.value.roots == sorted(err.value.roots)
        assert err.value.target == 50.0

    def test_validation(self):
        with pytest.raises(UsageError):
            ImplicitSolver("sideways", 100, 1.0)
        with pytest.raises(DomainError):
            ImplicitSolver("r", 1, 1.0)
        with pytest.raises(InsufficientDataError):
            ImplicitSolver("r", 100, 1.0).solve(0.5)
        with pytest.raises(UsageError):
            ImplicitSolver("rk", 100, 1.0)  # k missing
        with pytest.raises(DomainError):
            ImplicitSolver("r", 100, -1.0)
        with pytest.raises(DomainError):
            ImplicitSolver("r", 100, lambda th: 0.5 - th)  # c <= 0 on part of (0, 1)

    def test_tiny_sample_robustness(self, law05):
        # n = 10: estimates either land in (0,1) or raise a typed error
        for seed in range(30):
            snap = sample_fixed(law05, 10, SeedSpec(2000, seed)).snapshot()
            for which, stat in (("r", snap.r), ("u", snap.u)):
                try:
                    result = ImplicitSolver(which, 10, zeta_normalization).solve(
                        float(stat))
                except (NoRootError, InsufficientDataError, AmbiguousRootError):
                    continue
                assert 0.0 < result.theta_hat < 1.0


def test_table_solver_only_for_implicit_tags():
    for spec in ESTIMATORS.values():
        solver = spec.solver(10 ** 4, zeta_normalization, 2)
        if spec.solver_kind is None:
            assert solver is None
        else:
            assert (solver.which, solver.n) == (spec.solver_kind, 10 ** 4)


class TestRatioR1:
    def test_plain_ratio(self):
        snap = make_snapshot(10 ** 5, 1000, [500, 200], u=600)
        result = ratio_estimate_r1(snap)
        assert result.theta_hat == pytest.approx(0.5, rel=1e-12)
        assert result.stderr == pytest.approx(
            math.sqrt(ratio_r1_variance(0.5) / 1000.0), rel=1e-12)
        assert result.ci[0] < 0.5 < result.ci[1]

    def test_degenerate_zero(self):
        snap = make_snapshot(10 ** 5, 1000, [0, 200])
        result = ratio_estimate_r1(snap)
        assert result.theta_hat == 0.0
        assert result.degenerate

    def test_degenerate_one(self):
        snap = make_snapshot(10 ** 5, 1000, [1000])
        result = ratio_estimate_r1(snap)
        assert result.theta_hat == 1.0
        assert result.degenerate

    def test_no_data(self):
        snap = make_snapshot(100, 0, [0])
        with pytest.raises(InsufficientDataError):
            ratio_estimate_r1(snap)


class TestRatioK:
    def test_plain(self):
        snap = make_snapshot(10 ** 5, 900, [400, 100, 20], u=500)
        result = ratio_estimate_k(snap, 1)
        assert result.theta_hat == pytest.approx((400.0 - 200.0) / 400.0, rel=1e-12)
        assert result.stderr == pytest.approx(
            math.sqrt(ratio_k_variance(0.5, 1) / 400.0), rel=1e-12)

    def test_boundary_flagged_not_clamped(self):
        snap = make_snapshot(10 ** 5, 500, [0, 300, 100])
        result = ratio_estimate_k(snap, 2)
        assert result.theta_hat == pytest.approx(1.0, rel=1e-12)
        assert result.degenerate
        # stderr evaluated at the clamped plug-in 0.99
        assert result.stderr == pytest.approx(
            math.sqrt(ratio_k_variance(0.99, 2) / 300.0), rel=1e-12)

    def test_contract(self):
        snap = make_snapshot(100, 50, [10, 0, 5])
        with pytest.raises(InsufficientDataError):
            ratio_estimate_k(snap, 2)
        with pytest.raises(UsageError):
            ratio_estimate_k(snap, 8)  # k+1 beyond tracked range
        with pytest.raises(UsageError):
            ratio_estimate_k(snap, 0)

    def test_scale_consistency(self):
        base = make_snapshot(10 ** 5, 700, [300, 120, 40, 10], u=340)
        scaled = make_snapshot(3 * 10 ** 5, 2100, [900, 360, 120, 30], u=1020)
        for k in (1, 2, 3):
            a = ratio_estimate_k(base, k).theta_hat
            b = ratio_estimate_k(scaled, k).theta_hat
            assert a == pytest.approx(b, rel=1e-12)
        assert ratio_estimate_r1(base).theta_hat == pytest.approx(
            ratio_estimate_r1(scaled).theta_hat, rel=1e-12)


class TestLogRatio:
    def test_sqrt_relation(self):
        snap = make_snapshot(10 ** 4, 100, [50])
        result = log_ratio_estimate(snap)
        assert result.theta_hat == pytest.approx(0.5, rel=1e-12)
        assert result.stderr == 0.0
        assert result.ci == (result.theta_hat, result.theta_hat)
        assert "no-normality" in result.flags

    def test_full_occupancy_flagged(self):
        snap = make_snapshot(1000, 1000, [1000])
        result = log_ratio_estimate(snap)
        assert result.theta_hat == pytest.approx(1.0, rel=1e-12)
        assert result.degenerate

    def test_single_urn_flagged(self):
        snap = make_snapshot(1000, 1, [0, 0])
        result = log_ratio_estimate(snap)
        assert result.theta_hat == 0.0
        assert result.degenerate


class TestConsistencyAtScale:
    def test_all_estimators_converge(self):
        # Single samples at n = 1e6: the ln-n-rate estimators concentrate
        # within 0.05 essentially surely; the ratio estimators obey their own
        # root-R rates, so they get variance-scaled bands (5 asymptotic sd).
        reps = 200
        if WORKERS > 1:
            bounds = np.linspace(0, reps, WORKERS * 2 + 1).astype(int)
            chunks = [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
            with ProcessPoolExecutor(max_workers=WORKERS) as pool:
                results = [f.result() for f in
                           [pool.submit(_estimate_batch, lo, hi) for lo, hi in chunks]]
            rows = [row for chunk in results for row in chunk]
        else:
            rows = _estimate_batch(0, reps)
        rows = np.asarray(rows)
        n = 10 ** 6
        law = make_zipf_law(0.5)
        e_r = law.expected_statistic(n, "r")
        e_r1 = law.expected_statistic(n, "rk", k=1)
        sd_ratio_r1 = math.sqrt(ratio_r1_variance(0.5) / e_r)
        sd_ratio_k1 = math.sqrt(ratio_k_variance(0.5, 1) / e_r1)
        bands = [0.05, 0.05, 0.05,                 # implicit r/u/rk(1)
                 max(0.05, 5.0 * sd_ratio_r1),     # ratio-r1
                 max(0.05, 5.0 * sd_ratio_k1),     # ratio-k(1)
                 0.05]                             # log-ratio
        failures = (np.abs(rows - 0.5) > np.asarray(bands)).sum(axis=0)
        assert failures.sum() <= 2, f"per-estimator failures: {failures.tolist()}"


def _estimate_batch(rep_lo, rep_hi):
    law = make_zipf_law(0.5)
    n = 10 ** 6
    solver_r = ImplicitSolver("r", n, zeta_normalization)
    solver_u = ImplicitSolver("u", n, zeta_normalization)
    solver_k = ImplicitSolver("rk", n, zeta_normalization, k=1)
    rows = []
    for rep in range(rep_lo, rep_hi):
        snap = sample_fixed(law, n, SeedSpec(909, rep)).snapshot()
        rows.append([
            solver_r.solve(float(snap.r)).theta_hat,
            solver_u.solve(float(snap.u)).theta_hat,
            solver_k.solve(float(snap.exact_count(1))).theta_hat,
            ratio_estimate_r1(snap).theta_hat,
            ratio_estimate_k(snap, 1).theta_hat,
            log_ratio_estimate(snap).theta_hat,
        ])
    return rows


class TestNormalQuantile:
    def test_level_090_half_width(self):
        snap = make_snapshot(10 ** 5, 1000, [500])
        result = ratio_estimate_r1(snap, level=0.9)
        half = (result.ci[1] - result.ci[0]) / 2.0
        assert half == pytest.approx(st.norm.ppf(0.95) * result.stderr, rel=1e-12)

    def test_hardcoded_95(self):
        snap = make_snapshot(10 ** 5, 1000, [500])
        result = ratio_estimate_r1(snap, level=0.95)
        half = (result.ci[1] - result.ci[0]) / 2.0
        assert half == pytest.approx(1.959963985 * result.stderr, rel=1e-12)

    def test_domain(self):
        snap = make_snapshot(10 ** 5, 1000, [500])
        for level in (0.0, 1.0):
            with pytest.raises(DomainError):
                ratio_estimate_r1(snap, level=level)
