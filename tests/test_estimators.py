import math
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
import scipy.stats as st
from hypothesis import given, settings
from hypothesis import strategies as hst

from zipfest.asymptotics import ratio_k_variance, ratio_r1_variance
from zipfest.errors import (DomainError, InsufficientDataError, NoRootError,
                            UsageError)
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


def scan(solver):
    """The solver's theta grid and g on it, from the scalar growth curve."""
    grid = np.linspace(solver.THETA_LO, solver.THETA_HI, solver.GRID_POINTS)
    return grid, np.array([solver.growth(float(theta)) for theta in grid])


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

    def test_second_solver_reuses_the_normalization_table(self):
        grid_calls = []

        def c_of_theta(theta):
            grid_calls.append(np.size(theta) == ImplicitSolver.GRID_POINTS)
            return zeta_normalization(theta)

        solvers = [ImplicitSolver("r", 10 ** 4, c_of_theta),
                   ImplicitSolver("rk", 2000, c_of_theta, k=2)]
        assert sum(grid_calls) == 1
        for solver in solvers:  # g as computed from a fresh table, bit for bit
            assert np.array_equal(solver._g, solver._g_array(solver._grid))

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
        # g crosses each statistic several times; the root lies in the lowest
        # grid interval where g rises, as scanned here with the scalar growth
        # curve.  At n = 2, g starts just above 1 and falls through it first.
        def wiggly(theta):
            return 1.0 + 0.9 * np.sin(20.0 * np.pi * np.asarray(theta))

        for n, stat in ((10 ** 4, 50.0), (2, 1.0)):
            solver = ImplicitSolver("r", n, wiggly)
            grid, g = scan(solver)
            rising = np.flatnonzero((g[:-1] < stat) & (g[1:] >= stat))
            falling = np.flatnonzero((g[:-1] >= stat) & (g[1:] < stat))
            assert rising.size >= 2 and falling.size >= 1
            result = solver.solve(stat)
            j = rising[0]
            assert result.diagnostics["bracket"] == (grid[j], grid[j + 1])
            assert solver.growth(result.theta_hat) == pytest.approx(stat, rel=1e-8)
            assert result.flags == ()
        assert falling[0] < rising[0]

    def test_rk2_takes_the_root_on_the_rising_branch(self):
        # g_rk(2) at n = 2000 peaks at about 54.13 near theta = 0.871 and falls
        # back to 0.1 at the top of the grid, so 40 has a second root above 0.871
        solver = ImplicitSolver("rk", 2000, zeta_normalization, k=2)
        grid, g = scan(solver)
        assert grid[np.argmax(g)] == pytest.approx(0.8714, abs=1e-3)
        assert g[-1] < 40.0 < g.max()
        result = solver.solve(40.0)
        assert result.theta_hat == pytest.approx(0.75626, abs=1e-5)
        assert solver.growth(result.theta_hat) == pytest.approx(40.0, rel=1e-8)
        assert result.flags == ()

    def test_rk2_above_the_peak_has_no_root(self):
        solver = ImplicitSolver("rk", 2000, zeta_normalization, k=2)
        with pytest.raises(NoRootError) as err:
            solver.solve(60.0)
        assert err.value.g_hi == pytest.approx(54.13, abs=0.01)
        assert err.value.g_hi == pytest.approx(scan(solver)[1].max(), rel=1e-12)
        assert err.value.target == 60.0

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
                except (NoRootError, InsufficientDataError):
                    continue
                assert 0.0 < result.theta_hat < 1.0


# one solver per kind at n = 2000: R and U have one root for statistics up to
# about 2000, and R_2 two roots for statistics up to its peak of about 54, of
# which the solver takes the lower one
SOLVE_MANY_KINDS = [("r", None), ("u", None), ("rk", 1), ("rk", 2)]
_SOLVERS: dict = {}


def _solver(which, k):
    if (which, k) not in _SOLVERS:
        _SOLVERS[which, k] = ImplicitSolver(which, 2000, zeta_normalization, k=k)
    return _SOLVERS[which, k]


def _solve_one(solver, stat):
    """(outcome, theta_hat) of solve(), in solve_many's terms."""
    try:
        return solver.ROOT, solver.solve(stat).theta_hat
    except NoRootError:
        return solver.NO_ROOT, None
    except InsufficientDataError:
        return solver.BELOW_ONE, None


def _assert_solve_many_matches_solve(solver, stats):
    theta_hat, outcome = solver.solve_many(np.array(stats, dtype=float))
    for stat, theta, kind in zip(stats, theta_hat.tolist(), outcome.tolist()):
        expected_kind, expected_theta = _solve_one(solver, stat)
        assert kind == expected_kind, stat
        if kind == solver.ROOT:
            assert theta == expected_theta, stat  # bit for bit
        else:
            assert math.isnan(theta), stat


def _scalar_bisect(solver, lo, hi, target):
    """The bisection of one bracket with the scalar ``growth``: the rule the
    batched bisection follows (width 1e-10, at most 80 steps, exact hits)."""
    f_lo = solver.growth(lo) - target
    steps = 0
    while hi - lo > 1e-10 and steps < 80:
        mid = 0.5 * (lo + hi)
        f_mid = solver.growth(mid) - target
        if f_mid == 0.0:
            return mid, steps
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
        steps += 1
    return 0.5 * (lo + hi), steps


class TestSolveMany:
    @pytest.mark.parametrize("which, k", SOLVE_MANY_KINDS)
    def test_matches_scalar_bisection(self, which, k):
        solver = _solver(which, k)
        for stat in (1.5, 2.0, 7.0, 30.0, 137.0, 800.0, 1999.0):
            try:
                result = solver.solve(stat)
            except NoRootError:
                continue
            root, steps = _scalar_bisect(solver, *result.diagnostics["bracket"], stat)
            assert (result.theta_hat, result.diagnostics["iterations"]) == (root, steps)

    @pytest.mark.parametrize("which, k", SOLVE_MANY_KINDS)
    def test_every_outcome_matches_solve(self, which, k):
        stats = [0.0, 0.5, float("nan"), 1.0, 2.0, 3.0, 10.0, 40.0, 54.0, 60.0,
                 137.0, 1999.0, 2000.2, 2500.0, 1e6, 10.0, 3.0]
        solver = _solver(which, k)
        _assert_solve_many_matches_solve(solver, stats)
        _, outcome = solver.solve_many(stats)
        assert set(outcome.tolist()) == {solver.BELOW_ONE, solver.NO_ROOT, solver.ROOT}

    @pytest.mark.parametrize("which, k", SOLVE_MANY_KINDS)
    @settings(max_examples=15, deadline=None)
    @given(stats=hst.lists(hst.one_of(hst.floats(-2.0, 3000.0),
                                      hst.integers(0, 3000).map(float),
                                      hst.just(float("nan"))),
                           min_size=1, max_size=6))
    def test_equals_solve_bit_for_bit(self, which, k, stats):
        _assert_solve_many_matches_solve(_solver(which, k), stats)

    def test_solve_keeps_its_diagnostics(self):
        solver = _solver("r", None)
        result = solver.solve(137.0)
        lo, hi = result.diagnostics["bracket"]
        assert lo < result.theta_hat < hi
        assert hi - lo == pytest.approx(solver._grid[1] - solver._grid[0])
        # 1/2000 halves below the 1e-10 tolerance after 23 steps
        assert result.diagnostics["iterations"] == 23

    def test_empty_and_constant_c(self):
        theta_hat, outcome = _solver("u", None).solve_many([])
        assert theta_hat.size == outcome.size == 0
        solver = ImplicitSolver("r", 10 ** 4, 0.3)
        theta_hat, outcome = solver.solve_many([50.0, 200.0])
        assert theta_hat.tolist() == [solver.solve(50.0).theta_hat,
                                      solver.solve(200.0).theta_hat]


def _plain_halving(solver, interval, target):
    """The batched bisection that evaluates g at every midpoint: the
    reference the solver's replayed halving must equal, root and step count."""
    roots = np.empty(target.size)
    steps = np.zeros(target.size, dtype=int)
    live = np.arange(target.size)
    lo, hi = solver._grid[interval], solver._grid[interval + 1]
    step = 0
    while live.size:
        done = hi - lo <= solver.BISECT_TOL
        if step == solver.BISECT_MAX_STEPS:
            done[:] = True
        if np.count_nonzero(done):
            roots[live[done]] = 0.5 * (lo[done] + hi[done])
            steps[live[done]] = step
            keep = ~done
            live, lo, hi, target = live[keep], lo[keep], hi[keep], target[keep]
            if not live.size:
                break
        mid = 0.5 * (lo + hi)
        f_mid = solver._g_array(mid) - target
        if np.count_nonzero(f_mid) < f_mid.size:
            hit = f_mid == 0.0
            roots[live[hit]] = mid[hit]
            steps[live[hit]] = step
            keep = ~hit
            live, lo, hi, target, mid, f_mid = (
                live[keep], lo[keep], hi[keep], target[keep], mid[keep], f_mid[keep])
        up = f_mid < 0.0
        lo = np.where(up, mid, lo)
        hi = np.where(up, hi, mid)
        step += 1
    return roots, steps


def _assert_roots_match_plain_halving(solver, stats):
    owner, interval, roots, steps = solver._roots(stats)
    plain_roots, plain_steps = _plain_halving(solver, interval, stats[owner])
    assert np.array_equal(roots, plain_roots)
    assert np.array_equal(steps, plain_steps)


class TestReplayedHalving:
    @pytest.mark.parametrize("n", [2000, 2 * 10 ** 6])
    @pytest.mark.parametrize("which, k", [("r", None), ("u", None), ("rk", 1),
                                          ("rk", 2), ("rk", 8)])
    def test_roots_match_plain_halving(self, which, k, n):
        # every grid value of g is a bracket end, the hardest place to certify,
        # and g is flattest just below its peak
        solver = ImplicitSolver(which, n, zeta_normalization, k=k)
        g = solver._g[solver._g >= 1.0]
        rng = np.random.default_rng(n + (k or 0))
        stats = np.concatenate([g, np.nextafter(g, 0.0), np.nextafter(g, np.inf),
                                np.exp(rng.uniform(0.0, math.log(g.max()), 1000)),
                                g.max() * (1.0 - rng.uniform(0.0, 1e-3, 1000))])
        _assert_roots_match_plain_halving(solver, stats)

    def test_peak_of_g_is_never_replayed(self):
        # the grid value at the peak of g_rk(8) brackets its root at the end
        # of an interval whose right neighbour falls; certified there, the
        # replay would take one halving too many and miss the root by 1e-6
        solver = ImplicitSolver("rk", 2 * 10 ** 6, zeta_normalization, k=8)
        peak = int(np.argmax(solver._g))
        assert peak == 1831
        _assert_roots_match_plain_halving(solver, solver._g[peak:peak + 1])

    def test_a_study_batch_takes_a_few_evaluations(self):
        law = make_zipf_law(0.5)
        stats = np.array([float(sample_fixed(law, 10 ** 5, SeedSpec(0, rep)).snapshot().r)
                          for rep in range(200)])
        solver = ImplicitSolver("r", 10 ** 5, zeta_normalization)
        calls, g_array = [0], solver._g_array

        def counted(*args):
            calls[0] += 1
            return g_array(*args)

        solver._g_array = counted
        solver.solve_many(stats)
        assert calls[0] <= 8
        for stat in stats[:20].tolist():
            calls[0] = 0
            assert solver.solve(stat).diagnostics["iterations"] == 23
            assert calls[0] <= 6


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
        assert "degenerate" in result.flags

    def test_degenerate_one(self):
        snap = make_snapshot(10 ** 5, 1000, [1000])
        result = ratio_estimate_r1(snap)
        assert result.theta_hat == 1.0
        assert "degenerate" in result.flags

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
        assert "degenerate" in result.flags
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
        assert "degenerate" in result.flags

    def test_single_urn_flagged(self):
        snap = make_snapshot(1000, 1, [0, 0])
        result = log_ratio_estimate(snap)
        assert result.theta_hat == 0.0
        assert "degenerate" in result.flags


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
