import math
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
import scipy.stats as st
from scipy.optimize import brentq
from hypothesis import given, settings
from hypothesis import strategies as hst

from zipfest import estimators
from zipfest.asymptotics import ratio_k_variance, ratio_r1_variance
from zipfest.errors import DomainError, UsageError
from zipfest.estimators import (ESTIMATORS, ImplicitSolver, _roots_joined, confidence_bounds,
                                estimate_many, estimate_rows, expand_estimators,
                                log_ratio_estimate, ratio_estimate_k, ratio_estimate_r1,
                                snapshot_k_max)
from zipfest.law import make_zipf_law, zeta_normalization
from zipfest.occupancy import OccupancyCounts, StatisticsSnapshot
from zipfest.sampler import SeedSpec, sample_fixed, sample_trajectories

from conftest import WORKERS


def make_snapshot(total, r, r_k, u=0, k_max=8):
    r_k = tuple(r_k) + (0,) * (k_max - len(r_k))
    return StatisticsSnapshot(total=total, r=r, r_k=r_k, u=u)


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
        # a constant c may return one number for an array of theta
        result = ImplicitSolver("r", 10 ** 4, lambda th: 1.0).solve(200.0)
        check = ImplicitSolver("r", 10 ** 4, lambda th: np.ones(np.shape(th))).solve(200.0)
        assert (result.theta_hat, result.stderr) == (check.theta_hat, check.stderr)

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

    def test_no_root_is_a_flagged_nan_row(self):
        # g at the bottom of the grid already exceeds 1, so 1 has no root
        solver = ImplicitSolver("r", 10 ** 4, zeta_normalization)
        assert solver.growth(solver.THETA_LO) > 1.0
        result = solver.solve(1.0)
        assert all(math.isnan(v) for v in (result.theta_hat, result.stderr, *result.ci))
        assert result.flags == ("no-root",)
        assert result.diagnostics == {"iterations": 0, "stat_value": 1.0}

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
        assert scan(solver)[1].max() == pytest.approx(54.13, abs=0.01)
        result = solver.solve(60.0)
        assert math.isnan(result.theta_hat) and result.flags == ("no-root",)
        assert result.diagnostics["iterations"] == 0

    def test_validation(self):
        def one(theta):
            return 1.0

        with pytest.raises(UsageError):
            ImplicitSolver("sideways", 100, one)
        with pytest.raises(DomainError):
            ImplicitSolver("r", 1, one)
        for stat in (0.5, math.nan):  # a value without a root, not an error
            result = ImplicitSolver("r", 100, one).solve(stat)
            assert math.isnan(result.theta_hat) and result.flags == ("insufficient-data",)
        with pytest.raises(UsageError):
            ImplicitSolver("rk", 100, one)  # k missing
        for c in (0.3, None):  # c(theta) is a function, never a number
            with pytest.raises(UsageError):
                ImplicitSolver("r", 100, c)
        for c in (-1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                ImplicitSolver("r", 100, lambda th, c=c: c)
        with pytest.raises(DomainError):
            ImplicitSolver("r", 100, lambda th: 0.5 - th)  # c <= 0 on part of (0, 1)

    def test_tiny_sample_robustness(self, law05):
        # n = 10: estimates either land in (0,1) or are NaN with the reason
        for seed in range(30):
            snap = sample_fixed(law05, 10, SeedSpec(2000, seed)).snapshot()
            for which, stat in (("r", snap.r), ("u", snap.u)):
                result = ImplicitSolver(which, 10, zeta_normalization).solve(float(stat))
                if math.isnan(result.theta_hat):
                    assert result.flags == ("no-root" if stat >= 1 else "insufficient-data",)
                else:
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


def _stat_columns(stats):
    """A snapshot of n = 2000 in its array form whose every statistic (R, U
    and R_1, R_2) reads ``stats``."""
    stats = np.asarray(stats, dtype=float)
    return StatisticsSnapshot(total=2000, r=stats, r_k=np.repeat(stats[None, :], 2, axis=0),
                              u=stats)


def _batch(solver, stats):
    """theta_hat and stderr of ``stats`` in the ``estimate_many`` batch of
    the row of ``solver``, a solver for n = 2000, and of its c(theta)."""
    tag = f"implicit-{solver.which}"
    return estimate_many(_stat_columns(stats), [(tag, tag, solver.k)], solver._c_of_theta)[0]


def _assert_batch_matches_solve(solver, stats):
    """Each value of one batch equals solve() of it, bit for bit, and is NaN
    where solve() is, with the flag of its reason; returns solve()'s flags."""
    flags = set()
    for stat, theta, stderr in zip(stats, *(v.tolist() for v in _batch(solver, stats))):
        result = solver.solve(stat)
        assert (math.isnan(theta), math.isnan(stderr)) == (math.isnan(result.theta_hat),) * 2
        if math.isnan(theta):
            assert result.flags == ("no-root" if stat >= 1.0 else "insufficient-data",), stat
        else:
            assert (theta, stderr) == (result.theta_hat, result.stderr), stat
        flags.add(result.flags)
    return flags


def _scalar_bisect(solver, lo, hi, target):
    """The bisection of one bracket with the scalar ``growth``: the rule the
    batched bisection follows (width 1e-10, at most 80 steps, lo moves where
    g < s, exact hits)."""
    steps = 0
    while hi - lo > 1e-10 and steps < 80:
        mid = 0.5 * (lo + hi)
        f_mid = solver.growth(mid) - target
        if f_mid == 0.0:
            return mid, steps
        lo, hi = (mid, hi) if f_mid < 0.0 else (lo, mid)
        steps += 1
    return 0.5 * (lo + hi), steps


class TestSolveMany:
    """Many values in one batch (``estimate_many``) against ``solve()`` of
    each, and ``solve()`` against the scalar bisection where it halves, and
    brentq where it certifies (``_assert_root_contract``)."""

    @pytest.mark.parametrize("which, k", SOLVE_MANY_KINDS)
    def test_matches_scalar_bisection(self, which, k):
        solver = _solver(which, k)
        for stat in (1.5, 2.0, 7.0, 30.0, 137.0, 800.0, 1999.0):
            result = solver.solve(stat)
            if result.flags == ("no-root",):
                continue
            j = int(np.searchsorted(solver._grid, result.diagnostics["bracket"][0]))
            _assert_root_contract(solver, stat, result.theta_hat,
                                  result.diagnostics["iterations"], j)

    @pytest.mark.parametrize("which, k", SOLVE_MANY_KINDS)
    def test_every_outcome_matches_solve(self, which, k):
        stats = [0.0, 0.5, float("nan"), 1.0, 2.0, 3.0, 10.0, 40.0, 54.0, 60.0,
                 137.0, 1999.0, 2000.2, 2500.0, 1e6, 10.0, 3.0]
        assert _assert_batch_matches_solve(_solver(which, k), stats) == {
            (), ("no-root",), ("insufficient-data",)}

    @pytest.mark.parametrize("which, k", SOLVE_MANY_KINDS)
    @settings(max_examples=15, deadline=None)
    @given(stats=hst.lists(hst.one_of(hst.floats(-2.0, 3000.0),
                                      hst.integers(0, 3000).map(float),
                                      hst.just(float("nan"))),
                           min_size=1, max_size=6))
    def test_equals_solve_bit_for_bit(self, which, k, stats):
        _assert_batch_matches_solve(_solver(which, k), stats)

    def test_solve_keeps_its_diagnostics(self):
        solver = _solver("r", None)
        result = solver.solve(137.0)
        lo, hi = result.diagnostics["bracket"]
        assert lo < result.theta_hat < hi
        assert hi - lo == pytest.approx(solver._grid[1] - solver._grid[0])
        assert result.diagnostics["iterations"] == 0  # certified
        # no root in the grid's top interval is certified, and 1/2000 halves
        # below the 1e-10 tolerance after 23 steps
        assert solver.solve(0.5 * (solver._g[-2] + solver._g[-1])).diagnostics["iterations"] == 23
        assert solver.solve(0.5).diagnostics == {"iterations": 0, "stat_value": 0.5}

    def test_empty_and_constant_c(self):
        theta_hat, stderr = _batch(_solver("u", None), [])
        assert theta_hat.size == stderr.size == 0
        solver = ImplicitSolver("r", 2000, lambda theta: 0.3)
        assert _batch(solver, [50.0, 200.0])[0].tolist() == [solver.solve(50.0).theta_hat,
                                                             solver.solve(200.0).theta_hat]


# a certified root lies within CERTIFY_EPS of where its own g meets s; where
# g's rounding blurs its side of s over more theta (near theta = 1, at the
# peak of g_rk, n below 10) brentq's root of the scalar g can lie further off,
# at most 4.3e-13 on the inputs of test_roots_match_plain_halving (u, n = 2)
BRENTQ_GAP = 5e-13


def _assert_root_contract(solver, stat, root, steps, j):
    """The root of ``stat`` in grid interval j: with halving steps it equals
    the scalar bisection of that interval bit for bit; with none it was
    certified (:func:`_assert_certified`) and lies within BRENTQ_GAP of a
    brentq root of the scalar g."""
    grid = solver._grid
    if steps:
        assert (root, steps) == _scalar_bisect(solver, float(grid[j]), float(grid[j + 1]),
                                               stat), stat
        return
    _assert_certified(solver, np.array([stat]), np.array([j]), np.array([root]))
    ref = brentq(lambda theta: solver.growth(theta) - stat, grid[j - 1], grid[j + 2], xtol=1e-15)
    assert abs(root - ref) <= BRENTQ_GAP, (stat, root, ref)


def _assert_certified(solver, stats, interval, roots):
    """Each root x of ``stats[i]`` lies in its grid interval ``interval[i]``,
    g rises on that interval and both its neighbours, and g(x - CERTIFY_EPS)
    < s < g(x + CERTIFY_EPS): its certificate, checked with g at once."""
    grid, g, eps = solver._grid, solver._g, solver.CERTIFY_EPS
    assert np.all((interval >= 1) & (interval <= grid.size - 3)), interval
    assert np.all((grid[interval] <= roots) & (roots <= grid[interval + 1]))
    assert np.all(np.diff(g[interval[:, None] + np.arange(-1, 3)], axis=1) > 0.0)
    assert np.all(solver._g_array(roots - eps) < stats), stats
    assert np.all(stats < solver._g_array(roots + eps)), stats


def _plain_halving(solver, interval, target):
    """:func:`_scalar_bisect` of each ``target[i]`` in grid interval
    ``interval[i]``, with g evaluated at all their midpoints at once."""
    lo, hi = solver._grid[interval], solver._grid[interval + 1]
    roots, steps = np.full(target.size, np.nan), np.zeros(target.size, dtype=int)
    while (live := np.flatnonzero(np.isnan(roots) & (hi - lo > 1e-10))).size:
        mid = 0.5 * (lo[live] + hi[live])
        f_mid = solver._g_array(mid) - target[live]
        roots[live[f_mid == 0.0]] = mid[f_mid == 0.0]
        steps[live[f_mid != 0.0]] += 1
        lo[live], hi[live] = np.where(f_mid < 0.0, mid, lo[live]), np.where(f_mid < 0.0,
                                                                            hi[live], mid)
    last = np.isnan(roots)
    roots[last] = 0.5 * (lo[last] + hi[last])
    return roots, steps


def _assert_roots_keep_the_contract(solver, stats):
    """The roots of one batch of ``stats``: every halved one equals plain
    halving, every certified one carries its certificate, and a sample keeps
    :func:`_assert_root_contract`: the 20 certified roots where g is
    flattest for its s, where brentq's root is hardest to meet, 20 other
    certified ones and 10 halved ones.  Returns the share certified."""
    (owner, interval, roots, steps), = _roots_joined([solver], [stats])
    values, halved = stats[owner], steps > 0
    plain_roots, plain_steps = _plain_halving(solver, interval[halved], values[halved])
    assert np.array_equal(roots[halved], plain_roots) and np.array_equal(steps[halved],
                                                                          plain_steps)
    certified = np.flatnonzero(~halved)
    _assert_certified(solver, values[certified], interval[certified], roots[certified])
    g, j = solver._g, interval[certified]
    flat = values[certified] / np.diff(g[j[:, None] + np.arange(-1, 3)], axis=1).min(axis=1)
    rng = np.random.default_rng(stats.size)
    order = certified[np.argsort(flat)[::-1]]
    sample = np.concatenate([order[:20], rng.permutation(order[20:])[:20],
                             rng.permutation(np.flatnonzero(halved))[:10]])
    for i in sample.tolist():
        _assert_root_contract(solver, values[i], roots[i], steps[i], interval[i])
    return certified.size / max(1, steps.size)


class TestReplayedHalving:
    """The roots of one batch: a root that takes halving steps is plain
    halving's, the scalar bisection's bit for bit, and a certified one,
    which takes none, lies within CERTIFY_EPS of where its g meets s and
    within BRENTQ_GAP of a brentq root (``_assert_roots_keep_the_contract``)."""

    @pytest.mark.parametrize("n", [2000, 2 * 10 ** 6, 2, 3, 10, 10 ** 10])
    @pytest.mark.parametrize("which, k", [("r", None), ("u", None), ("rk", 1),
                                          ("rk", 2), ("rk", 8)])
    def test_roots_match_plain_halving(self, which, k, n):
        # every grid value of g is a bracket end, the hardest place to certify,
        # and g is flattest just below its peak
        solver = ImplicitSolver(which, n, zeta_normalization, k=k)
        g = solver._g[solver._g >= 1.0]
        if not g.size:  # g_rk(k) stays below 1 for k >= 2 at n <= 10: no root
            assert k >= 2 and n <= 10
            assert _roots_joined([solver], [np.array([1.0, 2.0])])[0][0].size == 0
            return
        rng = np.random.default_rng(n + (k or 0))
        stats = np.concatenate([g, np.nextafter(g, 0.0), np.nextafter(g, np.inf),
                                np.exp(rng.uniform(0.0, math.log(g.max()), 1000)),
                                g.max() * (1.0 - rng.uniform(0.0, 1e-3, 1000))])
        assert _assert_roots_keep_the_contract(solver, stats) > 0.5

    def test_peak_of_g_is_never_replayed(self):
        # the grid value at the peak of g_rk(8) brackets its root at the end
        # of an interval whose right neighbour falls, where g is too flat to
        # certify x; it is bisected instead
        solver = ImplicitSolver("rk", 2 * 10 ** 6, zeta_normalization, k=8)
        peak = int(np.argmax(solver._g))
        assert peak == 1831
        (owner, interval, roots, steps), = _roots_joined([solver], [solver._g[peak:peak + 1]])
        assert steps[0] > 0
        _assert_roots_keep_the_contract(solver, solver._g[peak:peak + 1])

    def test_only_redone_brackets_evaluate_a_midpoint(self):
        # a certified root takes two rounds of g (locate, certify) and no
        # more; the grid's end intervals are never certified, so g is
        # evaluated at each of their 23 midpoints, as the scalar bisection is
        solver = ImplicitSolver("r", 2000, zeta_normalization)
        grid, g, g_array = solver._grid, solver._g, solver._g_array
        ends = np.array([0.5 * (g[0] + g[1]), 0.5 * (g[-2] + g[-1])])
        certified = np.exp(np.random.default_rng(1).uniform(1.0, 7.0, 60))
        evaluated = []
        solver._g_array = lambda theta, *terms: (evaluated.append(theta.copy())
                                                 or g_array(theta, *terms))
        (_, _, roots, steps), = _roots_joined([solver], [certified])
        assert [x.size for x in evaluated] == [60, 120] and not steps.any()
        evaluated.clear()
        (owner, interval, roots, steps), = _roots_joined([solver], [np.concatenate([certified,
                                                                                    ends])])
        assert [x.size for x in evaluated] == [62, 124] + [2] * 23
        assert steps.tolist() == [0] * 60 + [23, 23]
        solver._g_array = g_array
        for end, j, root in zip(ends, interval[60:], roots[60:].tolist()):
            assert _scalar_bisect(solver, float(grid[j]), float(grid[j + 1]), end) == (root, 23)

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
        (owner, interval, roots, steps), = _roots_joined([solver], [stats])
        assert calls[0] <= 2 and not steps.any()
        grid = solver._grid
        # every root within CERTIFY_EPS of brentq's, give or take brentq's own tolerance
        for i, j, root in zip(owner, interval, roots.tolist()):
            ref = brentq(lambda theta: solver.growth(theta) - stats[i], grid[j - 1], grid[j + 2],
                         xtol=1e-15)
            assert abs(root - ref) <= solver.CERTIFY_EPS + 2e-15, (stats[i], root, ref)
        for stat in stats[:20].tolist():
            calls[0] = 0
            assert solver.solve(stat).diagnostics["iterations"] == 0
            assert calls[0] == 2


JOINED_KINDS = [("r", None), ("u", None), ("rk", 1), ("rk", 2), ("rk", 3)]


def _theta_hat(solvers, stats):
    """theta_hat of each ``stats[i]`` of ``solvers[i]`` in one batch, NaN
    where there is no root."""
    out = [np.full(values.size, np.nan) for values in stats]
    for theta_hat, (owner, _, roots, _) in zip(out, _roots_joined(solvers, stats)):
        theta_hat[owner] = roots
    return out


def _joined_rows(solver):
    """Statistics of every kind for one solver: below 1, NaN, above the peak
    of g, values at both grid ends (a root in an end interval is never
    certified, so every midpoint is evaluated), exact grid values of g, and
    values in between."""
    g = solver._g
    on_grid = g[g >= 1.0][::97]
    ends = [g[0], 0.5 * (g[0] + g[1]), 0.5 * (g[-2] + g[-1]), g[-1]]
    return np.concatenate([[0.5, np.nan, g.max(), 1.01 * g.max(), 1.0], ends,
                           on_grid, [1.5, 7.0, 30.0, 40.0, 137.0, 1999.0]])


class TestJoinedBatch:
    def jobs(self):
        solvers = [_solver(which, k) for which, k in JOINED_KINDS] + [_solver("u", None)]
        return solvers, [_joined_rows(s) for s in solvers[:-1]] + [np.array([])]

    def test_every_entry_equals_scalar_bisection(self):
        solvers, stats = self.jobs()
        joined = _roots_joined(solvers, stats)
        for solver, values, (owner, interval, roots, steps) in zip(solvers, stats, joined):
            for mine, alone in zip((owner, interval, roots, steps),
                                   _roots_joined([solver], [values])[0]):
                assert np.array_equal(mine, alone)
            for i, j, root, step in zip(owner, interval, roots.tolist(), steps.tolist()):
                _assert_root_contract(solver, values[i], root, step, j)
                (_, _, one, _), = _roots_joined([solver], [values[i:i + 1]])
                assert one.tolist() == [root]  # the same alone as in any batch
        assert sum(roots.size for _, _, roots, _ in joined) > 50

    def test_equals_one_solver_batches_and_any_split(self):
        solvers, stats = self.jobs()
        joined = _theta_hat(solvers, stats)
        # each solver's rows cut at its own point, as worker chunks cut a study
        halves = [_theta_hat(solvers, [values[:2 * i] for i, values in enumerate(stats)]),
                  _theta_hat(solvers, [values[2 * i:] for i, values in enumerate(stats)])]
        for i, (solver, values) in enumerate(zip(solvers, stats)):
            theta_hat, = _theta_hat([solver], [values])
            assert np.array_equal(joined[i], theta_hat, equal_nan=True)
            assert np.array_equal(np.concatenate([halves[0][i], halves[1][i]]), theta_hat,
                                  equal_nan=True)
            if values.size:  # values below 1, values >= 1 without a root, and roots
                no_root = np.isnan(theta_hat) & (values >= 1.0)
                assert no_root.any() and 0 < np.isnan(theta_hat).sum() < values.size

    def test_c_is_evaluated_once_per_round(self):
        # a study batch of five solvers takes the rounds of about one solver,
        # each with one evaluation of c(theta) and at most one of each solver's g
        log = []

        def c_of_theta(theta):
            log.append("c")
            return zeta_normalization(theta)

        solvers = [ImplicitSolver(which, 10 ** 5, c_of_theta, k=k) for which, k in JOINED_KINDS]
        for solver in solvers:
            g_array = solver._g_array
            solver._g_array = lambda *args, solver=solver, g_array=g_array: (
                log.append(solver) or g_array(*args))
        columns, = sample_trajectories(make_zipf_law(0.5), 10 ** 5, (1.0,), 0, range(200))
        stats = [np.asarray(ESTIMATORS[f"implicit-{which}"].statistic(columns, k), dtype=float)
                 for which, k in JOINED_KINDS]
        log.clear()
        _roots_joined(solvers, stats)
        starts = [i for i, entry in enumerate(log) if entry == "c"]
        assert starts[0] == 0 and len(starts) <= 2, len(starts)
        for a, b in zip(starts, starts[1:] + [len(log)]):
            in_round = log[a + 1:b]
            assert in_round and len(set(map(id, in_round))) == len(in_round)


def test_table_solver_only_for_implicit_tags():
    # estimate_many builds a solver for the rows of implicit tags, from n = 2
    for spec in ESTIMATORS.values():
        assert spec.solved(10 ** 4) == spec.solved(2) == (spec.solver_kind is not None)
        assert not spec.solved(1)


# snapshots of n = 2000 balls where some estimate is NaN or lies on or beyond
# an end of [0, 1]
EDGE_SNAPSHOTS = [
    make_snapshot(2000, 0, []),                   # R = 0
    make_snapshot(2000, 5, [0, 0, 0, 5], u=5),    # R_1 = R_2 = R_3 = 0; ratio-r1 reads 0
    make_snapshot(2000, 1, []),                   # one urn; log-ratio reads 0
    make_snapshot(2000, 2000, [2000], u=2000),    # all singletons; ratio-r1 and log-ratio read 1
    make_snapshot(2000, 16, [1, 5, 10], u=1),     # ratio-k(1), ratio-k(2) below 0, ratio-k(3) above 1
    make_snapshot(2000, 9, [3, 3, 3], u=6),       # ratio-k(3) reads 3
]


def _columns(snaps):
    """The array form of one-sample snapshots of one total."""
    return StatisticsSnapshot(total=snaps[0].total, r=np.array([s.r for s in snaps]),
                              r_k=np.array([s.r_k for s in snaps]).T,
                              u=np.array([s.u for s in snaps]))


@pytest.mark.parametrize("snap", EDGE_SNAPSHOTS)
def test_one_sample_and_array_forms_round_trip(snap):
    one = StatisticsSnapshot.of(snap)
    assert (one.r.shape, one.r_k.shape, one.u.shape) == ((1,), (len(snap.r_k), 1), (1,))
    assert one.sample(0) == snap
    assert type(one.sample(0).r_k) is tuple
    for k in range(1, len(snap.r_k) + 1):
        assert one.exact_count(k).tolist() == [snap.exact_count(k)]
    assert [v.tolist() for v in one.r_star_k] == [[v] for v in snap.r_star_k]
    many = _columns(EDGE_SNAPSHOTS)
    assert [many.sample(i) for i in range(len(EDGE_SNAPSHOTS))] == EDGE_SNAPSHOTS


@pytest.mark.parametrize("theta", [0.3, 0.5, 0.9])
def test_one_snapshot_estimate_is_its_row_of_estimate_many(theta):
    # every tag of the table, at both levels: theta_hat, stderr and interval
    # bit for bit, and where the row is NaN, the one flag that says why
    requested = expand_estimators(list(ESTIMATORS), [1, 2, 3])
    drawn, = sample_trajectories(make_zipf_law(theta), 2000, (1.0,), 31, range(100),
                                 k_max=snapshot_k_max(requested, 2000))
    snaps = [drawn.sample(i) for i in range(drawn.r.size)] + EDGE_SNAPSHOTS
    rows = estimate_many(_columns(snaps), requested, zeta_normalization)
    for i, snap in enumerate(snaps):
        level = (0.95, 0.9)[i % 2]
        for (name, tag, k), result, (theta_hat, stderr) in zip(
                requested, estimate_rows(snap, requested, level, zeta_normalization), rows):
            spec = ESTIMATORS[tag]
            if np.isnan(theta_hat[i]):
                no_root = spec.solver_kind is not None and spec.statistic(snap, k) >= 1
                assert result.flags == ("no-root" if no_root else "insufficient-data",)
                assert all(math.isnan(v) for v in (result.theta_hat, result.stderr, *result.ci))
                continue
            ci = (theta_hat[i], theta_hat[i])
            if stderr[i] > 0.0:
                ci = confidence_bounds(theta_hat[i], stderr[i], level)
            flags = (() if spec.target else ("no-normality",)) + (
                () if 0.0 < theta_hat[i] < 1.0 else ("degenerate",))
            assert (result.estimator_id, result.theta_hat, result.stderr, result.ci,
                    result.flags) == (name, theta_hat[i], stderr[i], ci, flags), (name, i)


class TestDistinctValues:
    """``estimate_many`` solves each distinct value of a row's statistic
    once and gives every sample that repeats it the same estimate."""

    REQUESTED = expand_estimators(["implicit-r", "implicit-u", "implicit-rk"], [1, 2])

    def chunk(self):
        # n = 2000: values below 1, NaN, rk(2) values above the peak of g
        # (about 54.13), roots in the lowest and highest grid intervals, and
        # most of them repeated
        rng = np.random.default_rng(26)
        pool = [0.0, 0.5, np.nan, 1.0, 2.0, 7.0, 40.0, 54.0, 60.0, 137.0, 1999.0, 2500.0]
        r, u, r_1, r_2 = (rng.choice(pool, 60) for _ in range(4))
        r_k = np.stack([r_1, r_2, np.zeros(60)])
        return StatisticsSnapshot(total=2000, r=r, r_k=r_k, u=u)

    def test_equals_each_one_entry_estimate(self):
        columns = self.chunk()
        rows = estimate_many(columns, self.REQUESTED, zeta_normalization)
        for i in range(columns.r.size):
            snap = StatisticsSnapshot(total=2000, r=float(columns.r[i]),
                                      r_k=tuple(columns.r_k[:, i].tolist()),
                                      u=float(columns.u[i]))
            one = estimate_many(StatisticsSnapshot.of(snap), self.REQUESTED, zeta_normalization)
            results = estimate_rows(snap, self.REQUESTED, 0.95, zeta_normalization)
            for (theta_hat, stderr), mine, result in zip(rows, one, results):
                assert np.array_equal(theta_hat[i:i + 1], mine[0], equal_nan=True)
                assert np.array_equal(stderr[i:i + 1], mine[1], equal_nan=True)
                assert np.array_equal([theta_hat[i], stderr[i]],
                                      [result.theta_hat, result.stderr], equal_nan=True)
        for theta_hat, _ in rows:  # NaN entries and values in every row
            assert np.isnan(theta_hat).any() and (~np.isnan(theta_hat)).sum() > 10
        assert np.isnan(rows[3][0][columns.r_k[1] == 60.0]).all()  # rk(2) above its peak

    def test_each_distinct_value_is_solved_once(self, monkeypatch):
        columns = self.chunk()
        seen = []

        def recorded(solvers, stats):
            seen.append(stats)
            return _roots_joined(solvers, stats)

        monkeypatch.setattr(estimators, "_roots_joined", recorded)
        estimate_many(columns, self.REQUESTED, zeta_normalization)
        stats, = seen
        for (_, tag, k), values in zip(self.REQUESTED, stats):
            column = np.asarray(ESTIMATORS[tag].statistic(columns, k), dtype=float)
            assert np.isnan(values).sum() == 1
            finite = values[~np.isnan(values)]
            assert np.array_equal(np.sort(finite), np.unique(column[~np.isnan(column)]))

    def test_any_split_of_the_chunk(self):
        # worker chunks hold different sets of distinct values
        columns = self.chunk()
        whole = estimate_many(columns, self.REQUESTED, zeta_normalization)
        halves = [estimate_many(StatisticsSnapshot(total=2000, r=columns.r[part],
                                                   r_k=columns.r_k[:, part], u=columns.u[part]),
                                self.REQUESTED, zeta_normalization)
                  for part in (slice(0, 23), slice(23, None))]
        for i, (theta_hat, stderr) in enumerate(whole):
            for got, want in ((np.concatenate([h[i][0] for h in halves]), theta_hat),
                              (np.concatenate([h[i][1] for h in halves]), stderr)):
                assert np.array_equal(got, want, equal_nan=True)


def test_below_two_balls_no_solver_is_built():
    # n = 1: every implicit row and log-ratio are NaN; ratio-r1 and ratio-k
    # keep their values; no solver is built, so none needs a c(theta)
    requested = expand_estimators(list(ESTIMATORS), [1])
    results = estimate_rows(make_snapshot(1, 1, [1], u=1), requested, 0.95)
    assert {r.estimator_id: r.flags for r in results} == {
        "implicit-r": ("insufficient-data",), "implicit-u": ("insufficient-data",),
        "implicit-rk(1)": ("insufficient-data",), "ratio-r1": ("degenerate",),
        "ratio-k(1)": ("degenerate",), "log-ratio": ("insufficient-data",)}
    with pytest.raises(DomainError):  # a total that is not an integer still raises
        log_ratio_estimate(make_snapshot(2.5, 1, [1]))


@settings(max_examples=60, deadline=None)
@given(counts=hst.lists(hst.integers(1, 6), min_size=1, max_size=400),
       level=hst.sampled_from([0.5, 0.9, 0.95, 0.999]))
def test_every_interval_lies_in_the_unit_interval(counts, level):
    # of every tag, degenerate estimates too: 0 <= ci_lo <= ci_hi <= 1
    total = sum(counts)
    snap = OccupancyCounts(dict(enumerate(counts)), total).snapshot(k_max=4)
    requested = expand_estimators(list(ESTIMATORS), [1, 2, 3])
    for result in estimate_rows(snap, requested, level, zeta_normalization):
        if math.isnan(result.theta_hat):
            assert result.flags in (("no-root",), ("insufficient-data",))
        else:
            assert 0.0 <= result.ci[0] <= result.ci[1] <= 1.0, result


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
        result = ratio_estimate_r1(make_snapshot(100, 0, [0]))
        assert math.isnan(result.theta_hat) and result.flags == ("insufficient-data",)


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
        result = ratio_estimate_k(snap, 2)
        assert math.isnan(result.theta_hat) and result.flags == ("insufficient-data",)
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

    def test_domain_where_the_interval_is_the_point(self):
        # log-ratio has no standard error, and ratio-r1 has none at 0 and 1
        inner = make_snapshot(10 ** 5, 1000, [500])
        at_zero = make_snapshot(2000, 5, [0, 0, 0, 5], u=5)
        at_one = make_snapshot(2000, 2000, [2000], u=2000)
        assert ratio_estimate_r1(at_zero).stderr == ratio_estimate_r1(at_one).stderr == 0.0
        for level in (1.5, 0.0):
            with pytest.raises(DomainError):
                log_ratio_estimate(inner, level=level)
            for snap in (at_zero, at_one):
                with pytest.raises(DomainError):
                    ratio_estimate_r1(snap, level=level)
