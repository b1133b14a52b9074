import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from zipfest import law as law_module
from zipfest.errors import DomainError, InputFormatError, UsageError
from zipfest.law import _hat_integral, _hat_integral_inverse, make_zipf_law
from zipfest.sampler import (OccupancyCounts, SeedSpec, read_counts_csv,
                             sample_fixed, sample_poissonized,
                             sample_trajectories, sample_trajectory,
                             write_counts_csv)
from zipfest.specfun import zeta_tail

from conftest import WORKERS


class TestDeterminism:
    def test_bit_for_bit(self, law05):
        a = sample_fixed(law05, 10 ** 4, SeedSpec(123, 4))
        b = sample_fixed(law05, 10 ** 4, SeedSpec(123, 4))
        assert a.counts == b.counts
        assert a.total == b.total == 10 ** 4

    def test_streams_differ(self, law05):
        a = sample_fixed(law05, 10 ** 4, SeedSpec(123, 0))
        b = sample_fixed(law05, 10 ** 4, SeedSpec(123, 1))
        assert a.counts != b.counts

    def test_int_seed_accepted(self, law05):
        a = sample_fixed(law05, 100, 5)
        b = sample_fixed(law05, 100, SeedSpec(5, 0))
        assert a.counts == b.counts


class TestFixed:
    def test_single_ball(self, law05):
        counts = sample_fixed(law05, 1, 0)
        assert sum(counts.counts.values()) == 1
        assert len(counts.counts) == 1

    def test_near_degenerate_law(self):
        law = make_zipf_law(0.05)  # p_1 = 1 / zeta(20), about 1 - 1e-6
        hits = sum(sample_fixed(law, 100, seed).counts.get(1, 0) == 100
                   for seed in range(50))
        assert hits >= 45  # each all-in-urn-1 event has probability ~0.9999

    @pytest.mark.parametrize("theta", [0.01, 0.018534, 0.020038])
    def test_cutoff_one_holds_every_ball(self, theta):
        # p_1 / total_mass can round above 1 here; the multinomial must not see it
        law = make_zipf_law(theta)
        assert law.cutoff == 1
        assert sample_fixed(law, 50, 1).counts == {1: 50}
        assert [s.r for s in sample_trajectory(law, 50, [0.5, 1.0], 1)] == [1, 1]

    def test_r_within_five_sd_of_oracle(self, law05):
        n = 10 ** 5
        expected = law05.expected_statistic(n, "r")
        snap = sample_fixed(law05, n, 42).snapshot()
        assert abs(snap.r - expected) <= 5.0 * math.sqrt(expected)

    def test_counts_sum_to_n(self, law05):
        counts = sample_fixed(law05, 12345, 9)
        assert sum(counts.counts.values()) == 12345

    def test_invalid_n(self, law05):
        with pytest.raises(DomainError):
            sample_fixed(law05, 0, 1)
        with pytest.raises(DomainError):
            sample_fixed(law05, 2.5, 1)

    def test_heavy_tail_support_reached(self, law07):
        # theta = 0.7 puts ~0.2% of draws beyond position 2^20
        counts = sample_fixed(law07, 10 ** 5, 11)
        head = 1 << 20
        beyond = [i for i in counts.counts if i - law07.i0 > head]
        assert beyond, "no draw beyond position 2^20"
        assert max(counts.counts) <= law07.cutoff


class _Uniforms:
    """Stand-in generator: the given uniforms first, then a seeded stream;
    ``sizes`` records how many each call asked for."""

    def __init__(self, first):
        self.first = np.asarray(first, dtype=float)
        self.rest = np.random.default_rng(0)
        self.sizes = []

    def random(self, size):
        self.sizes.append(size)
        out, self.first = self.first[:size], self.first[size:]
        return np.concatenate([out, self.rest.random(size - out.size)])


def _tail_mass(law, first):
    """Mass of support positions first..cutoff of a zeta law."""
    s = 1.0 / law.theta
    return law.c * (zeta_tail(s, first - 1) - zeta_tail(s, law.cutoff))


class TestRejectionInversion:
    @pytest.mark.parametrize("theta", [0.3, 0.9])
    def test_head_frequencies(self, theta):
        # the rejection step decides only near the tail drawer's first urn L,
        # so check urns L..L+4, with L where a draw of 1e5 balls puts it
        law = make_zipf_law(theta)
        first = law.head_width(10 ** 5) + 1
        n = 10 ** 6
        pos = law.draw_tail(first, n, SeedSpec(2024).generator())
        mass = _tail_mass(law, first)
        for i in range(first, first + 5):
            p = law.probability(i) / mass
            se = math.sqrt(p * (1.0 - p) / n)
            assert abs(np.count_nonzero(pos == i) / n - p) <= 5.0 * se, i

    def test_far_tail_share(self):
        # beyond 2^53 positions have no fraction left, and only the quick
        # acceptance test keeps the exact test's rounding from rejecting them
        law = make_zipf_law(0.9)
        s = 1.0 / law.theta
        first = law.head_width(10 ** 5) + 1
        n = 10 ** 6
        pos = law.draw_tail(first, n, SeedSpec(2025).generator())
        p = law.c * (zeta_tail(s, 2 ** 53) - zeta_tail(s, law.cutoff)) / _tail_mass(law, first)
        se = math.sqrt(p * (1.0 - p) / n)
        assert abs(np.count_nonzero(pos > 2 ** 53) / n - p) <= 5.0 * se

    def test_urns_beyond_2_53_are_python_ints(self):
        law = make_zipf_law(0.9, i0=7)
        n = 10 ** 5
        counts = sample_fixed(law, n, 5).counts
        assert sum(counts.values()) == n
        assert all(type(i) is int and i > law.i0 for i in counts)
        assert max(counts) - law.i0 > 2 ** 53

    def test_false_collision_beyond_2_53_is_rarer_than_1e_6(self):
        """Beyond 2^53 a tail position is a float, so two balls in distinct
        urns merge when they get the same value v.  Of n balls about n tau
        reach the tail drawer, tau = its share of the mass, so in one draw
        that happens with chance at most C(n, 2) tau^2 (p_far / tau) q, where
        p_far = P(K > 2^53) and q bounds the chance that a tail ball takes
        any one value.  A round maps each 53-bit uniform r (chance 2^-53) to
        u = top + r (bottom - top), monotonically, and u to a value; far out
        distinct u give distinct values, so a value takes the run of uniforms
        that round to one u: at most 1 + ulp(top) 2^53 / (top - bottom).  The
        hat area top - bottom is at least the tail's mass over c, and top lies
        below 1/(s - 1), which bounds the run (checked below at the far end,
        where values are coarsest).  A round keeps its ball with chance at
        least (3/4)^s: the first urn L owns hat area L^-s, and urn k > L at
        most (k - 1/2)^-s <= (4/3)^s k^-s.  So q <= run 2^-53 / (3/4)^s."""
        law = make_zipf_law(0.9)
        n = 10 ** 5
        s = 1.0 / law.theta
        first = law.head_width(n) + 1
        mass = _tail_mass(law, first)
        run = 1 + math.floor(math.ulp(1.0 / (s - 1.0)) * 2.0 ** 53 * law.c / mass)
        p_far = law.c * zeta_tail(s, 2 ** 53) / law.total_mass
        q = run * 2.0 ** -53 / 0.75 ** s
        assert math.comb(n, 2) * (mass / law.total_mass) * p_far * q < 1e-6
        smallest = np.arange(4000) * 2.0 ** -53
        pos = law.draw_tail(first, smallest.size, _Uniforms(smallest))
        assert pos.min() > 2 ** 53
        assert np.unique(pos, return_counts=True)[1].max() <= run

    def test_quick_bound_decides_where_the_exact_test_rounds(self):
        """The drawer maps a uniform r to u = top + r (bottom - top) on the
        hat integral H and x = H^-1(u) to urn k = round(x).  It keeps k when
        u lies in the top k^-s of k's stretch (H(k - 1/2), H(k + 1/2)], at
        once when k - x is within the quick bound, about 0.48 at theta = 0.9.
        With urn 2 first, the rest of urn 3's stretch lies beyond the bound,
        at x in (2.5, 2.509), and every ball there must be rejected.  For x
        in (3e13, 1e14) the rest of a stretch is below 1e-40 while u has ulps
        of 1e-15, so every ball must be kept; the exact test's rounding would
        reject about 5% of them, and only the bound keeps them.  (Beyond 2^53
        the exact test rejects no ball, so uniforms there cannot pin the
        bound.)"""
        law = make_zipf_law(0.9)
        s = 1.0 / law.theta
        # u as the drawer computes it for first = 2
        top = _hat_integral(math.log(law.cutoff + 0.5), s)
        bottom = _hat_integral(math.log(2.5), s) - 2.0 ** -s
        rest_of_3 = np.linspace(_hat_integral(math.log(2.5), s),
                                _hat_integral(math.log(3.5), s) - 3.0 ** -s, 102)[1:-1]
        rejected = (rest_of_3 - top) / (bottom - top)
        stub = _Uniforms(rejected)
        law.draw_tail(2, rejected.size, stub)
        assert stub.sizes[:2] == [rejected.size, rejected.size]

        far = np.linspace(_hat_integral(math.log(3e13), s), _hat_integral(math.log(1e14), s), 4000)
        r = (far - top) / (bottom - top)
        x = _hat_integral_inverse(top + r * (bottom - top), s)
        kept = r[np.floor(x + 0.5) - x <= 0.4]  # well inside the bound
        assert kept.size > 2500
        stub = _Uniforms(kept)
        law.draw_tail(2, kept.size, stub)
        assert stub.sizes == [kept.size]

    def test_cutoff_beyond_float64_is_a_domain_error(self):
        law = make_zipf_law(0.97)
        assert law.cutoff > sys.float_info.max
        with pytest.raises(DomainError):
            sample_fixed(law, 10, 1)


class _Stream(_Uniforms):
    """:class:`_Uniforms` that also draws multinomials, from its seeded
    stream."""

    def multinomial(self, n, probs):
        return self.rest.multinomial(n, probs)


def _retry_loop(law, first, size, rng):
    """The drawer that the block routine replaced: one batch's tail balls by
    rejection-inversion, redrawing only the balls still rejected."""
    s = 1.0 / law.theta
    top = _hat_integral(math.log(law.cutoff + 0.5), s)
    bottom = _hat_integral(math.log(first + 0.5), s) - float(first) ** -s
    quick = 2.0 - _hat_integral_inverse(_hat_integral(math.log(2.5), s) - 2.0 ** -s, s)

    def attempt(count):
        u = top + rng.random(count) * (bottom - top)
        x = _hat_integral_inverse(u, s)
        k = np.minimum(np.maximum(np.floor(x + 0.5), first), float(law.cutoff))
        ok = k - x <= quick
        ks = k[~ok]
        ok[~ok] = u[~ok] >= _hat_integral(np.log(ks + 0.5), s) - ks ** -s
        return k, ok

    out, ok = attempt(size)
    todo = (~ok).nonzero()[0]
    while todo.size:
        k, ok = attempt(todo.size)
        out[todo[ok]] = k[ok]
        todo = todo[~ok]
    return out


def _rejected_from_urn_2(law):
    """Uniforms that the tail drawer from urn 2 maps to the rest of urn 3's
    stretch, so it rejects every one (see the quick-bound test)."""
    s = 1.0 / law.theta
    top = _hat_integral(math.log(law.cutoff + 0.5), s)
    bottom = _hat_integral(math.log(2.5), s) - 2.0 ** -s
    rest_of_3 = np.linspace(_hat_integral(math.log(2.5), s),
                            _hat_integral(math.log(3.5), s) - 3.0 ** -s, 42)[1:-1]
    return (rest_of_3 - top) / (bottom - top)


class TestBlocks:
    @pytest.mark.parametrize("budget", [None, 97])
    @pytest.mark.parametrize("grid", [(1.0,), (0.25, 0.5, 1.0)])
    @pytest.mark.parametrize("theta", [0.01, 0.3, 0.5, 0.7, 0.9])
    def test_block_columns_match_one_draw_at_a_time(self, monkeypatch, theta, grid, budget):
        # theta = 0.01 has cutoff 1 and no tail; at 97 head counts and
        # uniforms a block holds one to a few dozen draws, and 150 is not a
        # multiple of them
        if budget is not None:
            monkeypatch.setattr(law_module, "_BLOCK_ELEMENTS", budget)
        law, m = make_zipf_law(theta), 150
        seeds = [SeedSpec(31, rep) for rep in range(m)]
        columns = sample_trajectories(law, 300, grid, seeds, k_max=3)
        assert [c.total for c in columns] == [math.floor(300 * t) for t in grid]
        for rep, seed in enumerate(seeds):
            one = sample_trajectory(law, 300, grid, seed, k_max=3)
            assert [c.snapshot(rep) for c in columns] == one, rep

    def test_no_seeds_is_a_usage_error(self, law05):
        with pytest.raises(UsageError):
            sample_trajectories(law05, 100, (1.0,), [])

    def test_runs_stay_within_their_row(self):
        # row 0 has no padding, so its last value meets row 1's first; the
        # padding of row 1 is a run of 0 balls
        rows, values, counts = law_module._runs(np.array([[5.0, 5.0], [5.0, np.inf]]))
        assert rows.tolist() == [0, 1, 1]
        assert values.tolist() == [5.0, 5.0, np.inf]
        assert counts.tolist() == [2, 1, 0]

    @pytest.mark.parametrize("grid", [(1.0,), (0.25, 0.5, 1.0)])
    def test_short_rows_top_up_from_their_own_stream(self, grid):
        # n = 12 at theta = 0.9 has head width 1, so the tail starts at urn
        # 2; the first stream rejects 40 uniforms in a row, the second none
        law = make_zipf_law(0.9)
        sizes = [math.floor(12 * t) for t in grid]
        assert law.head_width(sizes[-1]) == 1
        probs = law._head_probabilities(1)
        firsts = [_rejected_from_urn_2(law), []]
        streams = [_Stream(first) for first in firsts]
        (head, rows, positions, counts), = law.draw_prefixes(sizes, streams)
        for row, first in enumerate(firsts):
            ref = _Stream(first)
            batches = [ref.multinomial(b - a, probs) for a, b in zip([0, *sizes], sizes)]
            tails = [_retry_loop(law, 2, int(c[-1]), ref) for c in batches]
            if row == 0:
                assert len(ref.sizes) > len(tails)  # the rejections were redrawn
            if len(grid) == 1:
                assert streams[row].sizes == ref.sizes
            for j in range(len(sizes)):
                assert head[j, row].tolist() == sum(c[:1] for c in batches[:j + 1]).tolist()
                mine = rows == j * len(streams) + row
                assert (np.repeat(positions[mine], counts[mine]).tolist()
                        == np.sort(np.concatenate(tails[:j + 1])).tolist())


class TestTrajectory:
    def test_single_point_grid_matches_fixed(self, law05):
        snaps = sample_trajectory(law05, 10 ** 4, [1.0], SeedSpec(77, 0))
        single = sample_fixed(law05, 10 ** 4, SeedSpec(77, 0)).snapshot()
        assert snaps[0] == single

    def test_prefix_monotonicity(self, law05):
        snaps = sample_trajectory(law05, 10 ** 4, [0.25, 0.5, 0.75, 1.0], 5)
        rs = [s.r for s in snaps]
        assert rs == sorted(rs)
        for k in range(1, 9):
            stars = [s.at_least(k) for s in snaps]
            assert stars == sorted(stars)

    @pytest.mark.parametrize("law", ["law05", "law07"])
    def test_prefixes_are_nested(self, law, request):
        # ball m + 1 raises one urn's count by one, so from m to m' every
        # R*_k rises by at most m' - m and U moves by at most m' - m; prefixes
        # drawn apart from each other would break this at 10 balls apart
        law = request.getfixturevalue(law)
        for seed in range(20):
            early, late = sample_trajectory(law, 10 ** 4, [0.999, 1.0], seed)
            gap = late.total - early.total
            assert gap == 10
            for k in range(1, 10):
                assert 0 <= late.at_least(k) - early.at_least(k) <= gap, (seed, k)
            assert abs(late.u - early.u) <= gap, seed

    def test_grid_validation(self, law05):
        with pytest.raises(UsageError):
            sample_trajectory(law05, 100, [], 1)
        with pytest.raises(UsageError):
            sample_trajectory(law05, 100, [0.5, 0.5], 1)
        with pytest.raises(UsageError):
            sample_trajectory(law05, 100, [0.0, 1.0], 1)
        with pytest.raises(UsageError):
            sample_trajectory(law05, 100, [0.5, 1.5], 1)

    @pytest.mark.parametrize("theta", [0.3, 0.5, 0.7, 0.9])
    def test_prefix_means_match_oracle(self, theta):
        # each prefix joins one multinomial head and one tail draw per grid
        # increment; R, R_1 and R_2 of each must average to the exact oracle
        law = make_zipf_law(theta)
        n, reps, grid = 4000, 1500, (0.25, 0.5, 1.0)
        values = np.array([[(s.r, s.exact_count(1), s.exact_count(2))
                            for s in sample_trajectory(law, n, grid, SeedSpec(606, rep))]
                           for rep in range(reps)], dtype=float)
        for a, t in enumerate(grid):
            m = int(n * t)
            for j, (stat, k) in enumerate((("r", None), ("rk", 1), ("rk", 2))):
                sample = values[:, a, j]
                se = sample.std(ddof=1) / math.sqrt(reps)
                expected = law.expected_statistic(m, stat, k=k)
                assert abs(sample.mean() - expected) <= 5.0 * se, (m, stat, k)

    def test_ball_counts_match_grid(self, law05):
        snaps = sample_trajectory(law05, 1000, [0.31, 0.62, 1.0], 2)
        assert [s.total for s in snaps] == [310, 620, 1000]


class TestPoissonized:
    def test_tiny_horizon_empty(self, law05):
        counts = sample_poissonized(law05, 1e-9, 1)
        assert counts.counts == {}
        assert counts.total == 1e-9

    def test_total_mean(self, law05):
        t = 5000.0
        totals = [sum(sample_poissonized(law05, t, SeedSpec(2, s)).counts.values())
                  for s in range(200)]
        mean = np.mean(totals)
        # E[total] = t * retained mass; SE of the mean ~ sqrt(t/200)
        assert abs(mean - t * law05.total_mass) <= 4.0 * math.sqrt(t / 200.0)

    def test_r_within_five_sd(self, law05):
        t = 10 ** 4
        expected = law05.expected_statistic(t, "r", mode="poissonized")
        snap = sample_poissonized(law05, float(t), 8).snapshot()
        assert abs(snap.r - expected) <= 5.0 * math.sqrt(expected)

    def test_domain(self, law05):
        with pytest.raises(DomainError):
            sample_poissonized(law05, 0.0, 1)


class TestGoodnessOfFit:
    def test_top_urn_binomial_mean(self, law03):
        # per-urn count of urn 1 is Binomial(n, p1); check the empirical mean
        # over replications against n p1 within 4 standard errors
        n, reps = 10 ** 5, 1000
        p1 = law03.probability(1)
        import os
        from concurrent.futures import ProcessPoolExecutor
        counts = []
        if WORKERS > 1:
            with ProcessPoolExecutor(max_workers=WORKERS) as pool:
                futures = [pool.submit(_urn1_counts, 0.3, n, lo, hi)
                           for lo, hi in _ranges(reps, WORKERS * 2)]
                for f in futures:
                    counts.extend(f.result())
        else:
            counts = _urn1_counts(0.3, n, 0, reps)
        mean = np.mean(counts)
        se = math.sqrt(n * p1 * (1 - p1) / reps)
        assert abs(mean - n * p1) <= 4.0 * se


def _ranges(total, parts):
    bounds = np.linspace(0, total, parts + 1).astype(int)
    return [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]


def _urn1_counts(theta, n, rep_lo, rep_hi):
    law = make_zipf_law(theta)
    out = []
    for rep in range(rep_lo, rep_hi):
        counts = sample_fixed(law, n, SeedSpec(31337, rep))
        out.append(counts.counts.get(1, 0))
    return out


class TestCountsCsv:
    def test_roundtrip(self, law05, tmp_path):
        counts = sample_fixed(law05, 5000, 3)
        path = tmp_path / "counts.csv"
        write_counts_csv(counts, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "urn_index,count"
        indices = [int(line.split(",")[0]) for line in lines[1:]]
        assert indices == sorted(indices)
        back = read_counts_csv(path)
        assert back.counts == counts.counts
        assert back.total == counts.total

    def test_roundtrip_beyond_2_53(self, tmp_path):
        counts = sample_fixed(make_zipf_law(0.9), 10 ** 4, 3)
        assert max(counts.counts) > 2 ** 53
        path = tmp_path / "counts.csv"
        write_counts_csv(counts, path)
        assert read_counts_csv(path).counts == counts.counts

    def test_malformed(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("urn_index,count\n1,2\n2,zero\n")
        with pytest.raises(InputFormatError) as err:
            read_counts_csv(path)
        assert err.value.location == 3
        path.write_text("urn_index,count\n1,0\n")
        with pytest.raises(InputFormatError):
            read_counts_csv(path)


@settings(max_examples=20, deadline=None)
@given(theta=hst.floats(0.25, 0.75), n=hst.integers(1, 3000),
       seed=hst.integers(0, 2 ** 32))
def test_sample_invariants_property(theta, n, seed):
    law = make_zipf_law(round(theta, 3))
    counts = sample_fixed(law, n, seed)
    assert sum(counts.counts.values()) == n
    assert all(c >= 1 for c in counts.counts.values())
    assert all(i > law.i0 for i in counts.counts)
