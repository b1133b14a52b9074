import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from zipfest.errors import DomainError, InputFormatError, UsageError
from zipfest.law import PowerLaw, make_zipf_law
from zipfest.sampler import (OccupancyCounts, SeedSpec, read_counts_csv,
                             sample_fixed, sample_poissonized,
                             sample_trajectory, write_counts_csv)
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
        law = PowerLaw.from_probabilities([1.0 - 1e-6, 1e-6])
        hits = sum(sample_fixed(law, 100, seed).counts.get(1, 0) == 100
                   for seed in range(50))
        assert hits >= 45  # each all-in-urn-1 event has probability ~0.9999

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
    """Stand-in generator: the given uniforms first, then a seeded stream."""

    def __init__(self, first):
        self.first = np.asarray(first, dtype=float)
        self.rest = np.random.default_rng(0)

    def random(self, size):
        out, self.first = self.first[:size], self.first[size:]
        return np.concatenate([out, self.rest.random(size - out.size)])


class TestRejectionInversion:
    @pytest.mark.parametrize("theta", [0.3, 0.9])
    def test_head_frequencies(self, theta):
        # the rejection step decides only near the head, so check urns 1-5
        law = make_zipf_law(theta)
        n = 10 ** 6
        pos = law.draw_positions(n, SeedSpec(2024).generator())
        for i in range(1, 6):
            p = law.probability(i) / law.total_mass
            se = math.sqrt(p * (1.0 - p) / n)
            assert abs(np.count_nonzero(pos == i) / n - p) <= 5.0 * se, i

    def test_urns_beyond_2_53_are_python_ints(self):
        law = make_zipf_law(0.9, i0=7)
        n = 10 ** 5
        counts = sample_fixed(law, n, 5).counts
        assert sum(counts.values()) == n
        assert all(type(i) is int and i > law.i0 for i in counts)
        assert max(counts) - law.i0 > 2 ** 53

    def test_false_collision_beyond_2_53_is_rarer_than_1e_6(self):
        """Beyond 2^53 a position is a float, so two balls in distinct urns
        merge when they get the same value v.  In one draw of n balls that
        happens with chance at most C(n, 2) P(K > 2^53) q, where q bounds the
        chance of any one value.  A round of the sampler maps each 53-bit
        uniform (chance 2^-53) monotonically to a value, so a value takes a
        run of adjacent uniforms; the run is at most two long, since two
        uniforms can round to the same point of the hat integral (checked
        below at the far end, where values are coarsest).  A round keeps its
        ball with chance at least (3/4)^s: urn 1 owns hat area 1 = 1^-s, and
        urn k >= 2 at most (k - 1/2)^-s <= (4/3)^s k^-s.  So
        q <= 2 * 2^-53 / (3/4)^s."""
        law = make_zipf_law(0.9)
        n = 10 ** 5
        s = 1.0 / law.theta
        p_far = law.c * zeta_tail(s, 2 ** 53) / law.total_mass
        q = 2 * 2.0 ** -53 / 0.75 ** s
        assert math.comb(n, 2) * p_far * q < 1e-6
        smallest = np.arange(4000) * 2.0 ** -53
        pos = law.draw_positions(smallest.size, _Uniforms(smallest))
        assert pos.min() > 2 ** 53
        assert np.unique(pos, return_counts=True)[1].max() <= 2

    def test_cutoff_beyond_float64_is_a_domain_error(self):
        law = make_zipf_law(0.97)
        assert law.cutoff > sys.float_info.max
        with pytest.raises(DomainError):
            sample_fixed(law, 10, 1)


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

    def test_grid_validation(self, law05):
        with pytest.raises(UsageError):
            sample_trajectory(law05, 100, [], 1)
        with pytest.raises(UsageError):
            sample_trajectory(law05, 100, [0.5, 0.5], 1)
        with pytest.raises(UsageError):
            sample_trajectory(law05, 100, [0.0, 1.0], 1)
        with pytest.raises(UsageError):
            sample_trajectory(law05, 100, [0.5, 1.5], 1)

    def test_ball_counts_match_grid(self, law05):
        snaps = sample_trajectory(law05, 1000, [0.31, 0.62, 1.0], 2)
        assert [s.total for s in snaps] == [310, 620, 1000]


class TestPoissonized:
    def test_tiny_horizon_empty(self, law05):
        counts = sample_poissonized(law05, 1e-9, 1)
        assert counts.counts == {}
        assert counts.mode == "poisson"

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
