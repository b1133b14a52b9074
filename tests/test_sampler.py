import math
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.stats as st
from hypothesis import given, settings
from hypothesis import strategies as hst

from zipfest import law as law_module
from zipfest import sampler
from zipfest.errors import DomainError, InputFormatError, UsageError
from zipfest.ingest import counts_csv, read_counts_csv
from zipfest.law import _hat_integral, _hat_integral_inverse, make_zipf_law
from zipfest.sampler import (SeedSpec, _generator, _keys, sample_fixed, sample_poissonized,
                             sample_trajectories, sample_trajectory)
from zipfest.specfun import zeta_tail

from conftest import WORKERS


def _own_generator(master, stream=0):
    """A generator of its own for one stream's key, at counter 0."""
    return _generator(_keys(master, range(stream, stream + 1))[0])


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


class TestStreamKeys:
    MASTERS = [0, 1, 2 ** 31, 2 ** 32 + 5, 12345678901234567890, 2 ** 128 + 3]
    STREAMS = [0, 1, 2 ** 32, 99999999999, 2 ** 64 - 1, 2 ** 64, 2 ** 64 + 7, 2 ** 128 + 3]

    def test_keys_and_draws_match_seed_sequence(self):
        # stream 0 is SeedSequence(master, spawn_key=(0,)), key and draws, so
        # plain numpy reproduces a default simulate; stream s is the base of
        # its block of 2^64 streams with s's low 64 bits XORed into word 0
        for master in self.MASTERS:
            key, = _keys(master, range(1))
            ref = np.random.SeedSequence(master, spawn_key=(0,))
            assert key.tolist() == ref.generate_state(2, np.uint64).tolist(), master
            first = np.random.Generator(np.random.Philox(ref)).random(8).tolist()
            assert _generator(key).random(8).tolist() == first, master
            for stream in self.STREAMS:
                key, = _keys(master, range(stream, stream + 1))
                block = np.random.SeedSequence(master, spawn_key=(stream >> 64,))
                word, high = block.generate_state(2, np.uint64).tolist()
                assert key.tolist() == [word ^ stream % 2 ** 64, high], (master, stream)

    @pytest.mark.parametrize("master", [0, 2 ** 62, 10 ** 40], ids=["0", "2^62", "10^40"])
    @pytest.mark.parametrize("streams", [
        range(300), range(2 ** 32 - 3, 2 ** 32 + 3), range(75, 150),
        range(2 ** 64 - 3, 2 ** 64 + 3), range(2 ** 128 + 2 ** 64 - 3, 2 ** 128 + 2 ** 64 + 3),
    ], ids=["0-299", "2^32", "75-149", "2^64", "2^128+2^64"])
    def test_keys_from_a_range_match_one_seed_at_a_time(self, master, streams):
        # a chunk's keys come from its range of replications, split where the
        # range crosses a multiple of 2^64, with no SeedSpec per stream; no
        # two streams share a key
        keys = _keys(master, streams)
        assert len(keys) == len(streams)
        for stream, key in zip(streams, keys):
            assert key.tolist() == _keys(master, range(stream, stream + 1))[0].tolist(), stream
        assert len(set(map(tuple, keys.tolist()))) == len(streams)

    def test_adjacent_keys_give_independent_streams(self):
        # 4096 consecutive streams, whose keys differ in a few low bits:
        # their first 64 uniforms are uncorrelated from one stream to the
        # next, their first uniforms uniform, and each bit of one 63-bit
        # integer per stream fair
        streams = 4096
        keys = _keys(2026, range(streams))
        uniforms = np.array([_generator(key).random(64) for key in keys])
        pairs = uniforms[:-1].size
        r = np.corrcoef(uniforms[:-1].ravel(), uniforms[1:].ravel())[0, 1]
        assert abs(r) < 4.0 / math.sqrt(pairs), r
        assert st.kstest(uniforms[:, 0], "uniform").pvalue > 1e-3
        draws = np.array([_generator(key).integers(2 ** 63) for key in keys], dtype=np.uint64)
        bits = (draws[:, None] >> np.arange(63, dtype=np.uint64)) & np.uint64(1)
        assert np.all(np.abs(bits.mean(axis=0) - 0.5) < 4.0 * 0.5 / math.sqrt(streams))

    @pytest.mark.parametrize("seeds", [(-1, range(3)), (0, range(-1, 3)), (0, range(0, 6, 2)),
                                       (1.5, range(3))])
    def test_a_bad_range_of_streams_is_a_domain_error(self, seeds):
        with pytest.raises(DomainError):
            _keys(*seeds)

    def test_a_generator_holds_no_seed_sequence(self):
        rng = _own_generator(1, 5)
        assert not isinstance(rng.bit_generator.seed_seq, np.random.SeedSequence)

    def test_numpy_integers_are_accepted_as_ints(self, law05):
        seed = SeedSpec(np.uint64(2 ** 63 + 1), np.int32(7))
        assert seed == SeedSpec(2 ** 63 + 1, 7)
        assert type(seed.master) is int and type(seed.stream) is int
        assert sample_fixed(law05, 100, np.int64(5)).counts == sample_fixed(law05, 100, 5).counts

    @pytest.mark.parametrize("master, stream", [(-1, 0), (0, -1), (1.5, 0), (0, 2.0),
                                                (True, 0), ("3", 0), (None, 0)])
    def test_a_bad_seed_is_a_domain_error(self, master, stream):
        with pytest.raises(DomainError, match="non-negative integer"):
            SeedSpec(master, stream)

    def test_a_negative_int_seed_is_a_domain_error(self, law05):
        with pytest.raises(DomainError):
            sample_fixed(law05, 10, -5)
        with pytest.raises(DomainError):
            sample_trajectories(law05, 10, (1.0,), -5, range(1))


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
        rng = _own_generator(2024)
        pos = law._accepted(first, [rng], [rng.random(n)], law._tail_bounds(first))[0]
        mass = _tail_mass(law, first)
        for i in range(first, first + 5):
            p = law.c * i ** (-1.0 / law.theta) / mass
            se = math.sqrt(p * (1.0 - p) / n)
            assert abs(np.count_nonzero(pos == i) / n - p) <= 5.0 * se, i

    def test_urns_past_the_mean_batch_hold_their_share_of_each_prefix(self):
        # at three grid times the head is alpha(n / 3) urns, so the tail
        # drawer, not the multinomial, draws urns alpha(n / 3) + 1 ..
        # alpha(n); the first five must hold m p_i balls on average at each
        # prefix of m balls, each urn's count binomial(m, p_i)
        law, n, grid, draws = make_zipf_law(0.9), 10 ** 5, (0.25, 0.5, 1.0), 500
        sizes = [math.floor(n * t) for t in grid]
        first = law.head_width(n, len(grid)) + 1
        assert first == law.counting_function(n / 3) + 1 < law.counting_function(n)
        urns = np.arange(first, first + 5, dtype=float)
        held = np.zeros((len(sizes), urns.size))
        streams = (_own_generator(2027, rep) for rep in range(draws))
        for head, rows, positions, counts in law.draw_prefixes(sizes, streams):
            assert head.shape[2] == first - 1
            for i, urn in enumerate(urns):
                hit = positions == urn
                held[:, i] += np.bincount(rows[hit] // head.shape[1], weights=counts[hit],
                                          minlength=len(sizes))
        p = law.c * urns ** (-1.0 / law.theta) / law.total_mass
        for m, got in zip(sizes, held):
            se = np.sqrt(draws * m * p * (1.0 - p))
            assert np.all(np.abs(got - draws * m * p) <= 5.0 * se), (m, got, draws * m * p)

    def test_far_tail_share(self):
        # beyond 2^53 positions have no fraction left, and only the quick
        # acceptance test keeps the exact test's rounding from rejecting them
        law = make_zipf_law(0.9)
        s = 1.0 / law.theta
        first = law.head_width(10 ** 5) + 1
        n = 10 ** 6
        rng = _own_generator(2025)
        pos = law._accepted(first, [rng], [rng.random(n)], law._tail_bounds(first))[0]
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
        stub = _Uniforms(smallest)
        pos = law._accepted(first, [stub], [stub.random(smallest.size)],
                            law._tail_bounds(first))[0]
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
        law._accepted(2, [stub], [stub.random(rejected.size)], law._tail_bounds(2))
        assert stub.sizes[:2] == [rejected.size, rejected.size]

        far = np.linspace(_hat_integral(math.log(3e13), s), _hat_integral(math.log(1e14), s), 4000)
        r = (far - top) / (bottom - top)
        x = _hat_integral_inverse(top + r * (bottom - top), s)
        kept = r[np.floor(x + 0.5) - x <= 0.4]  # well inside the bound
        assert kept.size > 2500
        stub = _Uniforms(kept)
        law._accepted(2, [stub], [stub.random(kept.size)], law._tail_bounds(2))
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
        columns = sample_trajectories(law, 300, grid, 31, range(m), k_max=3)
        assert [c.total for c in columns] == [math.floor(300 * t) for t in grid]
        for rep, seed in enumerate(seeds):
            one = sample_trajectory(law, 300, grid, seed, k_max=3)
            assert [c.sample(rep) for c in columns] == one, rep

    def test_tail_bounds_are_computed_once_per_draw(self, monkeypatch):
        law, calls = make_zipf_law(0.7), []
        bounds = law_module.PowerLaw._tail_bounds
        monkeypatch.setattr(law_module.PowerLaw, "_tail_bounds",
                            lambda self, first: calls.append(first) or bounds(self, first))
        streams = (_own_generator(8, rep) for rep in range(100))
        blocks = list(law.draw_prefixes([1000, 2000], streams))
        assert len(blocks) >= 4 and calls == [law.head_width(2000, 2) + 1]

    def test_tail_balls_count_in_a_draws_memory(self, monkeypatch):
        # n = 2000 at theta = 0.9: a head of 122 urns, 16 bytes each at one
        # grid time, and about 1100 balls beyond it, which the rule counts at
        # _TAIL_BALL_BYTES each; at three grid times the head is alpha(2000 /
        # 3), 45 urns of 32 bytes, and about 1230 balls fall beyond it
        law = make_zipf_law(0.9)
        three = (0.25, 0.5, 1.0)
        assert law.head_width(2000) == 122 and law.head_width(2000, len(three)) == 45
        for grid, width, balls in (((1.0,), 122, "1.1e\\+03"), (three, 45, "1.23e\\+03")):
            head = 8 * width * (1 + len(grid))
            draws = [lambda: law.head_width(2000, len(grid)),
                     lambda: sample_trajectories(law, 2000, grid, 1, range(3))]
            monkeypatch.setattr(law_module, "USABLE_MEMORY", head + 100)
            for draw in draws:
                with pytest.raises(UsageError, match=f"about {balls} tail balls"):
                    draw()
            tail = 2000 * (law.c * zeta_tail(1 / 0.9, width) - law.discarded_mass) / law.total_mass
            assert 1000 < tail < 1300
            need = head + law_module._TAIL_BALL_BYTES * tail
            monkeypatch.setattr(law_module, "USABLE_MEMORY", math.ceil(need))
            for draw in draws:
                draw()

    def test_a_map_of_urns_counts_its_own_bytes(self, monkeypatch):
        # sample_fixed and sample_poissonized map each occupied urn to its
        # count, a dict of Python ints that holds _URN_MAP_BYTES per head urn
        # and tail ball, more than a draw's arrays do: with memory between
        # the two needs the map is refused and the arrays are still drawn
        law = make_zipf_law(0.9)
        width = law.head_width(2000)
        tail = 2000 * (law.c * zeta_tail(1 / 0.9, width) - law.discarded_mass) / law.total_mass
        arrays = 16 * width + law_module._TAIL_BALL_BYTES * tail
        mapped = 16 * width + law_module._URN_MAP_BYTES * (width + tail)
        assert mapped > 2 * arrays
        monkeypatch.setattr(law_module, "USABLE_MEMORY", math.ceil(arrays))
        sample_trajectories(law, 2000, (1.0,), 1, range(3))
        for draw in (lambda: sample_fixed(law, 2000, 1),
                     lambda: sample_poissonized(law, 1900.0, 1)):
            with pytest.raises(UsageError, match="tail balls"):
                draw()
        monkeypatch.setattr(law_module, "USABLE_MEMORY", math.ceil(mapped))
        assert sum(sample_fixed(law, 2000, 1).counts.values()) == 2000

    def test_no_seeds_is_a_usage_error(self, law05):
        with pytest.raises(UsageError):
            sample_trajectories(law05, 100, (1.0,), 0, range(0))

    def test_memory_per_seed_is_one_tally_row(self, law07):
        # each block's tally goes straight into one array for all seeds: at
        # k_max = 2 a row is 6 int64 per grid time, 144 bytes for three, plus
        # a 16-byte key; a list of block tallies joined at the end held about
        # 240 bytes per seed
        grid = (0.25, 0.5, 1.0)
        sample_trajectories(law07, 20000, grid, 0, range(200), k_max=2)
        peaks = []
        for m in (200, 800):
            tracemalloc.start()
            sample_trajectories(law07, 20000, grid, 0, range(m), k_max=2)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert (peaks[1] - peaks[0]) / 600 < 200

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


    @pytest.mark.parametrize("grid", [(1.0,), (0.25, 0.5, 1.0)])
    @pytest.mark.parametrize("theta", [0.3, 0.9])
    def test_rebuilt_streams_draw_as_their_own_generators(self, theta, grid):
        # a stream of the shared generator draws what generators of its own
        # draw, whatever stream it served before: one at counter 0, and one
        # at counter [0, 0, 0, r] for top-up round r; at n = 40 a few of 300
        # seeds redraw a tail ball
        law, n = make_zipf_law(theta), 40
        sizes = [math.floor(n * t) for t in grid]
        keys = _keys(3, range(300))
        own = [_Substreams(key) for key in keys]
        blocks = law.draw_prefixes(sizes, sampler._streams(keys))
        for block, reference in zip(blocks, law.draw_prefixes(sizes, own), strict=True):
            assert all(np.array_equal(a, b) for a, b in zip(block, reference))
        assert any(stream.round > 1 for stream in own)
        # every ball's urn, too: a snapshot may not see a wrong urn
        columns = sample_trajectories(law, n, grid, 3, range(300), k_max=3)
        for rep in range(300):
            one = sample_trajectory(law, n, grid, SeedSpec(3, rep), k_max=3)
            assert [c.sample(rep) for c in columns] == one
            if len(grid) == 1:  # the urn -> count map draws through the same stream
                assert one[0] == sample_fixed(law, n, SeedSpec(3, rep)).snapshot(k_max=3)

    def test_a_counter_0_draw_out_of_order_raises(self):
        # re-keyed at counter 0 after its first draw, a stream would draw
        # again the bits it has already drawn
        first, second = sampler._streams(_keys(3, range(2)))
        first.multinomial(10, [0.5, 0.5])
        second.multinomial(10, [0.5, 0.5])
        with pytest.raises(RuntimeError):
            first.random(3)
        first, = sampler._streams(_keys(3, range(1)))
        first.random(3)
        first.random(3)  # top-up round 1
        with pytest.raises(RuntimeError):
            first.multinomial(10, [0.5, 0.5])


class _Substreams:
    """One stream's draws from generators of its own: multinomials and the
    first ``random`` call at counter 0, top-up round r of ``random`` at
    counter [0, 0, 0, r]."""

    def __init__(self, key):
        self.key, self.round, self.main = key, 0, _generator(key)

    def multinomial(self, n, probs):
        return self.main.multinomial(n, probs)

    def random(self, size):
        rng = self.main if self.round == 0 else np.random.Generator(
            np.random.Philox(key=self.key, counter=[0, 0, 0, self.round]))
        self.round += 1
        return rng.random(size)


class TestTrajectory:
    def test_single_point_grid_matches_fixed(self, law05):
        snaps = sample_trajectory(law05, 10 ** 4, [1.0], SeedSpec(77, 0))
        single = sample_fixed(law05, 10 ** 4, SeedSpec(77, 0)).snapshot()
        assert snaps[0] == single

    @pytest.mark.parametrize("master", [0, 2 ** 64 + 1], ids=["0", "2^64+1"])
    @pytest.mark.parametrize("stream", [2 ** 32 - 1, 2 ** 32, 2 ** 40 + 3,
                                        2 ** 64 - 1, 2 ** 64, 2 ** 128 + 3],
                             ids=["2^32-1", "2^32", "2^40+3", "2^64-1", "2^64", "2^128+3"])
    def test_a_high_stream_matches_fixed(self, law05, master, stream):
        # sample_trajectory keys the one-stream range of its seed, which
        # crosses no multiple of 2^64 but may start on or above one
        seed = SeedSpec(master, stream)
        snaps = sample_trajectory(law05, 10 ** 4, (1.0,), seed)
        assert snaps[0] == sample_fixed(law05, 10 ** 4, seed).snapshot()

    def test_prefix_monotonicity(self, law05):
        snaps = sample_trajectory(law05, 10 ** 4, [0.25, 0.5, 0.75, 1.0], 5)
        rs = [s.r for s in snaps]
        assert rs == sorted(rs)
        for k in range(1, 9):
            stars = [s.r_star_k[k - 1] for s in snaps]
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
                assert 0 <= late.r_star_k[k - 1] - early.r_star_k[k - 1] <= gap, (seed, k)
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

    @pytest.mark.parametrize("theta", [0.5, 0.7, 0.9])
    def test_prefix_second_moments(self, theta):
        # poissonized, Var R(t) = E R(2t) - E R(t) and Cov(R(s), R(t)) =
        # E R(s + t) - E R(t) for s <= t; n fixed balls take away
        # E R_1(s) E R_1(t) / n (de-Poissonization), which at theta = 0.9 is
        # about 20 SE, so a wrong joint law of the prefixes shows
        law = make_zipf_law(theta)
        n, m = 10 ** 4, 1000
        half, full = sample_trajectories(law, n, (0.5, 1.0), 2027, range(m))

        def mean(t, stat, k=None):
            return law.expected_statistic(t, stat, mode="poissonized", k=k)

        cases = {
            "Var R_n": (full.r, full.r,
                        mean(2 * n, "r") - mean(n, "r") - mean(n, "rk", 1) ** 2 / n),
            "Cov(R_n/2, R_n)": (half.r, full.r,
                                mean(1.5 * n, "r") - mean(n, "r")
                                - mean(n / 2, "rk", 1) * mean(n, "rk", 1) / n),
        }
        for name, (x, y, target) in cases.items():
            products = (x - x.mean()) * (y - y.mean())
            z = (products.mean() - target) / (products.std(ddof=1) / math.sqrt(m))
            assert abs(z) <= 5.0, (name, z)

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

    @pytest.mark.parametrize("theta", [0.3, 0.7, 0.9])
    def test_second_moments(self, theta):
        # poissonized urns are independent, so (Karlin 1967; Gnedin, Hansen
        # & Pitman 2007) Var R(t) = E R(2t) - E R(t), Var U(t) = E U(2t) / 2
        # and Var R_1(t) = E R_1(t) - E R_2(2t) / 2, exactly
        law = make_zipf_law(theta)
        t, m = 5000.0, 1000
        snaps = [sample_poissonized(law, t, SeedSpec(11, rep)).snapshot() for rep in range(m)]

        def mean(horizon, stat, k=None):
            return law.expected_statistic(horizon, stat, mode="poissonized", k=k)

        cases = {
            "R": ([s.r for s in snaps], mean(2 * t, "r") - mean(t, "r")),
            "U": ([s.u for s in snaps], mean(2 * t, "u") / 2),
            "R_1": ([s.r_k[0] for s in snaps], mean(t, "rk", 1) - mean(2 * t, "rk", 2) / 2),
        }
        for name, (values, variance) in cases.items():
            # the sample variance of M draws has SE about Var * sqrt(2 / (M - 1))
            z = (np.var(values, ddof=1) - variance) / (variance * math.sqrt(2.0 / (m - 1)))
            assert abs(z) <= 5.0, (name, z)

    def test_third_cumulants(self, law03):
        # an urn is occupied with probability q(t) = 1 - exp(-t p) and holds
        # an odd count with probability (1 - exp(-2 t p)) / 2; summing the
        # Bernoulli third cumulants gives, exactly,
        # k3 R(t) = E R(t) - 3 E R(2t) + 2 E R(3t), k3 U(t) = (E U(3t) - E U(t)) / 2
        t, m = 2000.0, 4000
        snaps = [sample_poissonized(law03, t, SeedSpec(13, rep)).snapshot() for rep in range(m)]

        def mean(horizon, stat):
            return law03.expected_statistic(horizon, stat, mode="poissonized")

        cases = {
            "R": ([s.r for s in snaps], mean(t, "r") - 3 * mean(2 * t, "r") + 2 * mean(3 * t, "r")),
            "U": ([s.u for s in snaps], (mean(3 * t, "u") - mean(t, "u")) / 2),
        }
        for name, (values, kappa3) in cases.items():
            centred = np.asarray(values, dtype=float) - np.mean(values)
            m2, m3 = np.mean(centred ** 2), np.mean(centred ** 3)
            k3 = m3 * m * m / ((m - 1) * (m - 2))  # the unbiased k-statistic
            se = math.sqrt(6.0 * m2 ** 3 / m)
            assert abs(k3 - kappa3) <= 4.0 * se, (name, k3, kappa3, se)
            if name == "R":  # the skew is large enough that a normal law would fail
                assert kappa3 > 4.0 * se, (kappa3, se)


class TestGoodnessOfFit:
    def test_top_urn_binomial_mean(self, law03):
        # per-urn count of urn 1 is Binomial(n, p1); check the empirical mean
        # over replications against n p1 within 4 standard errors
        n, reps = 10 ** 5, 1000
        p1 = law03.c  # p_1 = c
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
        path.write_text(counts_csv(counts))
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
        path.write_text(counts_csv(counts))
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
