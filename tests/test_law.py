import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats as st

from zipfest.asymptotics import log_growth
from zipfest.errors import DomainError, UsageError
from zipfest import law as law_module
from zipfest.law import _minimal_cutoff, make_zipf_law, zeta_normalization
from zipfest.specfun import ln_gamma, zeta, zeta_tail

ZETA2 = 1.6449340668482264


def leading_term(law, n, stat, k=None):
    """First-order growth term of E[stat] under ``law`` at n balls."""
    return math.exp(log_growth(law.theta, math.log(law.c * n), stat, k))


def probability(law, i):
    """p_i = c i^(-1/theta) of a zeta law with i0 = 0."""
    return law.c * float(i) ** (-1.0 / law.theta)


def support_probabilities(law):
    """p_i at every support position 1..cutoff of a zeta law with i0 = 0."""
    return law.c * np.arange(1, law.cutoff + 1, dtype=float) ** (-1.0 / law.theta)


def binomial_references(probs, n, ks):
    """E[R], E[U] and E[R_k] for k in ``ks`` at n balls, urn by urn."""
    odd = np.empty_like(probs)  # P(odd count) = (1 - (1 - 2p)^n) / 2
    below = probs < 0.5
    odd[below] = -0.5 * np.expm1(n * np.log1p(-2.0 * probs[below]))
    odd[~below] = 0.5 * (1.0 - (1.0 - 2.0 * probs[~below]) ** n)
    cases = {("r", None): np.sum(-np.expm1(n * np.log1p(-probs))), ("u", None): np.sum(odd)}
    return cases | {("rk", k): np.sum(st.binom.pmf(k, n, probs)) for k in ks}


def poisson_references(probs, t, ks):
    """E[R], E[U] and E[R_k] for k in ``ks`` at horizon t, urn by urn."""
    cases = {("r", None): np.sum(-np.expm1(-t * probs)),
             ("u", None): np.sum(-0.5 * np.expm1(-2.0 * t * probs))}
    return cases | {("rk", k): np.sum(st.poisson.pmf(k, t * probs)) for k in ks}


@pytest.fixture(scope="module")
def law05_coarse():
    return make_zipf_law(0.5, tail_epsilon=1e-6)


class TestConstruction:
    def test_zeta_probabilities(self, law05):
        assert probability(law05, 1) == pytest.approx(1.0 / ZETA2, rel=1e-12)
        assert probability(law05, 1) == pytest.approx(0.6079271019, abs=1e-9)
        assert probability(law05, 2) / probability(law05, 1) == pytest.approx(0.25, rel=1e-12)

    def test_probability_normalization_identity(self, law05):
        # p_i * zeta(1/theta) * i^(1/theta) == 1 for the zeta law
        z = zeta(2.0)
        for i in (1, 2, 3, 10, 1000, 123456):
            assert probability(law05, i) * z * float(i) ** 2.0 == pytest.approx(1.0, rel=1e-14)

    def test_monotone_positive(self, law05):
        probs = [probability(law05, i) for i in range(1, 200)]
        assert all(p > 0 for p in probs)
        assert all(a >= b for a, b in zip(probs, probs[1:]))

    def test_retained_mass_within_tolerance(self):
        for theta in (0.3, 0.5, 0.7):
            law = make_zipf_law(theta)
            # sum of exact probabilities over the support = 1 - discarded
            assert 1.0 - 1e-12 <= law.total_mass <= 1.0
            assert law.discarded_mass <= 1e-12

    def test_cutoff_minimal(self, law03):
        s, c = 1.0 / 0.3, law03.c
        from zipfest.specfun import zeta_tail
        assert c * zeta_tail(s, law03.cutoff) < 1e-12
        assert c * zeta_tail(s, law03.cutoff - 1) >= 1e-12

    @pytest.mark.parametrize("eps", [1e-6, 1e-9, 1e-12, 1e-15])
    def test_cutoff_matches_a_doubling_search(self, eps):
        def doubling(s, c):
            hi = 1
            while c * zeta_tail(s, hi) >= eps:
                hi *= 2
            lo = hi // 2 if hi > 1 else 0
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if c * zeta_tail(s, mid) < eps:
                    hi = mid
                else:
                    lo = mid
            return hi

        # the search stops early beyond 2^53, from theta about 0.6 at 1e-6
        for theta in np.concatenate([np.linspace(0.01, 0.99, 40), np.linspace(0.905, 0.995, 19)]):
            s = 1.0 / theta
            c = 1.0 / zeta(s)
            assert _minimal_cutoff(s, c, eps) == doubling(s, c), theta

    @pytest.mark.parametrize("theta", [0.7, 0.9, 0.99])
    def test_cutoff_search_is_about_55_tail_sums(self, monkeypatch, theta):
        # plain bisection takes log2(cutoff) of them: 3946 at theta = 0.99
        calls = []
        monkeypatch.setattr(law_module, "zeta_tail",
                            lambda s, n: calls.append(n) or zeta_tail(s, n))
        s = 1.0 / theta
        c = 1.0 / zeta(s)
        cutoff = _minimal_cutoff(s, c, 1e-12)
        assert cutoff > 2 ** 54 and len(calls) <= 60
        assert c * zeta_tail(s, cutoff) < 1e-12 <= c * zeta_tail(s, cutoff - 1)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            make_zipf_law(0.0)
        with pytest.raises(DomainError):
            make_zipf_law(1.0)
        with pytest.raises(DomainError):
            make_zipf_law(0.5, i0=-1)
        with pytest.raises(DomainError):
            make_zipf_law(0.5, tail_epsilon=1e-3)

    @pytest.mark.parametrize("dtype", [np.float32, np.float16])
    def test_a_numpy_float_theta_is_a_float(self, dtype):
        law, plain = make_zipf_law(dtype(0.3)), make_zipf_law(float(dtype(0.3)))
        assert type(law.theta) is float and law.theta == float(dtype(0.3))
        assert (law.c, law.cutoff, law.discarded_mass) == (plain.c, plain.cutoff,
                                                           plain.discarded_mass)

    @pytest.mark.parametrize("theta", [True, False, np.bool_(True), "0.5", None])
    def test_a_theta_that_is_no_real_number_is_a_domain_error(self, theta):
        with pytest.raises(DomainError, match="real number"):
            make_zipf_law(theta)


class TestCountingFunction:
    def test_closed_form_examples(self, law05):
        assert law05.counting_function(100.0) == 7
        assert law05.counting_function(1e6) == 779

    def test_boundary_of_definition(self, law05):
        x = 1.0 / probability(law05, 1)
        assert law05.counting_function(x) == 1

    def test_below_top_urn(self, law05):
        assert law05.counting_function(1.0) == 0

    def test_shift(self):
        law = make_zipf_law(0.5, i0=3)
        base = make_zipf_law(0.5)
        assert law.counting_function(100.0) == base.counting_function(100.0) + 3

    def test_power_remainder_bounded_and_decaying(self, law05):
        # alpha(x) = floor((c x)^theta), so the remainder is below 1 in
        # absolute value, and the x^(theta/2)-normalized remainder decays
        # between consecutive decades (10% slack allowed).
        c, theta = law05.c, law05.theta
        normalized = []
        for x in (1e3, 1e4, 1e5, 1e6):
            rem = abs(law05.counting_function(x) - (c * x) ** theta)
            assert rem <= 1.0
            normalized.append(rem / x ** (theta / 2.0))
        for earlier, later in zip(normalized, normalized[1:]):
            assert later <= earlier * 1.1


class TestExpectedStatistic:
    def test_single_ball(self, law05):
        assert law05.expected_statistic(1, "r") == pytest.approx(1.0, abs=1e-9)
        assert law05.expected_statistic(1, "u") == pytest.approx(1.0, abs=1e-9)

    def test_growth_scale_at_1e4(self, law05):
        # first-order growth term with the exact normalization constant
        lead = math.exp(ln_gamma(0.5)) * (1e4 / ZETA2) ** 0.5
        assert lead == pytest.approx(138.1976598, abs=1e-6)
        got = law05.expected_statistic(10 ** 4, "r")
        assert abs(got - lead) <= 10.0 ** 0.25

    # The references sum every urn of law03's support, 91110 urns; the oracle
    # enumerates 4096 of them and takes the rest from its tail series.  The
    # references use expm1/log1p: 1 - (1 - 2p)^n alone is off by 6e-12.
    # theta = 0.5 at tail_epsilon 1e-6 has 607927 urns, and its 4096-urn
    # window leaves 10.6 % of E[R] at n = 10^6 to the tail series.

    def test_against_binomial_enumeration(self, law03, law05_coarse):
        probs = support_probabilities(law03)
        assert probs.size == 91110
        for (stat, k), expected in binomial_references(probs, 37, (1, 3)).items():
            got = law03.expected_statistic(37, stat, k=k)
            assert got == pytest.approx(expected, abs=1e-12)
        # ln C(n, k) as a difference of three ln-gammas near n ln n loses
        # about 1e-8 of E[R_k] here
        n = 10 ** 7
        for k in (1, 2, 3):
            expected = np.sum(st.binom.pmf(k, n, probs))
            assert law03.expected_statistic(n, "rk", k=k) == pytest.approx(expected, rel=1e-12)
        probs = support_probabilities(law05_coarse)
        assert probs.size == 607927
        for n in (10 ** 5, 10 ** 6):
            for (stat, k), expected in binomial_references(probs, n, (1, 2, 3)).items():
                got = law05_coarse.expected_statistic(n, stat, k=k)
                assert got == pytest.approx(expected, rel=1e-12)

    def test_against_poisson_enumeration(self, law03, law05_coarse):
        probs = support_probabilities(law03)
        for (stat, k), expected in poisson_references(probs, 8.5, (2,)).items():
            got = law03.expected_statistic(8.5, stat, mode="poissonized", k=k)
            assert got == pytest.approx(expected, abs=1e-12)
        probs = support_probabilities(law05_coarse)
        for t in (10 ** 5, 10 ** 6):
            for (stat, k), expected in poisson_references(probs, t, (1, 2, 3)).items():
                got = law05_coarse.expected_statistic(t, stat, mode="poissonized", k=k)
                assert got == pytest.approx(expected, rel=1e-12)

    def test_zeta_tail_window_independence(self, law07):
        import zipfest.law as law_mod
        v1 = law07.expected_statistic(10 ** 5, "r")
        old = law_mod._ORACLE_SMALLNESS
        law_mod._ORACLE_SMALLNESS = 0.01
        try:
            v2 = law07.expected_statistic(10 ** 5, "r")
        finally:
            law_mod._ORACLE_SMALLNESS = old
        assert v1 == pytest.approx(v2, abs=1e-9)

    def test_leading_remainder_decays(self, law05):
        for stat, k in (("r", None), ("u", None), ("rk", 1), ("rk", 2), ("rk", 3)):
            rems = []
            for n in (10 ** 3, 10 ** 6):
                rem = (law05.expected_statistic(n, stat, k=k)
                       - leading_term(law05, n, stat, k=k))
                rems.append(abs(rem) / n ** 0.25)
            assert rems[1] < rems[0]

    def test_fixed_vs_poissonized_gap_shrinks(self, law05):
        gaps = []
        for n in (10 ** 3, 10 ** 6):
            gaps.append(abs(law05.expected_statistic(n, "r")
                            - law05.expected_statistic(n, "r", mode="poissonized")))
        assert gaps[1] < gaps[0]

    def test_usage_errors(self, law05):
        with pytest.raises(UsageError):
            law05.expected_statistic(10, "bogus")
        with pytest.raises(UsageError):
            law05.expected_statistic(10, "rk")  # k missing
        with pytest.raises(DomainError):
            law05.expected_statistic(0, "r")
        with pytest.raises(DomainError):
            law05.expected_statistic(10.5, "r")  # fixed mode needs integer
        with pytest.raises(UsageError):
            law05.expected_statistic(10, "r", mode="sideways")

    # the window grows as n^theta and is summed in blocks of 2^16 urns
    STATS = [("r", None), ("u", None), ("rk", 1)]

    def test_window_memory_is_bounded(self):
        law09 = make_zipf_law(0.9)
        assert law09._oracle_window(1e7) > 16 * law_module._ORACLE_BLOCK
        for stat, k in self.STATS:
            tracemalloc.start()
            try:
                law09.expected_statistic(10 ** 7, stat, k=k)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 8 * 2 ** 20, (stat, peak)

    def test_blocks_sum_to_the_one_block_sum(self, monkeypatch):
        law09 = make_zipf_law(0.9)
        window = law09._oracle_window(1e6)
        assert window > 3 * law_module._ORACLE_BLOCK
        blocked = [law09.expected_statistic(10 ** 6, stat, k=k) for stat, k in self.STATS]
        monkeypatch.setattr(law_module, "_ORACLE_BLOCK", window + 1)
        for (stat, k), value in zip(self.STATS, blocked):
            one = law09.expected_statistic(10 ** 6, stat, k=k)
            assert value == pytest.approx(one, rel=1e-12, abs=0.0), stat


class TestLeadingTerm:
    def test_values_at_half(self, law05):
        scale = (1e4 / ZETA2) ** 0.5
        gamma_half = math.exp(ln_gamma(0.5))
        assert leading_term(law05, 1e4, "r") == pytest.approx(gamma_half * scale, rel=1e-12)
        assert leading_term(law05, 1e4, "r") == pytest.approx(138.1976598, abs=1e-6)
        assert leading_term(law05, 1e4, "u") == pytest.approx(97.72050238, abs=1e-6)
        assert leading_term(law05, 1e4, "rk", k=1) == pytest.approx(69.09882989, abs=1e-6)


def test_zeta_normalization_helper():
    assert zeta_normalization(0.5) == pytest.approx(1.0 / ZETA2, rel=1e-12)
    arr = zeta_normalization(np.array([0.3, 0.5]))
    assert arr[1] == pytest.approx(1.0 / ZETA2, rel=1e-12)
    with pytest.raises(DomainError):
        zeta_normalization(1.5)
