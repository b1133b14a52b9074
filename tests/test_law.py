import math

import numpy as np
import pytest
import scipy.stats as st

from zipfest.errors import DomainError, InputFormatError, UsageError
from zipfest.law import PowerLaw, make_zipf_law, zeta_normalization
from zipfest.specfun import ln_gamma, zeta

ZETA2 = 1.6449340668482264


class TestConstruction:
    def test_zeta_probabilities(self, law05):
        assert law05.probability(1) == pytest.approx(1.0 / ZETA2, rel=1e-12)
        assert law05.probability(1) == pytest.approx(0.6079271019, abs=1e-9)
        assert law05.probability(2) / law05.probability(1) == pytest.approx(0.25, rel=1e-12)

    def test_shifted_law(self):
        law = make_zipf_law(0.5, i0=2)
        assert law.probability(3) == pytest.approx(1.0 / ZETA2, rel=1e-12)
        assert law.probability(1) == 0.0
        assert law.probability(2) == 0.0

    def test_probability_normalization_identity(self, law05):
        # p_i * zeta(1/theta) * i^(1/theta) == 1 for the zeta law
        z = zeta(2.0)
        for i in (1, 2, 3, 10, 1000, 123456):
            assert law05.probability(i) * z * float(i) ** 2.0 == pytest.approx(1.0, rel=1e-14)

    def test_monotone_positive(self, law05):
        probs = [law05.probability(i) for i in range(1, 200)]
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

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            make_zipf_law(0.0)
        with pytest.raises(DomainError):
            make_zipf_law(1.0)
        with pytest.raises(DomainError):
            make_zipf_law(0.5, i0=-1)
        with pytest.raises(DomainError):
            make_zipf_law(0.5, tail_epsilon=1e-3)

    def test_table_law_validation(self):
        with pytest.raises(DomainError):
            PowerLaw.from_probabilities([0.2, 0.3, 0.5])  # increasing
        with pytest.raises(DomainError):
            PowerLaw.from_probabilities([0.9, 0.2])  # sums to 1.1
        law = PowerLaw.from_probabilities([0.5, 0.3, 0.2])
        assert law.cutoff == 3
        assert law.total_mass == 1.0
        assert law.probability(2) == pytest.approx(0.3, rel=1e-12)
        assert law.probability(7) == 0.0

    def test_table_law_csv_roundtrip(self, tmp_path):
        path = tmp_path / "law.csv"
        path.write_text("index,probability\n1,0.5\n2,0.3\n3,0.2\n")
        law = PowerLaw.from_csv(path, theta=0.4)
        assert law.theta == 0.4
        assert law.probability(3) == pytest.approx(0.2)
        bad = tmp_path / "bad.csv"
        bad.write_text("index,probability\n1,0.5\n2,oops\n")
        with pytest.raises(InputFormatError) as err:
            PowerLaw.from_csv(bad)
        assert err.value.location == 3


class TestCountingFunction:
    def test_closed_form_examples(self, law05):
        assert law05.counting_function(100.0) == 7
        assert law05.counting_function(1e6) == 779

    def test_boundary_of_definition(self, law05):
        x = 1.0 / law05.probability(1)
        assert law05.counting_function(x) == 1

    def test_below_top_urn(self, law05):
        assert law05.counting_function(1.0) == 0

    def test_shift(self):
        law = make_zipf_law(0.5, i0=3)
        base = make_zipf_law(0.5)
        assert law.counting_function(100.0) == base.counting_function(100.0) + 3

    def test_table_law_rank_count(self):
        law = PowerLaw.from_probabilities([0.5, 0.3, 0.2])
        assert law.counting_function(1.0 / 0.3) == 2
        assert law.counting_function(10.0) == 3
        assert law.counting_function(2.1) == 1
        assert law.counting_function(1.9) == 0  # even the top urn is lighter than 1/x

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

    def test_against_binomial_enumeration(self):
        probs = np.array([0.4, 0.25, 0.15, 0.1, 0.06, 0.04])
        law = PowerLaw.from_probabilities(probs)
        n = 37
        cases = {
            ("r", None): sum(1.0 - st.binom.pmf(0, n, p) for p in probs),
            ("u", None): sum(sum(st.binom.pmf(j, n, p) for j in range(1, n + 1, 2))
                             for p in probs),
            ("rk", 1): sum(st.binom.pmf(1, n, p) for p in probs),
            ("rk", 3): sum(st.binom.pmf(3, n, p) for p in probs),
            ("rstar", 2): sum(1.0 - st.binom.cdf(1, n, p) for p in probs),
        }
        for (stat, k), expected in cases.items():
            got = law.expected_statistic(n, stat, k=k)
            assert got == pytest.approx(expected, abs=1e-12)

    def test_against_poisson_enumeration(self):
        probs = np.array([0.4, 0.25, 0.15, 0.1, 0.06, 0.04])
        law = PowerLaw.from_probabilities(probs)
        t = 8.5
        cases = {
            ("r", None): sum(1.0 - st.poisson.pmf(0, t * p) for p in probs),
            ("u", None): sum(sum(st.poisson.pmf(j, t * p) for j in range(1, 200, 2))
                             for p in probs),
            ("rk", 2): sum(st.poisson.pmf(2, t * p) for p in probs),
            ("rstar", 3): sum(1.0 - st.poisson.cdf(2, t * p) for p in probs),
        }
        for (stat, k), expected in cases.items():
            got = law.expected_statistic(t, stat, mode="poissonized", k=k)
            assert got == pytest.approx(expected, abs=1e-12)

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

    def test_consistency_identities(self, law05):
        n = 10 ** 4
        er = law05.expected_statistic(n, "r")
        r1 = law05.expected_statistic(n, "rk", k=1)
        rstar2 = law05.expected_statistic(n, "rstar", k=2)
        assert rstar2 == pytest.approx(er - r1, rel=1e-12)
        rstar1 = law05.expected_statistic(n, "rstar", k=1)
        assert rstar1 == pytest.approx(er, rel=1e-12)

    def test_leading_remainder_decays(self, law05):
        for stat, k in (("r", None), ("u", None), ("rk", 1), ("rk", 2), ("rk", 3)):
            rems = []
            for n in (10 ** 3, 10 ** 6):
                rem = (law05.expected_statistic(n, stat, k=k)
                       - law05.leading_term(n, stat, k=k))
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


class TestLeadingTerm:
    def test_values_at_half(self, law05):
        scale = (1e4 / ZETA2) ** 0.5
        gamma_half = math.exp(ln_gamma(0.5))
        assert law05.leading_term(1e4, "r") == pytest.approx(gamma_half * scale, rel=1e-12)
        assert law05.leading_term(1e4, "r") == pytest.approx(138.1976598, abs=1e-6)
        assert law05.leading_term(1e4, "u") == pytest.approx(97.72050238, abs=1e-6)
        assert law05.leading_term(1e4, "rk", k=1) == pytest.approx(69.09882989, abs=1e-6)

    def test_rstar_telescopes(self, law05):
        # leading(R*_k) = leading(R) - sum_{m<k} leading(R_m)
        n = 1e5
        for k in (2, 3, 5):
            expected = (law05.leading_term(n, "r")
                        - sum(law05.leading_term(n, "rk", k=m) for m in range(1, k)))
            assert law05.leading_term(n, "rstar", k=k) == pytest.approx(expected, rel=1e-12)

    def test_requires_metadata(self):
        law = PowerLaw.from_probabilities([0.6, 0.4])
        with pytest.raises(DomainError):
            law.leading_term(100, "r")


def test_zeta_normalization_helper():
    assert zeta_normalization(0.5) == pytest.approx(1.0 / ZETA2, rel=1e-12)
    arr = zeta_normalization(np.array([0.3, 0.5]))
    assert arr[1] == pytest.approx(1.0 / ZETA2, rel=1e-12)
    with pytest.raises(DomainError):
        zeta_normalization(1.5)
