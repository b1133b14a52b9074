import math
import tracemalloc

import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given, settings
from hypothesis import strategies as hst

from zipfest.errors import DomainError
from zipfest.specfun import ln_beta, ln_gamma, zeta, zeta_tail

# Reference values computed with mpmath at 30 digits.
LN_GAMMA_TABLE = {
    0.05: 2.9688792010517308,
    0.1: 2.2527126517342060,
    0.25: 1.2880225246980774,
    0.5: 0.5723649429247001,
    0.75: 0.2032809514312954,
    1.0: 0.0,
    1.5: -0.1207822376352452,
    2.0: 0.0,
    2.5: 0.2846828704729192,
    3.7: 1.4280723266653879,
    5.0: 3.1780538303479456,
    8.0: 8.5251613610654143,
    12.5: 18.7343475119364457,
    20.0: 39.3398841871994940,
    35.0: 88.5808275421976788,
    50.0: 144.5657439463448860,
    0.001: 6.9071788853838537,
    0.999: 0.0005780385328914,
}

ZETA_TABLE = {
    2.0: 1.6449340668482264,
    3.0: 1.2020569031595943,
    4.0: 1.0823232337111382,
    20.0: 1.0000009539620338,
    1.1: 10.5844484649508011,
    1.5: 2.6123753486854883,
    6.0: 1.0173430619844491,
}


class TestLnGamma:
    def test_frozen_table(self):
        for x, expected in LN_GAMMA_TABLE.items():
            got = ln_gamma(x)
            assert got == pytest.approx(expected, abs=1e-12 * max(1.0, abs(expected)))

    def test_matches_scipy_across_contract_range(self):
        xs = np.concatenate([np.linspace(0.05, 0.5, 301), np.linspace(0.5, 50.0, 3000)])
        mine = ln_gamma(xs)
        ref = sp.gammaln(xs)
        assert np.all(np.abs(mine - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))

    def test_known_points(self):
        assert ln_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
        assert math.exp(ln_gamma(0.5)) == pytest.approx(1.7724538509, abs=1e-9)
        assert math.exp(ln_gamma(4.0)) == pytest.approx(6.0, rel=1e-12)

    def test_recurrence(self):
        # ln Gamma(x + 1) - ln Gamma(x) = ln x
        for x in np.arange(0.1, 5.01, 0.1):
            assert ln_gamma(x + 1.0) - ln_gamma(x) == pytest.approx(math.log(x), abs=1e-10)

    def test_domain_errors(self):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                ln_gamma(bad)
        with pytest.raises(DomainError):
            ln_gamma(np.array([1.0, -2.0]))

    def test_scalar_and_array_agree(self):
        xs = np.linspace(0.01, 40.0, 157)
        arr = ln_gamma(xs)
        for i, x in enumerate(xs):
            scale = max(1.0, abs(arr[i]))
            assert ln_gamma(float(x)) == pytest.approx(arr[i], abs=1e-13 * scale)


class TestZeta:
    def test_frozen_table(self):
        for s, expected in ZETA_TABLE.items():
            assert zeta(s) == pytest.approx(expected, rel=1e-10)

    def test_basel_and_quartic(self):
        assert zeta(2.0) == pytest.approx(math.pi ** 2 / 6.0, rel=1e-12)
        assert zeta(4.0) == pytest.approx(math.pi ** 4 / 90.0, rel=1e-12)

    def test_apery_against_partial_sum_oracle(self):
        # brute-force oracle: one million terms plus an integral tail bracket;
        # the bracket width (~1e-18) sits below float resolution, so allow a
        # few ulp of slack around it
        partial = float(np.sum(np.arange(1, 1_000_001, dtype=float) ** -3.0))
        tail_lo = 0.5 * 1_000_001.0 ** -2.0   # integral from N+1
        tail_hi = 0.5 * 1_000_000.0 ** -2.0   # integral from N
        value = zeta(3.0)
        assert partial + tail_lo - 5e-15 <= value <= partial + tail_hi + 5e-15
        assert value == pytest.approx(1.2020569032, abs=1e-9)

    def test_decreasing_and_limit(self):
        values = [zeta(s) for s in (1.5, 2.0, 3.0, 5.0, 10.0, 20.0)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert 1.0 < zeta(20.0) < 1.0 + 2e-6

    def test_near_one(self):
        # pole side: partial sums alone are hopeless here
        assert zeta(1.001) == pytest.approx(float(sp.zeta(1.001, 1)), rel=1e-10)

    def test_domain_errors(self):
        for bad in (1.0, 0.5, -2.0, math.nan):
            with pytest.raises(DomainError):
                zeta(bad)

    def test_tail_matches_direct_sum(self):
        direct = float(np.sum(np.arange(11, 2_000_000, dtype=float) ** -2.0))
        # remaining tail beyond the direct window is ~5e-7; bracket it
        assert zeta_tail(2.0, 10) == pytest.approx(direct + 1.0 / 1_999_999.0, rel=1e-6)

    def test_tail_huge_base(self):
        assert zeta_tail(1.5, 10 ** 20) == pytest.approx(2.0 * 10 ** -10.0, rel=1e-6)

    @pytest.mark.parametrize("s", [300.0, 1000.0, 1100.0])
    def test_tail_window_cut_at_underflow_matches_direct_sum(self, s):
        # the window n + 1..ceil(1.5 s) ends where m^-s underflows to 0
        for n in (0, 1, 2, 5):
            direct = math.fsum(m ** -s for m in range(n + 1, 10 ** 4))
            assert abs(zeta_tail(s, n) - direct) <= math.ulp(direct)

    def test_huge_s_allocates_no_window(self):
        # 2^-3e6 underflows, so none of the 4.5e6 terms is summed
        tracemalloc.start()
        try:
            assert zeta(3e6) == 1.0
            assert zeta_tail(3e6, 1) == 0.0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def _assert_array_zeta_within_4_ulp(s):
    got = zeta(s)
    expected = np.array([zeta(float(v)) for v in s])
    assert np.all(np.abs(got - expected) <= 4.0 * np.spacing(expected))


class TestZetaArray:
    def test_within_4_ulp_of_scalar_on_a_grid(self):
        # near the pole, across the solver's range 1/theta for theta in
        # [1e-4, 1 - 1e-4], and the solver grid itself
        s = np.concatenate([1.0 + np.logspace(-15, 0, 400), np.logspace(0.01, 4, 800),
                            1.0 / np.linspace(1e-4, 1.0 - 1e-4, 2000)])
        _assert_array_zeta_within_4_ulp(s)

    @settings(max_examples=50, deadline=None)
    @given(s=hst.lists(hst.floats(1.0, 1e4, exclude_min=True), min_size=1, max_size=300))
    def test_within_4_ulp_of_scalar(self, s):
        _assert_array_zeta_within_4_ulp(np.array(s))

    def test_shape_kept_and_input_untouched(self):
        s = np.array([[1.5, 2.0], [3.0, 20.0]])
        before = s.copy()
        out = zeta(s)
        assert out.shape == (2, 2)
        assert np.array_equal(s, before)
        assert out[0, 1] == pytest.approx(math.pi ** 2 / 6.0, rel=1e-15)
        assert zeta(np.array([])).size == 0

    def test_domain_errors(self):
        for bad in (1.0, 0.5, math.nan, math.inf):
            with pytest.raises(DomainError):
                zeta(np.array([2.0, bad]))

    def test_huge_s_is_a_domain_error(self):
        # 1/theta for theta = 2.5e-8: the scalar path's explicit window is too large
        with pytest.raises(DomainError, match="explicit terms"):
            zeta(4e7)

    def test_huge_s_is_a_domain_error_in_the_array_path(self):
        # as in the scalar path; above about 1e23 the Euler-Maclaurin tail
        # would overflow, and for larger s return NaN
        for huge in (4e7, 1e24, 1e300):
            with pytest.raises(DomainError, match="explicit terms"):
                zeta(np.array([2.0, huge]))
        assert zeta(np.array([3e7]))[0] == 1.0


class TestLnBeta:
    def test_reciprocal_identity(self):
        assert math.exp(ln_beta(0.5, 1.0)) == pytest.approx(2.0, rel=1e-12)
        assert math.exp(ln_beta(1.0, 1.0)) == pytest.approx(1.0, rel=1e-12)

    def test_half_half_is_pi(self):
        assert math.exp(ln_beta(0.5, 0.5)) == pytest.approx(math.pi, rel=1e-12)

    def test_symmetry_exact(self):
        for a, b in [(0.3, 2.7), (1.25, 6.5), (0.01, 0.02), (4.0, 9.0)]:
            assert ln_beta(a, b) == ln_beta(b, a)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            ln_beta(0.0, 1.0)
        with pytest.raises(DomainError):
            ln_beta(1.0, -3.0)
