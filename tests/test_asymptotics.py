import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from zipfest.asymptotics import (CovarianceSpec, implicit_variance, ratio_k_variance,
                                 ratio_r1_variance)
from zipfest.errors import DomainError, UsageError
from zipfest.specfun import ln_gamma

SQRT_PI = math.sqrt(math.pi)


def cov_matrix(spec, times):
    """Covariance of every component at every time, ordered time-major."""
    keys = [(t, i) for t in times for i in range(spec.nu + 1)]
    return np.array([[spec.cov(i, j, ta, tb) for tb, j in keys] for ta, i in keys])


def six_branch_cov(theta, i, j, tau, t):
    """c_ij(tau, t) as the six (i, j) cases of raw powers that the one formula
    replaced, kept as a reference for times near 1."""
    if tau > t:
        return six_branch_cov(theta, j, i, t, tau)
    th = theta
    if i == 0 and j == 0:
        return ((t + tau) ** th - t ** th) * math.exp(ln_gamma(1.0 - th))
    if i == j:
        g_i = math.exp(ln_gamma(i - th) - ln_gamma(i + 1.0))
        g_2i = math.exp(ln_gamma(2 * i - th) - 2.0 * ln_gamma(i + 1.0))
        return th * (tau ** i * t ** (th - i) * g_i
                     - tau ** i * t ** i * (t + tau) ** (th - 2 * i) * g_2i)
    if i == 0:  # j > 0
        g_j = math.exp(ln_gamma(j - th) - ln_gamma(j + 1.0))
        return th * (t ** j * (t + tau) ** (th - j)
                     - (t - tau) ** j * t ** (th - j)) * g_j
    if j == 0:  # i > 0
        g_i = math.exp(ln_gamma(i - th) - ln_gamma(i + 1.0))
        return th * tau ** i * (t + tau) ** (th - i) * g_i
    if i < j:
        g_first = math.exp(ln_gamma(j - th) - ln_gamma(i + 1.0) - ln_gamma(j - i + 1.0))
        g_second = math.exp(ln_gamma(i + j - th) - ln_gamma(i + 1.0) - ln_gamma(j + 1.0))
        return th * (tau ** i * (t - tau) ** (j - i) * t ** (th - j) * g_first
                     - tau ** i * t ** j * (t + tau) ** (th - i - j) * g_second)
    # i > j >= 1
    g_second = math.exp(ln_gamma(i + j - th) - ln_gamma(i + 1.0) - ln_gamma(j + 1.0))
    return -th * tau ** i * t ** j * (t + tau) ** (th - i - j) * g_second


class TestImplicitVariance:
    def test_values_at_half(self):
        assert implicit_variance(0.5, "r") == pytest.approx(math.sqrt(2.0) - 1.0, rel=1e-12)
        assert implicit_variance(0.5, "u") == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)
        # 1 - 2^0.5 Gamma(1.5) / (4 Gamma(0.5)) = 1 - 2^0.5/8... = 0.8232233
        assert implicit_variance(0.5, "rk", 1) == pytest.approx(0.8232233047, abs=1e-9)

    def test_rk_variance_in_unit_interval(self):
        for theta in np.arange(0.001, 1.0, 0.001):
            for k in range(1, 7):
                v = implicit_variance(float(theta), "rk", k)
                assert 0.0 < v < 1.0

    def test_errors(self):
        with pytest.raises(DomainError):
            implicit_variance(1.0, "r")
        with pytest.raises(UsageError):
            implicit_variance(0.5, "bogus")
        with pytest.raises(DomainError):
            implicit_variance(0.5, "rk", 0)


class TestRatioVariances:
    def test_r1_value_at_half(self):
        # theta (1-theta) (1 - 2^(theta-2)) at 1/2
        expected = 0.25 * (1.0 - 2.0 ** -1.5)
        assert ratio_r1_variance(0.5) == pytest.approx(expected, rel=1e-12)
        assert ratio_r1_variance(0.5) == pytest.approx(0.1616116524, abs=1e-9)

    def test_r1_vanishes_at_edges(self):
        assert ratio_r1_variance(1e-8) < 1e-7
        assert ratio_r1_variance(1.0 - 1e-8) < 1e-7

    def test_r1_positive_and_bounded(self):
        for theta in np.arange(0.001, 1.0, 0.001):
            v = ratio_r1_variance(float(theta))
            assert 0.0 < v < 4.0

    def test_k_values_at_half(self):
        # k=1: 0.5*2.5 - 1.75/(2^3.5 * B(0.5,1)) with B(0.5,1) = 2
        assert ratio_k_variance(0.5, 1) == pytest.approx(1.1726601958, abs=1e-9)
        # k=2: 1.5*4.5 - 3.75/(2 * 2^5.5 * B(1.5,2)) with B(1.5,2) = 4/15
        expected = 6.75 - 3.75 / (2.0 * 2.0 ** 5.5 * (4.0 / 15.0))
        assert ratio_k_variance(0.5, 2) == pytest.approx(expected, rel=1e-12)
        assert ratio_k_variance(0.5, 2) == pytest.approx(6.5946298576, abs=1e-9)

    def test_k_positive(self):
        for theta in np.arange(0.001, 1.0, 0.001):
            for k in range(1, 7):
                assert ratio_k_variance(float(theta), k) > 0.0

    @pytest.mark.parametrize("theta", [0.1, 0.5, np.array([0.3, 0.9])])
    def test_k_up_to_2_63(self, theta):
        # from k = 2^40 the second term, about 0.14 sqrt(k), is far below an
        # ulp of the first, so the variance is the first alone, as just below
        # 2^40; the full formula overflowed near k = 2^63
        for k in (2 ** 40 - 1, 2 ** 40, 2 ** 62, 2 ** 63):
            first = (k - theta) * (2 * k + 1 - theta)
            assert np.array_equal(ratio_k_variance(theta, k), first), k


class TestCovarianceFunction:
    def test_branch_values_at_half(self):
        spec = CovarianceSpec(0.5, nu=2)
        assert spec.cov(0, 0, 1.0, 1.0) == pytest.approx(
            math.sqrt(2.0 * math.pi) - SQRT_PI, rel=1e-12)          # 0.7341744
        assert spec.cov(1, 1, 1.0, 1.0) == pytest.approx(0.7295626583, abs=1e-9)
        assert spec.cov(0, 1, 1.0, 1.0) == pytest.approx(0.6266570687, abs=1e-9)
        assert spec.cov(0, 0, 0.5, 1.0) == pytest.approx(
            (1.5 ** 0.5 - 1.0) * SQRT_PI, rel=1e-12)                # 0.3983499
        assert spec.cov(1, 2, 1.0, 1.0) == pytest.approx(-0.0587491002, abs=1e-9)
        assert spec.cov(2, 2, 1.0, 1.0) == pytest.approx(0.1848385437, abs=1e-9)

    def test_matrix_matches_covariance_entries(self):
        # closed form of the (occupied, singleton) covariance at t = 1:
        #   Gamma(1-theta) [[2^theta - 1,        theta 2^(theta-1)],
        #                   [theta 2^(theta-1),  theta (1 - 2^(theta-2) (1-theta))]]
        # the off-diagonal is positive: per urn, {exactly one ball} implies
        # {occupied}, so the two indicator sums co-fluctuate
        for theta in (0.2, 0.5, 0.8):
            off = theta * 2.0 ** (theta - 1.0)
            closed = math.exp(ln_gamma(1.0 - theta)) * np.array([
                [2.0 ** theta - 1.0, off],
                [off, theta * (1.0 - 2.0 ** (theta - 2.0) * (1.0 - theta))]])
            spec = CovarianceSpec(theta, nu=1)
            for i in range(2):
                for j in range(2):
                    assert spec.cov(i, j, 1.0, 1.0) == pytest.approx(closed[i, j],
                                                                     rel=1e-12)
            assert closed[0, 1] > 0.0

    def test_matrix_determinant_positive(self):
        m = cov_matrix(CovarianceSpec(0.5, nu=1), [1.0])
        det = float(np.linalg.det(m))
        assert det == pytest.approx(0.1429271625, abs=1e-9)
        assert det > 0.0

    def test_ratio_identity_spot_grid(self):
        # ratio-r1 variance equals the quadratic form of the 2x2 matrix
        for theta in (0.05, 0.31, 0.5, 0.77, 0.95):
            v = cov_matrix(CovarianceSpec(theta, nu=1), [1.0])
            lhs = (v[1, 1] + theta ** 2 * v[0, 0] - 2.0 * theta * v[0, 1]) \
                / math.exp(ln_gamma(1.0 - theta))
            assert lhs == pytest.approx(ratio_r1_variance(theta), abs=1e-12)

    def test_implicit_variance_identity_spot_grid(self):
        # the implicit variances are c_00(1, 1) and c_kk(1, 1) over their
        # growth terms Gamma(1-theta) and theta Gamma(k-theta)/k!
        for theta in (0.05, 0.31, 0.5, 0.77, 0.95):
            spec = CovarianceSpec(theta, nu=7)
            assert spec.cov(0, 0, 1.0, 1.0) / math.exp(ln_gamma(1.0 - theta)) == \
                pytest.approx(implicit_variance(theta, "r"), abs=1e-12)
            for k in range(1, 8):
                growth = theta * math.exp(ln_gamma(k - theta) - ln_gamma(k + 1.0))
                assert spec.cov(k, k, 1.0, 1.0) / growth == \
                    pytest.approx(implicit_variance(theta, "rk", k), abs=1e-12), k

    def test_ratio_k_identity_spot_grid(self):
        for theta in (0.1, 0.5, 0.9):
            spec = CovarianceSpec(theta, nu=7)
            for k in range(1, 6):
                quad = ((k - theta) ** 2 * spec.cov(k, k, 1.0, 1.0)
                        - 2.0 * (k - theta) * (k + 1) * spec.cov(k, k + 1, 1.0, 1.0)
                        + (k + 1) ** 2 * spec.cov(k + 1, k + 1, 1.0, 1.0))
                denom = theta * math.exp(ln_gamma(k - theta) - ln_gamma(k + 1.0))
                assert quad / denom == pytest.approx(ratio_k_variance(theta, k),
                                                     abs=1e-10)

    @settings(max_examples=80, deadline=None)
    @given(theta=hst.floats(0.05, 0.95), i=hst.integers(0, 3), j=hst.integers(0, 3),
           tau=hst.floats(0.05, 2.0), t=hst.floats(0.05, 2.0))
    def test_symmetry(self, theta, i, j, tau, t):
        spec = CovarianceSpec(theta, nu=3)
        assert spec.cov(i, j, tau, t) == pytest.approx(spec.cov(j, i, t, tau),
                                                       rel=1e-12, abs=1e-300)

    @settings(max_examples=80, deadline=None)
    @given(theta=hst.floats(0.05, 0.95), i=hst.integers(0, 3), j=hst.integers(0, 3),
           tau=hst.floats(0.05, 1.0), t=hst.floats(0.05, 1.0),
           a=hst.floats(0.01, 10.0))
    def test_self_similarity(self, theta, i, j, tau, t, a):
        spec = CovarianceSpec(theta, nu=3)
        lhs = spec.cov(i, j, a * tau, a * t)
        rhs = a ** theta * spec.cov(i, j, tau, t)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-13)

    @pytest.mark.parametrize("a", [1e-300, 1e-150, 1e150, 1e300])
    def test_self_similarity_at_extreme_scales(self, a):
        # every time is a power of 2, so a tau / (a t) = tau / t exactly
        for theta in (0.05, 0.5, 0.95):
            spec = CovarianceSpec(theta, nu=8)
            for tau, t in [(1.0, 1.0), (0.25, 1.0), (1.0, 0.5), (0.5, 2.0)]:
                for i in range(9):
                    for j in range(9):
                        rhs = a ** theta * spec.cov(i, j, tau, t)
                        if math.isfinite(rhs):
                            assert spec.cov(i, j, a * tau, a * t) == pytest.approx(
                                rhs, rel=1e-12, abs=0.0), (theta, tau, t, i, j)

    @pytest.mark.parametrize("thetas, nu, indices, times", [
        (np.linspace(0.01, 0.99, 99), 8, [(i, j) for i in range(9) for j in range(9)],
         [(1, 1), (0.5, 1), (1, 0.5), (0.25, 0.5), (1e-3, 1), (3, 7)]),
        # i + j > 170, where m! and Gamma(m - theta) exceed the float range
        ((0.1, 0.5, 0.9), 200, [(85, 86), (100, 100), (3, 190), (190, 3), (200, 150)],
         [(1.0, 1.0), (0.5, 1.0), (1.0, 0.75)]),
    ], ids=["up-to-8", "past-170"])
    def test_one_formula_matches_the_six_branches(self, thetas, nu, indices, times):
        for theta in map(float, thetas):
            spec = CovarianceSpec(theta, nu=nu)
            for tau, t in times:
                for i, j in indices:
                    scale = math.sqrt(spec.cov(i, i, tau, tau) * spec.cov(j, j, t, t))
                    reference = six_branch_cov(theta, i, j, tau, t)
                    assert abs(spec.cov(i, j, tau, t) - reference) <= 1e-12 * scale, \
                        (theta, tau, t, i, j)

    @settings(max_examples=40, deadline=None)
    @given(theta=hst.floats(0.05, 0.95), nu=hst.integers(1, 3),
           times=hst.lists(hst.floats(0.05, 1.0), min_size=2, max_size=5,
                           unique=True))
    def test_grid_matrix_psd(self, theta, nu, times):
        spec = CovarianceSpec(theta, nu=nu)
        matrix = cov_matrix(spec, sorted(times))
        eigenvalues = np.linalg.eigvalsh(matrix)
        assert eigenvalues.min() >= -1e-8

    def test_continuity_at_equal_times(self):
        spec = CovarianceSpec(0.5, nu=3)
        for i, j in [(0, 0), (0, 1), (1, 2), (2, 1), (1, 1)]:
            left = spec.cov(i, j, 1.0 - 1e-9, 1.0)
            assert left == pytest.approx(spec.cov(i, j, 1.0, 1.0), abs=1e-7)

    def test_index_and_domain_errors(self):
        spec = CovarianceSpec(0.5, nu=2)
        with pytest.raises(UsageError):
            spec.cov(0, 3, 0.5, 1.0)
        with pytest.raises(DomainError):
            spec.cov(0, 0, 0.0, 1.0)
        with pytest.raises(DomainError):
            CovarianceSpec(1.2, nu=1)
        with pytest.raises(DomainError):
            CovarianceSpec(0.5, nu=0)


@pytest.mark.parametrize("dtype", [np.float32, np.float16])
def test_a_numpy_float_theta_is_a_float(dtype):
    theta, plain = dtype(0.3), float(dtype(0.3))
    assert implicit_variance(theta, "rk", 2) == implicit_variance(plain, "rk", 2)
    assert ratio_r1_variance(theta) == ratio_r1_variance(plain)
    assert ratio_k_variance(theta, 3) == ratio_k_variance(plain, 3)
    spec = CovarianceSpec(theta, nu=2)
    assert type(spec.theta) is float
    assert spec.cov(1, 2, 0.5, 1.0) == CovarianceSpec(plain, nu=2).cov(1, 2, 0.5, 1.0)


@pytest.mark.parametrize("theta", [True, np.bool_(True), "0.5"])
def test_a_theta_that_is_no_real_number_is_a_domain_error(theta):
    for call in (lambda: implicit_variance(theta, "r"), lambda: ratio_r1_variance(theta),
                 lambda: ratio_k_variance(theta, 1), lambda: CovarianceSpec(theta)):
        with pytest.raises(DomainError, match="real number"):
            call()


@pytest.mark.parametrize("count", [True, False, np.bool_(True)])
def test_a_bool_k_or_nu_is_a_domain_error(count):
    for call in (lambda: ratio_k_variance(0.5, count),
                 lambda: implicit_variance(0.5, "rk", count),
                 lambda: CovarianceSpec(0.5, nu=count)):
        with pytest.raises(DomainError, match="positive integer"):
            call()
