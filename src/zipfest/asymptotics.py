"""Growth terms, closed-form limiting variances and the limiting covariance
function.

All quantities belong to the Gaussian limits of the centered occupancy paths

    Y*_1(t)  from R_[nt]        (component index 0),
    Y_j(t)   from R_[nt],j      (component index j >= 1),

each scaled by sqrt(alpha(n)).  ``CovarianceSpec.cov`` evaluates the
covariance function c_ij(tau, t); the process is self-similar with Hurst
parameter theta/2, i.e. c_ij(a tau, a t) = a^theta c_ij(tau, t).

Every (i, j) is one per-urn Poisson identity (Karlin 1967; Gnedin, Hansen
and Pitman 2007): component j >= 1 counts the urns with exactly j balls and
component 0 is minus the count of empty urns.  For tau <= t, r = tau/t and
a(m) = theta Gamma(m-theta)/m!, so that a(0) = -Gamma(1-theta),

    c_ij(tau, t) = sigma t^theta r^i [C(j, i) a(j) (1-r)^(j-i)
                                      - C(i+j, i) a(i+j) (1+r)^(theta-i-j)],

with C(j, i) = 0 for i > j and sigma = -1 where exactly one of i, j is 0.
Scaling t^theta out leaves every power of r, 1-r and 1+r in [0, 2], so no
finite positive tau, t overflows a power; a value beyond the float range is inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UsageError
from .law import check_theta
from .specfun import ln_beta, ln_gamma

__all__ = ["log_growth", "implicit_variance", "ratio_r1_variance",
           "ratio_k_variance", "CovarianceSpec"]

_LN2 = math.log(2.0)


def _check_theta(theta):
    """theta as a float, or a float array as it is; each value in (0, 1)."""
    if isinstance(theta, np.ndarray):
        if not np.all((theta > 0.0) & (theta < 1.0)):
            raise DomainError(f"theta must lie in (0, 1), got {theta!r}")
        return theta
    return check_theta(theta)


def _check_k(k, name: str = "k") -> int:
    """k as an int, if it is a positive integer; a bool is refused."""
    if not (isinstance(k, (int, np.integer)) and not isinstance(k, bool) and k >= 1):
        raise DomainError(f"{name} must be a positive integer, got {k!r}")
    return int(k)


def _exp(theta):
    """math.exp for a float theta, np.exp for an array."""
    return math.exp if isinstance(theta, float) else np.exp


def log_growth(theta, log_cn, stat: str, k: int | None = None, ln_gamma_1m=None):
    """ln g, with g the first-order growth term of E[S_n] and log_cn = ln(c n):

        r      Gamma(1-theta) (c n)^theta
        u      2^(theta-1) Gamma(1-theta) (c n)^theta
        rk     theta Gamma(k-theta)/k! (c n)^theta

    ``theta`` and ``log_cn`` are floats or arrays of one shape.  A float stays
    on ``math`` and the scalar ``ln_gamma``; callers check ``stat`` and ``k``.
    ``ln_gamma_1m``, if given, is ln Gamma(1-theta), which r, u and rk at
    k = 1 read and so may share; the sum is the same bit for bit.
    """
    scale = theta * log_cn
    if stat == "rk" and k != 1:
        ln_gamma_head = ln_gamma(k - theta)
    elif ln_gamma_1m is None:
        ln_gamma_head = ln_gamma(1.0 - theta)
    else:
        ln_gamma_head = ln_gamma_1m
    if stat == "r":
        return ln_gamma_head + scale
    if stat == "u":
        return ln_gamma_head + scale + (theta - 1.0) * _LN2
    if stat == "rk":
        log = math.log if isinstance(theta, float) else np.log
        return log(theta) + ln_gamma_head - ln_gamma(k + 1.0) + scale
    raise UsageError(f"unknown statistic {stat!r}")


def implicit_variance(theta, which: str, k: int | None = None):
    """Limiting variance of ln n sqrt(S_n) (theta* - theta) for the implicit
    estimator based on S = R ("r"), U ("u") or R_k ("rk"):

        r    2^theta - 1
        u    2^(theta-1)
        rk   1 - 2^theta Gamma(2k-theta) / (2^(2k) k! Gamma(k-theta))

    The variance formulas take a float or a float array of theta; a float
    stays on ``math`` and the scalar ``ln_gamma``, an array may differ from
    it in the last bits.
    """
    theta = _check_theta(theta)
    if which == "r":
        return 2.0 ** theta - 1.0
    if which == "u":
        return 2.0 ** (theta - 1.0)
    if which == "rk":
        k = _check_k(k)
        log_ratio = (theta * math.log(2.0) + ln_gamma(2 * k - theta)
                     - 2 * k * math.log(2.0) - ln_gamma(k + 1.0) - ln_gamma(k - theta))
        return 1.0 - _exp(theta)(log_ratio)
    raise UsageError(f"unknown implicit estimator tag {which!r}")


def ratio_r1_variance(theta):
    """Limiting variance of sqrt(R_n) (R_{n,1}/R_n - theta):

        theta (1 - theta) (1 - 2^(theta-2)).

    Equals the quadratic form (v11 + theta^2 v00 - 2 theta v01) / Gamma(1-theta)
    of v_ij = ``CovarianceSpec(theta).cov(i, j, 1, 1)``, and is confirmed by
    direct simulation of the ratio statistic.
    """
    theta = _check_theta(theta)
    return theta * (1.0 - theta) * (1.0 - 2.0 ** (theta - 2.0))


def ratio_k_variance(theta, k: int):
    """Limiting variance of sqrt(R_{n,k}) ((k R_{n,k} - (k+1) R_{n,k+1})/R_{n,k} - theta):

        (k-theta)(2k+1-theta) - (2k - theta + theta^2)
                                / (k 2^(2k+2-theta) B(k-theta, k))
    """
    theta = _check_theta(theta)
    k = _check_k(k)
    if k >= 2 ** 40:
        # the second term, about 0.14 sqrt(k), is below 1e-19 of the first,
        # and log_denom, a difference of terms near 2k ln 2, loses all its
        # digits as k nears 2^60
        return (k - theta) * (2 * k + 1 - theta)
    log_denom = (math.log(k) + (2 * k + 2 - theta) * math.log(2.0)
                 + ln_beta(k - theta, float(k)))
    return ((k - theta) * (2 * k + 1 - theta)
            - (2 * k - theta + theta ** 2) * _exp(theta)(-log_denom))


@dataclass(frozen=True)
class CovarianceSpec:
    """Evaluator of the limiting covariance function c_ij(tau, t) for the
    (nu+1)-component path vector (index 0 plus 1..nu)."""

    theta: float
    nu: int = 1

    def __post_init__(self):
        object.__setattr__(self, "theta", _check_theta(self.theta))
        _check_k(self.nu, "nu")

    def cov(self, i: int, j: int, tau: float, t: float) -> float:
        """c_ij(tau, t) by the one formula of the module docstring, with
        t^theta scaled out; arguments with tau > t route through the symmetry
        rule c_ij(tau, t) = c_ji(t, tau)."""
        if not (0 <= i <= self.nu and 0 <= j <= self.nu):
            raise UsageError(f"component indices must lie in 0..{self.nu}, got ({i}, {j})")
        if not (tau > 0.0 and t > 0.0):
            raise DomainError(f"times must be positive, got ({tau!r}, {t!r})")
        if tau > t:
            return self.cov(j, i, t, tau)
        th, r = self.theta, tau / t

        def a(m):  # theta Gamma(m - theta) / m!, which is -Gamma(1 - theta) at m = 0
            return th * math.exp(ln_gamma(m + 1.0 - th) - math.log(math.factorial(m))) / (m - th)

        first = math.comb(j, i) * a(j) * (1.0 - r) ** max(j - i, 0)
        second = math.comb(i + j, i) * a(i + j) * (1.0 + r) ** (th - i - j)
        return (-1) ** ((i == 0) + (j == 0)) * t ** th * r ** i * (first - second)
