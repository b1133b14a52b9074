"""Self-contained special functions: log-Gamma, Riemann zeta, log-Beta.

Everything downstream (growth curves, limiting variances, covariance
branches, truncated-law normalization) is built on these functions, so
they carry their own fixed-coefficient implementations instead of pulling in
an external math library.  Accuracy targets: relative error <= 1e-12 for
ln_gamma on [0.05, 50] (measured against the Gamma scale near the zeros of
ln Gamma), <= 1e-10 for zeta on (1, inf).

``ln_gamma`` and ``zeta`` accept scalars or numpy arrays; ``zeta_tail`` is
scalar.  A float keeps ``zeta`` on the scalar path; an array of s takes a
fixed head sum and one Euler-Maclaurin tail, within a few ulp of it.
``zeta_tail`` takes bases of any size as Python ints, since the zeta law's
cutoff, discarded mass and oracle tail sums need them near theta = 1.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

__all__ = ["ln_gamma", "zeta", "zeta_tail", "ln_beta"]

_HALF_LOG_TWO_PI = 0.9189385332046727417803297364

# Lanczos approximation, g = 7, 9 terms.  This coefficient set gives
# ~1e-14 relative accuracy for Gamma on the positive real axis.
_LANCZOS_G = 7.0
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

# Bernoulli numbers B_2 .. B_12 for the Euler-Maclaurin tail.
_BERNOULLI_EVEN = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
)


def _lanczos_ln_gamma(z):
    """Lanczos series for z >= 0.5 (array-safe)."""
    z = np.asarray(z, dtype=float)
    series = np.full_like(z, _LANCZOS_COEF[0])
    z_minus_1 = z - 1.0
    for k, coef in enumerate(_LANCZOS_COEF[1:], start=1):
        series = series + coef / (z_minus_1 + k)
    base = z + _LANCZOS_G - 0.5
    return _HALF_LOG_TWO_PI + (z - 0.5) * np.log(base) - base + np.log(series)


def _ln_gamma_scalar(x: float) -> float:
    if not (x > 0.0 and math.isfinite(x)):
        raise DomainError(f"ln_gamma requires finite x > 0, got {x!r}")
    shift = 0.0
    if x < 0.5:
        shift = -math.log(x)
        x = x + 1.0
    series = _LANCZOS_COEF[0]
    for k in range(1, 9):
        series += _LANCZOS_COEF[k] / (x - 1.0 + k)
    base = x + _LANCZOS_G - 0.5
    return shift + _HALF_LOG_TWO_PI + (x - 0.5) * math.log(base) - base + math.log(series)


def ln_gamma(x):
    """Natural log of Gamma(x) for x > 0.

    Scalar in, float out; array in, array out.  Raises DomainError for
    non-positive or non-finite arguments.
    """
    if isinstance(x, (float, int)):
        return _ln_gamma_scalar(float(x))
    arr = np.asarray(x, dtype=float)
    if arr.size == 0:
        return arr.copy()
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise DomainError(f"ln_gamma requires finite x > 0, got {x!r}")
    small = arr < 0.5
    # Shift small arguments through Gamma(x) = Gamma(x+1)/x.
    shifted = np.where(small, arr + 1.0, arr)
    out = _lanczos_ln_gamma(shifted)
    out = np.where(small, out - np.log(arr), out)
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out


def _em_tail(s, n_base):
    """Euler-Maclaurin estimate of sum_{m > n_base} m^-s with an error bound.

    Returns (value, bound).  ``n_base`` may be an arbitrarily large Python
    int (cutoffs near theta = 1 overflow float64); only log arithmetic
    touches it in that regime.
    """
    if n_base > 1e15:
        # Far tail: correction terms are below double resolution, and the
        # leading term must be evaluated in log space for huge bases.
        log_n = math.log(n_base)
        exponent = (1.0 - s) * log_n - math.log(s - 1.0)
        value = math.exp(exponent) if exponent > -745.0 else 0.0
        return value, value * 1e-18
    n_base = float(n_base)
    inv = 1.0 / n_base
    n_pow_ms = n_base ** (-s)
    value = n_base ** (1.0 - s) / (s - 1.0) - 0.5 * n_pow_ms
    rising = s  # (s)_{2k-1} accumulated
    power = n_pow_ms * inv  # n^(-s-2k+1)
    factorial = 2.0
    term = 0.0
    for idx, bern in enumerate(_BERNOULLI_EVEN):
        term = bern / factorial * rising * power
        value = value + term
        two_k = 2 * (idx + 1)
        # not in place: for an array of s, ``rising`` starts as the caller's s
        rising = rising * ((s + two_k - 1.0) * (s + two_k))
        power = power * (inv * inv)
        factorial *= (two_k + 1.0) * (two_k + 2.0)
    # First omitted term (B_14 = 7/6), doubled as a safety margin.
    bound = 2.0 * (7.0 / 6.0) / (factorial) * rising * power
    return value, abs(bound)


# zeta_tail sums at most this many terms explicitly before its
# Euler-Maclaurin base; zeta refuses the s that would need more.
_MAX_EXPLICIT_TERMS = 50_000_000


def _last_positive_term(s, n, base):
    """The largest m in (n, base] with m^-s > 0 in float64, or n if none."""
    if float(base) ** (-s) > 0.0:
        return base
    lo, hi = n, base  # lo is n or has a positive term; hi's term is 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if float(mid) ** (-s) > 0.0:
            lo = mid
        else:
            hi = mid
    return lo


def zeta_tail(s, n):
    """sum_{m > n} m^-s for s > 1, n >= 0.

    The base point is pushed out by explicit summation until the
    Euler-Maclaurin remainder bound drops below 1e-13 of the result.  The
    explicit window ends at its last term that does not underflow to 0, so
    a huge s sums no zeros.
    """
    if not math.isfinite(s) or s <= 1.0:
        raise DomainError(f"zeta_tail requires s > 1, got {s!r}")
    if n < 0:
        raise DomainError(f"zeta_tail requires n >= 0, got {n!r}")
    base = max(int(n), 32, int(math.ceil(1.5 * s)))
    for _ in range(8):
        head = 0.0
        if base > n:
            if base - int(n) > _MAX_EXPLICIT_TERMS:
                raise DomainError(f"zeta_tail(s={s!r}, n={n!r}) needs more than "
                                  "5e7 explicit terms; s is too large")
            stop = _last_positive_term(s, int(n), base)
            if stop - int(n) <= 512:
                head = sum(m ** (-s) for m in range(int(n) + 1, stop + 1))
            else:
                m = np.arange(int(n) + 1, stop + 1, dtype=float)
                head = float(np.sum(m ** (-s)))
        value, bound = _em_tail(s, base)
        total = head + value
        if bound <= 1e-13 * total + 1e-300:
            return total
        base *= 2
    return total


# The array path of ``zeta`` sums j^-s for j = 2.._ZETA_HEAD in the scalar
# path's order, for blocks of _ZETA_BLOCK values of s at a time (temporaries
# of about 64 KiB), and adds one Euler-Maclaurin tail at _ZETA_HEAD.
_ZETA_HEAD = 32
_ZETA_BLOCK = 256


def zeta(s):
    """Riemann zeta(s) = sum_{j>=1} j^-s for s > 1.

    Partial sum plus Euler-Maclaurin tail.  For a float the cutoff adapts so
    the remainder bound stays below 1e-12 of the result even as s -> 1 where
    the bare series converges too slowly to sum directly.  An array of s
    shares the scalar path's first cutoff, 32, where the remainder bound is
    below 1e-22 of the result for every s in (1, 1e4]; there it agrees with
    the scalar path within a few ulp.
    """
    if np.ndim(s) == 0:
        if not math.isfinite(s) or s <= 1.0:
            raise DomainError(f"zeta requires s > 1, got {s!r}")
        return 1.0 + zeta_tail(s, 1)
    arr = np.asarray(s, dtype=float)
    # as the scalar path, which refuses s once its first base, ceil(1.5 s),
    # lies more than 5e7 terms out; for s above about 1e23 the
    # Euler-Maclaurin tail below would overflow
    ok = (arr > 1.0) & (arr <= (_MAX_EXPLICIT_TERMS + 1) / 1.5)
    if not ok.all():
        bad = float(arr[~ok][0])
        if 1.0 < bad < math.inf:
            raise DomainError(f"zeta(s) for s = {bad!r} needs more than 5e7 "
                              "explicit terms; s is too large")
        raise DomainError(f"zeta requires s > 1, got {s!r}")
    flat = arr.ravel()
    head = np.empty_like(flat)
    terms = np.arange(2.0, _ZETA_HEAD + 1.0)
    for lo in range(0, flat.size, _ZETA_BLOCK):
        block = flat[lo:lo + _ZETA_BLOCK, None]
        head[lo:lo + _ZETA_BLOCK] = np.cumsum(terms ** -block, axis=1)[:, -1]
    tail, _ = _em_tail(flat, _ZETA_HEAD)
    return (1.0 + (head + tail)).reshape(arr.shape)


def ln_beta(a, b):
    """log B(a, b) = ln_gamma(a) + ln_gamma(b) - ln_gamma(a + b), a, b > 0."""
    return ln_gamma(a) + ln_gamma(b) - ln_gamma(a + b)
