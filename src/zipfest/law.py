"""Power-law urn models, their exact finite-n moment oracles and ball draws.

The central object is :class:`PowerLaw`, either an exact zeta law

    p_i = (i - i0)^(-1/theta) / zeta(1/theta),   i > i0,

or a generic law given by an explicit probability table.  A law knows how to

* evaluate per-urn probabilities and the counting function
  alpha(x) = max{ j : p_j >= 1/x } (for the zeta law in closed form:
  alpha(x) = i0 + floor((x / zeta(1/theta))^theta), i.e. (c x)^theta with
  c = 1/zeta(1/theta); note the division by zeta, which is what the
  definition of alpha forces),
* compute exact expectations of the occupancy statistics R, U, R_k, R*_k
  for a fixed number of balls or a poissonized horizon, and
* draw the support positions of independent balls: zeta laws by
  rejection-inversion (Hoermann & Derflinger, "Rejection-inversion to
  generate variates from monotone discrete distributions", ACM TOMACS 6(3),
  1996), which needs no table and costs O(1) per ball at any exponent;
  table laws by inverting their cumulative table.

Truncation policy: the support is cut at the smallest index whose remaining
tail mass is below ``tail_epsilon`` (default 1e-12).  Oracles never
renormalize; the tail contribution beyond the enumeration window is added
through alternating series in the exact zeta tail sums, with the truncation
remainder bounded explicitly.  Sampling renormalizes over the retained
support and records the discarded mass.

For exponents near 1 the cutoff is astronomically large.  Zeta-law positions
are float64: exact integers below 2^53, 53 significant bits beyond it.  A law
whose cutoff exceeds the float64 range (theta above about 0.963 at the
default ``tail_epsilon``, 0.981 at 1e-6) still has its oracles but cannot be
sampled.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .asymptotics import log_growth
from .errors import DomainError, UsageError, ZipfestError
from .specfun import ln_gamma, zeta, zeta_tail

__all__ = ["PowerLaw", "make_zipf_law", "zeta_normalization"]

# Enumeration window for the expectation oracles stops once n * p <= this.
_ORACLE_SMALLNESS = 0.125
_ORACLE_MIN_WINDOW = 4096

_STATS = ("r", "u", "rk", "rstar")


def _binomial_coefficient(n: int, j: int) -> float:
    out = 1.0
    for i in range(j):
        out *= (n - i) / (i + 1)
    return out


def _pow_one_minus(x: np.ndarray, n: int) -> np.ndarray:
    """(1 - x)^n for x >= 0 (x may exceed 1), integer n, elementwise."""
    b = 1.0 - x
    out = np.empty_like(b)
    pos = b > 0.0
    out[pos] = np.exp(n * np.log1p(-x[pos]))
    neg = b < 0.0
    sign = 1.0 if n % 2 == 0 else -1.0
    out[neg] = sign * np.exp(n * np.log(-b[neg]))
    out[b == 0.0] = 0.0 if n > 0 else 1.0
    return out


@dataclass(frozen=True)
class PowerLaw:
    """Immutable urn probability law, shareable across workers.

    Use :func:`make_zipf_law` or :meth:`PowerLaw.from_probabilities` to
    construct one.
    """

    kind: str  # "zeta" | "table"
    theta: float | None
    i0: int
    c: float | None
    cutoff: int
    tail_epsilon: float
    discarded_mass: float
    total_mass: float
    _s: float | None = field(repr=False, default=None)
    _zeta_s: float | None = field(repr=False, default=None)
    _table_cum: np.ndarray = field(repr=False, default=None)
    _table_probs: np.ndarray = field(repr=False, default=None)
    _table_indices: np.ndarray = field(repr=False, default=None)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @staticmethod
    def zipf(theta: float, i0: int = 0, tail_epsilon: float = 1e-12) -> "PowerLaw":
        """Exact zeta law with exponent ``theta`` and index shift ``i0``."""
        if not (isinstance(theta, (int, float)) and 0.0 < theta < 1.0):
            raise DomainError(f"theta must lie in (0, 1), got {theta!r}")
        if not (isinstance(i0, (int, np.integer)) and i0 >= 0):
            raise DomainError(f"i0 must be a non-negative integer, got {i0!r}")
        if not (0.0 < tail_epsilon <= 1e-6):
            raise DomainError(
                f"tail_epsilon must lie in (0, 1e-6], got {tail_epsilon!r}")
        theta = float(theta)
        s = 1.0 / theta
        zeta_s = zeta(s)
        c = 1.0 / zeta_s
        cutoff = _minimal_cutoff(s, c, tail_epsilon)
        discarded = c * zeta_tail(s, cutoff)
        return PowerLaw(
            kind="zeta", theta=theta, i0=int(i0), c=c, cutoff=cutoff,
            tail_epsilon=float(tail_epsilon), discarded_mass=discarded,
            total_mass=1.0 - discarded, _s=s, _zeta_s=zeta_s,
        )

    @staticmethod
    def from_probabilities(probabilities: Sequence[float],
                           indices: Sequence[int] | None = None,
                           theta: float | None = None,
                           c: float | None = None) -> "PowerLaw":
        """Law from an explicit probability table (non-increasing, positive).

        ``theta``/``c`` are optional metadata enabling the closed-form
        operations (leading terms) that need them.  Probabilities must sum
        to 1 within 1e-6 and are renormalized exactly.
        """
        probs = np.asarray(probabilities, dtype=float)
        if probs.ndim != 1 or probs.size == 0:
            raise DomainError("probability table must be a non-empty 1-d sequence")
        if np.any(~np.isfinite(probs)) or np.any(probs <= 0.0):
            raise DomainError("probabilities must be finite and positive")
        if np.any(np.diff(probs) > 0.0):
            raise DomainError("probabilities must be non-increasing")
        total = float(probs.sum())
        if abs(total - 1.0) > 1e-6:
            raise DomainError(f"probabilities sum to {total!r}, expected 1 within 1e-6")
        probs = probs / total
        if indices is None:
            idx = np.arange(1, probs.size + 1, dtype=np.int64)
        else:
            idx = np.asarray(indices, dtype=np.int64)
            if idx.shape != probs.shape or np.any(np.diff(idx) <= 0):
                raise DomainError("indices must be strictly increasing and match the table")
        if theta is not None and not (0.0 < theta < 1.0):
            raise DomainError(f"theta metadata must lie in (0, 1), got {theta!r}")
        return PowerLaw(
            kind="table", theta=theta, i0=int(idx[0] - 1),
            c=c, cutoff=int(probs.size), tail_epsilon=0.0,
            discarded_mass=0.0, total_mass=1.0,
            _table_cum=np.cumsum(probs), _table_probs=probs, _table_indices=idx,
        )

    # ------------------------------------------------------------------
    # point evaluations
    # ------------------------------------------------------------------

    def probability(self, i: int) -> float:
        """Model probability of urn ``i`` (0.0 off the support)."""
        if self.kind == "zeta":
            m = i - self.i0
            if m < 1:
                return 0.0
            return self.c * float(m) ** (-self._s)
        pos = np.searchsorted(self._table_indices, i)
        if pos < self._table_indices.size and self._table_indices[pos] == i:
            return float(self._table_probs[pos])
        return 0.0

    def counting_function(self, x: float) -> int:
        """alpha(x) = max{ j : p_j >= 1/x }; 0 when even the top urn is lighter.

        Closed form for the zeta law (with a +-1 verification step so the
        result matches the definition under float probabilities), rank count
        by binary search for table laws.
        """
        if not (x > 0.0 and math.isfinite(x)):
            raise DomainError(f"counting_function requires finite x > 0, got {x!r}")
        inv_x = 1.0 / x
        if self.kind == "table":
            return int(np.searchsorted(-self._table_probs, -inv_x, side="right"))
        j = int(math.floor((self.c * x) ** self.theta))
        p_of = lambda m: self.c * float(m) ** (-self._s)
        while p_of(j + 1) >= inv_x:
            j += 1
        while j >= 1 and p_of(j) < inv_x:
            j -= 1
        return 0 if j < 1 else self.i0 + j

    # ------------------------------------------------------------------
    # leading-order growth terms
    # ------------------------------------------------------------------

    def leading_term(self, n: float, stat: str, k: int | None = None) -> float:
        """First-order growth term of E[stat] as a function of n
        (:func:`asymptotics.log_growth` lists the four)."""
        stat, k = _check_stat(stat, k)
        if self.theta is None or self.c is None:
            raise DomainError("leading_term needs theta and c; this law has no such metadata")
        if not n > 0:
            raise DomainError(f"n must be positive, got {n!r}")
        return math.exp(log_growth(self.theta, math.log(self.c * n), stat, k))

    # ------------------------------------------------------------------
    # exact expectation oracle
    # ------------------------------------------------------------------

    def expected_statistic(self, n: float, stat: str, mode: str = "fixed",
                           k: int | None = None) -> float:
        """Exact E[stat] under ``n`` balls (mode="fixed", integer n) or a
        poissonized horizon t = n (mode="poissonized", real n).

        Truncated summation over the support plus alternating tail series in
        the exact zeta tail sums; the truncation remainder is bounded below
        1e-9 by construction.
        """
        stat, k = _check_stat(stat, k)
        if mode not in ("fixed", "poissonized"):
            raise UsageError(f"unknown mode {mode!r}")
        if not n >= 1:
            raise DomainError(f"n must be >= 1, got {n!r}")
        if mode == "fixed":
            if float(n) != int(n):
                raise DomainError(f"fixed mode needs an integer ball count, got {n!r}")
            n = int(n)
        if stat == "rstar":
            # I(J >= k) = I(J > 0) - sum_{m<k} I(J = m)
            value = self.expected_statistic(n, "r", mode)
            for m in range(1, k):
                value -= self.expected_statistic(n, "rk", mode, k=m)
            return value

        if self.kind == "table":
            probs = self._table_probs
        else:
            window = self._oracle_window(float(n))
            m = np.arange(1, window + 1, dtype=float)
            probs = self.c * m ** (-self._s)

        head = self._head_expectation(probs, n, stat, mode, k)
        tail = 0.0
        if self.kind == "zeta" and probs.size < self.cutoff:
            tail = self._tail_expectation(probs.size, n, stat, mode, k)
        return head + tail

    def _oracle_window(self, n: float) -> int:
        # smallest window with n * p <= _ORACLE_SMALLNESS at its edge
        target = (self.c * n / _ORACLE_SMALLNESS) ** self.theta
        window = int(math.ceil(target)) + 1
        return max(min(self.cutoff, _ORACLE_MIN_WINDOW), min(window, self.cutoff))

    @staticmethod
    def _head_expectation(probs, n, stat, mode, k):
        if mode == "fixed":
            if stat == "r":
                terms = -np.expm1(n * np.log1p(-np.minimum(probs, 1.0)))
            elif stat == "u":
                terms = 0.5 * (1.0 - _pow_one_minus(2.0 * probs, n))
            else:
                if k > n:
                    return 0.0
                log_choose = (ln_gamma(n + 1.0) - ln_gamma(k + 1.0)
                              - ln_gamma(n - k + 1.0))
                with np.errstate(divide="ignore"):
                    log_terms = (log_choose + k * np.log(probs)
                                 + (n - k) * np.log1p(-np.minimum(probs, 1.0)))
                terms = np.exp(log_terms)
        else:
            lam = n * probs
            if stat == "r":
                terms = -np.expm1(-lam)
            elif stat == "u":
                terms = 0.5 * -np.expm1(-2.0 * lam)
            else:
                terms = np.exp(-lam + k * np.log(lam) - ln_gamma(k + 1.0))
        return float(np.sum(terms))

    def _tail_sums(self, base: int, orders) -> dict[int, float]:
        s, c = self._s, self.c
        out = {}
        for j in orders:
            out[j] = c ** j * (zeta_tail(j * s, base) - zeta_tail(j * s, self.cutoff))
        return out

    def _tail_expectation(self, base, n, stat, mode, k):
        """Contribution of support indices beyond the enumeration window.

        All per-urn terms there have n*p <= _ORACLE_SMALLNESS, so the
        alternating expansions below converge factorially; the first
        neglected term bounds the truncation error.
        """
        if stat in ("r", "u"):
            scale = 2.0 if stat == "u" else 1.0
            depth = 16
            t = self._tail_sums(base, range(1, depth + 2))
            total = 0.0
            for j in range(1, depth + 1):
                coef = (_binomial_coefficient(n, j) if mode == "fixed"
                        else n ** j / math.factorial(j))
                total += (-1.0) ** (j + 1) * coef * scale ** j * t[j]
            bound_coef = (_binomial_coefficient(n, depth + 1) if mode == "fixed"
                          else n ** (depth + 1) / math.factorial(depth + 1))
            bound = bound_coef * scale ** (depth + 1) * t[depth + 1]
            if not abs(bound) <= 1e-9:
                raise ZipfestError(f"tail series under-converged: bound={bound!r}")
            return (0.5 * total) if stat == "u" else total
        # stat == "rk"
        depth = 14
        t = self._tail_sums(base, range(k, k + depth + 2))
        if t[k] == 0.0:
            # the whole tail underflows before the front factor can overflow
            return 0.0
        total = 0.0
        if mode == "fixed":
            if k > n:
                return 0.0
            front = _binomial_coefficient(n, k)
            for j in range(depth + 1):
                total += (-1.0) ** j * _binomial_coefficient(n - k, j) * t[k + j]
            last = t[k + depth + 1]
            bound = 0.0 if last == 0.0 else front * _binomial_coefficient(n - k, depth + 1) * last
        else:
            front = n ** k / math.factorial(k)
            for j in range(depth + 1):
                total += (-1.0) ** j * n ** j / math.factorial(j) * t[k + j]
            last = t[k + depth + 1]
            bound = 0.0 if last == 0.0 else front * n ** (depth + 1) / math.factorial(depth + 1) * last
        if not abs(bound) <= 1e-9:
            raise ZipfestError(f"tail series under-converged: bound={bound!r}")
        return front * total

    # ------------------------------------------------------------------
    # ball draws
    # ------------------------------------------------------------------

    def draw_positions(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """1-based support positions of ``n`` independent balls.

        Table laws invert their cumulative table (int64 positions).  Zeta
        laws use rejection-inversion over {1, ..., cutoff} with the hat
        x^-s, s = 1/theta, redrawing only the balls still rejected; their
        positions are float64, exact below 2^53.
        """
        if self.kind == "table":
            pos = np.searchsorted(self._table_cum, rng.random(n), side="right") + 1
            return np.minimum(pos, self.cutoff)
        if self.cutoff > sys.float_info.max:
            raise DomainError(
                f"cannot sample theta={self.theta!r}: its support cutoff "
                f"10^{math.log10(self.cutoff):.1f} exceeds the float64 range; "
                "raise tail_epsilon (at 1e-6, theta up to about 0.98 can be sampled)")
        s = self._s
        # u is uniform on (H(3/2) - 1, H(cutoff + 1/2)]; x = H^-1(u) rounds to
        # k, and k is kept when u lies in the top h(k) = k^-s of its stretch
        # (H(k - 1/2), H(k + 1/2)], which convexity makes longer than h(k);
        # k = 1 owns (H(3/2) - 1, H(3/2)], of length exactly h(1) = 1.
        top = _hat_integral(math.log(self.cutoff + 0.5), s)
        bottom = _hat_integral(math.log(1.5), s) - 1.0
        # x >= k - quick puts u in the kept part of k for every k >= 2, so only
        # the other balls need the exact test; beyond 2^53, where x has no
        # fraction left, this is the test that decides
        quick = 2.0 - _hat_integral_inverse(_hat_integral(math.log(2.5), s) - 2.0 ** -s, s)
        cutoff = float(self.cutoff)

        def attempt(size):
            u = top + rng.random(size) * (bottom - top)
            x = _hat_integral_inverse(u, s)
            k = np.minimum(np.maximum(np.floor(x + 0.5), 1.0), cutoff)
            ok = k - x <= quick
            slow = np.flatnonzero(~ok)
            ks = k[slow]
            ok[slow] = u[slow] >= _hat_integral(np.log(ks + 0.5), s) - ks ** -s
            return k, ok

        out, ok = attempt(n)
        todo = np.flatnonzero(~ok)
        while todo.size:
            k, ok = attempt(todo.size)
            out[todo[ok]] = k[ok]
            todo = todo[~ok]
        return out

    def positions_to_urns(self, positions: np.ndarray) -> list[int]:
        """Urn indices, as Python ints, of 1-based support positions."""
        if self.kind == "zeta":
            return [int(p) + self.i0 for p in positions.tolist()]
        return self._table_indices[positions - 1].tolist()

    def describe(self) -> dict:
        out = {
            "kind": self.kind,
            "i0": self.i0,
            "cutoff": self.cutoff,
            "tail_epsilon": self.tail_epsilon,
            "discarded_mass": self.discarded_mass,
        }
        if self.theta is not None:
            out["theta"] = self.theta
        if self.c is not None:
            out["c"] = self.c
        return out


def _check_stat(stat: str, k):
    if stat not in _STATS:
        raise UsageError(f"unknown statistic {stat!r}; expected one of {_STATS}")
    if stat in ("rk", "rstar"):
        if k is None or int(k) < 1:
            raise UsageError(f"statistic {stat!r} needs k >= 1, got {k!r}")
        return stat, int(k)
    return stat, None


def _minimal_cutoff(s: float, c: float, eps: float) -> int:
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


def _hat_integral(log_x, s: float):
    """H(x) = (x^(1-s) - 1) / (1-s), the antiderivative of the hat x^-s with
    H(1) = 0, from ln x; increasing, with H(x) -> 1/(s-1) as x -> inf."""
    return np.expm1((1.0 - s) * log_x) / (1.0 - s)


def _hat_integral_inverse(y, s: float):
    """H^-1(y) = (1 + (1-s) y)^(1/(1-s)) for y < 1/(s-1)."""
    return np.exp(np.log1p((1.0 - s) * y) / (1.0 - s))


def make_zipf_law(theta: float, i0: int = 0, tail_epsilon: float = 1e-12) -> PowerLaw:
    """Construct the exact zeta law p_i = (i-i0)^(-1/theta) / zeta(1/theta)."""
    return PowerLaw.zipf(theta, i0=i0, tail_epsilon=tail_epsilon)


def zeta_normalization(theta):
    """c(theta) = 1 / zeta(1/theta), the zeta-law normalization constant as a
    (differentiable) function of the exponent.  Accepts scalars or arrays;
    an array takes one call of the array ``zeta``."""
    if np.ndim(theta) == 0:
        th = float(theta)
        if not 0.0 < th < 1.0:
            raise DomainError(f"theta must lie in (0, 1), got {theta!r}")
        return 1.0 / zeta(1.0 / th)
    th = np.asarray(theta, dtype=float)
    if not np.all((th > 0.0) & (th < 1.0)):
        raise DomainError(f"theta must lie in (0, 1), got {theta!r}")
    return 1.0 / zeta(1.0 / th)
