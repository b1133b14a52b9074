"""Power-law urn models, their exact finite-n moment oracles and occupancy draws.

The central object is :class:`PowerLaw`, the exact zeta law

    p_i = (i - i0)^(-1/theta) / zeta(1/theta),   i > i0.

A law knows how to

* evaluate per-urn probabilities and the counting function
  alpha(x) = max{ j : p_j >= 1/x }, in closed form
  alpha(x) = i0 + floor((x / zeta(1/theta))^theta), i.e. (c x)^theta with
  c = 1/zeta(1/theta); note the division by zeta, which is what the
  definition of alpha forces,
* compute exact expectations of the occupancy statistics R, U and R_k
  for a fixed number of balls or a poissonized horizon, and
* draw the occupancy of n independent balls without drawing each ball:
  the counts of the heaviest urns 1..W, W about alpha(n), as one
  multinomial by conditional binomials (Devroye, "Non-Uniform Random
  Variate Generation", 1986, ch. XI), and the balls beyond urn W one by one
  by rejection-inversion (Hoermann & Derflinger, "Rejection-inversion to
  generate variates from monotone discrete distributions", ACM TOMACS 6(3),
  1996), which needs no table and costs O(1) per ball at any exponent.  The
  cost follows the number of occupied urns, about n^theta, not n, and many
  draws share one pass of the inversion, the sort and the run lengths
  (:meth:`PowerLaw.draw_prefixes`).

Truncation policy: the support is cut at the smallest index whose remaining
tail mass is below ``tail_epsilon`` (default 1e-12).  Oracles never
renormalize; the tail contribution beyond the enumeration window is added
through alternating series in the exact zeta tail sums, with the truncation
remainder bounded explicitly.  Sampling renormalizes over the retained
support and records the discarded mass.

For exponents near 1 the cutoff is astronomically large.  Zeta-law tail
positions are float64: exact integers below 2^53, 53 significant bits beyond
it.  A law whose cutoff exceeds the float64 range (theta above about 0.963
at the default ``tail_epsilon``, 0.981 at 1e-6) still has its oracles but
cannot be sampled.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, UsageError, ZipfestError
from .specfun import ln_gamma, zeta, zeta_tail

__all__ = ["PowerLaw", "make_zipf_law", "zeta_normalization"]

# Enumeration window for the expectation oracles stops once n * p <= this.
_ORACLE_SMALLNESS = 0.125
_ORACLE_MIN_WINDOW = 4096

_STATS = ("r", "u", "rk")

#: head counts and tail uniforms that one block of draws holds, about: a
#: block maps, sorts and counts many generators' draws at once, and memory
#: does not grow with their number
_BLOCK_ELEMENTS = 8192


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
    """Immutable zeta law, shareable across workers; build one with
    :func:`make_zipf_law`.  It keeps the constants of its draws (head
    probabilities, tail hat bounds) once computed, since they depend on the
    law and the head width alone."""

    theta: float
    i0: int
    c: float
    cutoff: int
    tail_epsilon: float
    discarded_mass: float
    total_mass: float
    _s: float = field(repr=False)
    # draw constants by head width or first tail urn; see _constant
    _constants: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    # ------------------------------------------------------------------
    # point evaluations
    # ------------------------------------------------------------------

    def probability(self, i: int) -> float:
        """Model probability of urn ``i`` (0.0 off the support)."""
        m = i - self.i0
        if m < 1:
            return 0.0
        return self.c * float(m) ** (-self._s)

    def counting_function(self, x: float) -> int:
        """alpha(x) = max{ j : p_j >= 1/x }; 0 when even the top urn is lighter.

        Closed form, with a +-1 verification step so the result matches the
        definition under float probabilities.
        """
        if not (x > 0.0 and math.isfinite(x)):
            raise DomainError(f"counting_function requires finite x > 0, got {x!r}")
        inv_x = 1.0 / x
        j = int(math.floor((self.c * x) ** self.theta))
        p_of = lambda m: self.c * float(m) ** (-self._s)
        while p_of(j + 1) >= inv_x:
            j += 1
        while j >= 1 and p_of(j) < inv_x:
            j -= 1
        return 0 if j < 1 else self.i0 + j

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
        window = self._oracle_window(float(n))
        m = np.arange(1, window + 1, dtype=float)
        probs = self.c * m ** (-self._s)

        head = self._head_expectation(probs, n, stat, mode, k)
        tail = 0.0
        if window < self.cutoff:
            tail = self._tail_expectation(window, n, stat, mode, k)
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
    # occupancy draws
    # ------------------------------------------------------------------

    def head_width(self, n: int) -> int:
        """W, the urns whose ball counts :meth:`draw_prefixes` draws as one
        multinomial for n balls: about alpha(n) = (c n)^theta, the urns with
        n p >= 1, at least one and at most the cutoff."""
        return max(1, min(self.cutoff, int((self.c * n) ** self.theta)))

    def draw_prefixes(self, sizes, rngs):
        """Occupancy of the first m balls of one draw of independent balls
        per generator of ``rngs``, for each m of the non-decreasing ``sizes``.

        Balls sizes[j-1]+1..sizes[j] form batch j.  Each generator draws, in
        this order, the counts of positions 1..W, W = ``head_width(sizes[-1])``,
        of each batch as one multinomial by conditional binomials, then one
        uniform per ball beyond W of all its batches in one call; the balls
        are independent, so adding up the batches' counts and joining their
        tails gives the exact joint law of the prefixes.  The generators are
        drawn in blocks of about ``_BLOCK_ELEMENTS`` head counts and uniforms:
        a block takes the next generator while, by the size of the last draw,
        its draw would still fit, so a draw larger than that is a block of its
        own.  Each block maps its uniforms to positions (:meth:`_accepted`),
        then sorts every prefix's tails and counts their runs in one pass.

        The accepted-prefix rule makes this the draw of one batch at a time:
        each uniform maps to a ball or is rejected on its own, and a rejected
        ball is redrawn from the next uniforms of its stream, so batch j owns
        exactly the accepted values e_{j-1}+1..e_j of its generator's stream,
        e_j the tail balls of batches 1..j, and the tail of prefix j is the
        first e_j accepted values.

        Yields one (head, rows, positions, counts) tuple per block: head is
        the int64 array of the ball counts of positions 1..W, indexed [m,
        generator, position], empty urns included; row j * g + i stands for
        generator i at m = sizes[j], g generators in the block, and the
        positions beyond W that hold balls are ``positions``, float64 and
        increasing within a row, of row ``rows``, with ``counts`` balls each,
        and a run of 0 balls at inf pads a row (one generator and one m need
        no padding).  A law whose head reaches the cutoff has no tail.
        """
        width = self.head_width(sizes[-1])
        probs = self._constant(("head", width), self._head_probabilities, width)
        tail = width < self.cutoff
        block, held, last = [], 0, 0
        for rng in rngs:
            if block and held + last > _BLOCK_ELEMENTS:  # the next draw would not fit
                yield self._prefix_block(block, width)
                block, held = [], 0
            batches = np.array([rng.multinomial(b - a, probs) for a, b in zip([0, *sizes], sizes)])
            balls = int(batches[:, -1].sum()) if tail else 0
            block.append((rng, batches, rng.random(balls) if balls else np.empty(0)))
            last = batches.size + balls
            held += last
        if block:
            yield self._prefix_block(block, width)

    def _prefix_block(self, block, width: int) -> tuple:
        """The prefixes of :meth:`draw_prefixes` of one block of
        (generator, batch counts, tail uniforms) triples.  Each array is
        dropped once it is used up, so that the block's peak memory stays
        near one copy of its draws."""
        rngs, batches, uniforms = zip(*block)
        block.clear()
        counts = np.stack(batches, axis=1)  # [prefix, row, urn], the tail's share last
        del batches
        for j in range(1, len(counts)):
            counts[j] += counts[j - 1]
        if width < self.cutoff:
            accepted = self._accepted(width + 1, rngs, uniforms)
        else:
            accepted = np.empty((len(rngs), 0))
        del uniforms
        # row i of prefix j: the first e_j accepted positions of generator i
        tails = np.where(np.arange(accepted.shape[1]) < counts[:, :, width:], accepted, np.inf)
        del accepted
        tails.sort()
        return (counts[:, :, :width], *_runs(tails.reshape(len(counts) * len(rngs), -1)))

    def _constant(self, key, make, arg):
        """``make(arg)``, a pure function of the law, computed once per law
        and ``key``."""
        value = self._constants.get(key)
        if value is None:
            value = self._constants[key] = make(arg)
        return value

    def _head_probabilities(self, width: int) -> np.ndarray:
        """The multinomial's probabilities for head width ``width``: positions
        1..width, then the tail's share unless the head reaches the cutoff."""
        m = np.arange(1, width + 1, dtype=float)
        probs = self.c * m ** (-self._s) / self.total_mass
        if width < self.cutoff:
            probs = np.append(probs, 0.0)  # the tail's share
        # the last category gets the mass the others leave, which numpy
        # assumes; p_1 / total_mass alone can round above 1 at cutoff 1
        probs[-1] = max(0.0, 1.0 - probs[:-1].sum())
        return probs

    def _tail_bounds(self, first: int) -> tuple[float, float, float]:
        """(top, bottom - top, quick) of :meth:`_accepted` from urn ``first``.

        u is uniform on (H(first + 1/2) - first^-s, H(cutoff + 1/2)] =
        (bottom, top]; x = H^-1(u) rounds to k, and k is kept when u lies in
        the top h(k) = k^-s of its stretch (H(k - 1/2), H(k + 1/2)], which
        convexity makes longer than h(k); k = first owns (H(first + 1/2) -
        first^-s, H(first + 1/2)], of length exactly h(first).  x >= k -
        quick puts u in the kept part of k for every k >= 2, so only the
        other balls need the exact test; beyond 2^53, where x has no fraction
        left, this is the test that decides.
        """
        s = self._s
        top = _hat_integral(math.log(self.cutoff + 0.5), s)
        bottom = _hat_integral(math.log(first + 0.5), s) - float(first) ** -s
        quick = 2.0 - _hat_integral_inverse(_hat_integral(math.log(2.5), s) - 2.0 ** -s, s)
        return top, bottom - top, quick

    def draw_tail(self, first: int, size: int, rng: np.random.Generator) -> np.ndarray:
        """Support positions of ``size`` independent balls of a zeta law
        conditioned on positions first..cutoff, first >= 2, in the order of
        ``rng``'s stream: the one-generator case of :meth:`_accepted`."""
        return self._accepted(first, [rng], [rng.random(size)])[0]

    def _accepted(self, first: int, rngs, uniforms) -> np.ndarray:
        """The support positions, first..cutoff with first >= 2, that the
        uniforms ``uniforms[i]`` drawn from ``rngs[i]`` map to: row i holds
        them in stream order, padded with inf.

        Rejection-inversion with the hat x^-s, s = 1/theta (see
        :meth:`_tail_bounds`) maps each uniform on its own, every row in one
        pass; a row that falls short then draws exactly the count still
        missing from its own generator, until every ball is kept.  Positions
        are float64, exact below 2^53, so a law whose cutoff exceeds the
        float64 range cannot be sampled.
        """
        if self.cutoff > sys.float_info.max:
            raise DomainError(
                f"cannot sample theta={self.theta!r}: its support cutoff "
                f"10^{math.log10(self.cutoff):.1f} exceeds the float64 range; "
                "raise tail_epsilon (at 1e-6, theta up to about 0.98 can be sampled)")
        want = np.array([u.size for u in uniforms])
        out = np.full((want.size, want.max()), np.inf)
        if not out.size:
            return out
        s = self._s
        top, span, quick = self._constant(("tail", first), self._tail_bounds, first)
        first, cutoff = float(first), float(self.cutoff)
        column = np.arange(out.shape[1])
        filled = np.zeros_like(want)
        live = np.arange(want.size)  # the rows that draw this round
        u = np.concatenate(uniforms)
        while True:
            u *= span
            u += top
            x = _hat_integral_inverse(u, s, out=np.empty_like(u))
            k = x + 0.5
            np.floor(k, out=k)
            np.maximum(k, first, out=k)
            np.minimum(k, cutoff, out=k)
            ok = np.subtract(k, x, out=x) <= quick
            del x
            slow = (~ok).nonzero()[0]
            if slow.size:
                ks = k[slow]
                ok[slow] = u[slow] >= _hat_integral(np.log(ks + 0.5), s) - ks ** -s
            if ok.all():
                kept = want
            else:
                rows = np.repeat(live, want[live] - filled[live])
                kept = filled + np.bincount(rows[ok], minlength=want.size)
                k = k[ok]
            out[(filled[:, None] <= column) & (column < kept[:, None])] = k
            filled = kept
            live = (filled < want).nonzero()[0]
            if not live.size:
                return out
            u = np.concatenate([rngs[i].random(want[i] - filled[i]) for i in live])

    def positions_to_urns(self, positions: np.ndarray) -> list[int]:
        """Urn indices, as Python ints, of 1-based float support positions."""
        return [int(p) + self.i0 for p in positions.tolist()]


def _runs(tails: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, values, counts) of the runs of equal values within the rows of
    ``tails``, each row sorted, in row-major order; the padding of a row, inf,
    is a run of count 0."""
    width = tails.shape[1]
    if not width:
        return np.empty(0, dtype=np.intp), np.empty(0), np.empty(0, dtype=np.intp)
    flat = tails.ravel()
    edge = np.empty(flat.size + 1, dtype=bool)
    edge[0] = edge[-1] = True
    np.not_equal(flat[1:], flat[:-1], out=edge[1:-1])
    edge[width::width] = True  # where a row starts
    edges = edge.nonzero()[0]
    counts = np.diff(edges)
    starts = edges[:-1]
    values = flat[starts]
    counts[values == np.inf] = 0
    return np.floor_divide(starts, width, out=starts), values, counts


def _check_stat(stat: str, k):
    if stat not in _STATS:
        raise UsageError(f"unknown statistic {stat!r}; expected one of {_STATS}")
    if stat == "rk":
        if k is None or int(k) < 1:
            raise UsageError(f"statistic {stat!r} needs k >= 1, got {k!r}")
        return stat, int(k)
    return stat, None


def _minimal_cutoff(s: float, c: float, eps: float) -> int:
    """The smallest N with c * zeta_tail(s, N) < eps.

    The tail falls as c N^(1-s) / (s-1), which puts N near 2^j; j is then
    walked to the first power of two whose tail is below eps, so that
    f(2^j) < eps <= f(2^(j-1)), and N bisected in (2^(j-1), 2^j].
    """
    def above(n):
        return c * zeta_tail(s, n) >= eps

    j = max(0, math.ceil(math.log2(eps * (s - 1.0) / c) / (1.0 - s)))
    while j > 0 and not above(2 ** (j - 1)):
        j -= 1
    while above(2 ** j):
        j += 1
    lo, hi = 2 ** j // 2, 2 ** j
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if above(mid):
            lo = mid
        else:
            hi = mid
    return hi


def _hat_integral(log_x, s: float):
    """H(x) = (x^(1-s) - 1) / (1-s), the antiderivative of the hat x^-s with
    H(1) = 0, from ln x; increasing, with H(x) -> 1/(s-1) as x -> inf."""
    return np.expm1((1.0 - s) * log_x) / (1.0 - s)


def _hat_integral_inverse(y, s: float, out=None):
    """H^-1(y) = (1 + (1-s) y)^(1/(1-s)) for y < 1/(s-1), into the array
    ``out`` if one is given."""
    x = np.log1p(np.multiply(y, 1.0 - s, out=out), out=out)
    return np.exp(np.divide(x, 1.0 - s, out=out), out=out)


def make_zipf_law(theta: float, i0: int = 0, tail_epsilon: float = 1e-12) -> PowerLaw:
    """Construct the exact zeta law p_i = (i-i0)^(-1/theta) / zeta(1/theta)."""
    if not (isinstance(theta, (int, float)) and 0.0 < theta < 1.0):
        raise DomainError(f"theta must lie in (0, 1), got {theta!r}")
    if not (isinstance(i0, (int, np.integer)) and i0 >= 0):
        raise DomainError(f"i0 must be a non-negative integer, got {i0!r}")
    if not (0.0 < tail_epsilon <= 1e-6):
        raise DomainError(
            f"tail_epsilon must lie in (0, 1e-6], got {tail_epsilon!r}")
    theta = float(theta)
    s = 1.0 / theta
    c = 1.0 / zeta(s)
    cutoff = _minimal_cutoff(s, c, tail_epsilon)
    discarded = c * zeta_tail(s, cutoff)
    return PowerLaw(
        theta=theta, i0=int(i0), c=c, cutoff=cutoff,
        tail_epsilon=float(tail_epsilon), discarded_mass=discarded,
        total_mass=1.0 - discarded, _s=s,
    )


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
