"""Power-law urn models, their exact finite-n moment oracles and occupancy draws.

The central object is :class:`PowerLaw`, the exact zeta law

    p_i = (i - i0)^(-1/theta) / zeta(1/theta),   i > i0.

A law knows how to

* evaluate the counting function alpha(x) = max{ j : p_j >= 1/x } in
  closed form, alpha(x) = i0 + floor((x / zeta(1/theta))^theta), i.e.
  (c x)^theta with c = 1/zeta(1/theta); note the division by zeta, which is
  what the definition of alpha forces; where alpha is a scale, it counts
  urns (those with x p >= 1, Karlin's alpha), which is alpha(x) - i0,
* compute exact expectations of the occupancy statistics R, U and R_k
  for a fixed number of balls or a poissonized horizon, as sums over the
  urns of P(X = k), C(n, k) p^k (1-p)^(n-k) or (np)^k e^-np / k!, in closed
  form over a window of the heaviest urns and beyond it as one alternating
  series in p with coefficients C(n - k, j) or n^j / j!
  (:meth:`PowerLaw.expected_statistic`), and
* draw the occupancy of n independent balls without drawing each ball:
  the counts of the heaviest urns 1..W, W about alpha(n / B) for n balls
  drawn in B batches, as one multinomial per batch by conditional binomials
  (Devroye, "Non-Uniform Random Variate Generation", 1986, ch. XI), which
  costs a binomial per urn and batch, and the balls beyond urn W one by one
  by rejection-inversion (Hoermann & Derflinger, "Rejection-inversion to
  generate variates from monotone discrete distributions", ACM TOMACS 6(3),
  1996), which needs no table and costs O(1) per ball at any exponent.  The
  cost follows the number of occupied urns, about n^theta, not n, and many
  draws share one pass of the inversion, the sort and the run lengths
  (:meth:`PowerLaw.draw_prefixes`).

Truncation policy: the support is cut at the smallest index whose remaining
tail mass is below the ``tail_epsilon`` of :func:`make_zipf_law` (default
1e-12); the law keeps only that cutoff and the discarded mass.  Oracles never
renormalize; the tail contribution beyond the enumeration window is added
through that series in the exact zeta tail sums, with the truncation
remainder bounded explicitly.  Sampling renormalizes over the retained
support and records the discarded mass.  The cutoff search takes about 55
tail sums at any exponent: beyond 2^53 a tail sum reads its base only
through the base's 53-bit rounding, so the bisection stops, with its exact
answer, once its ends round to adjacent 53-bit values (``_minimal_cutoff``).

For exponents near 1 the cutoff is astronomically large.  Zeta-law tail
positions are float64: exact integers below 2^53, 53 significant bits beyond
it.  A law whose cutoff exceeds the float64 range (theta above about 0.963
at the default ``tail_epsilon``, 0.981 at 1e-6) still has its oracles but
cannot be sampled.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, UsageError, ZipfestError
from .specfun import ln_gamma, zeta, zeta_tail

__all__ = ["PowerLaw", "make_zipf_law", "zeta_normalization"]

# Enumeration window for the expectation oracles stops once n * p <= this.
_ORACLE_SMALLNESS = 0.125
_ORACLE_MIN_WINDOW = 4096
_ORACLE_BLOCK = 1 << 16  # urns summed at once, so memory stays bounded

_STATS = ("r", "u", "rk")


def _usable_memory() -> float:
    """The machine's physical memory in bytes, or the process's soft
    address-space limit (``ulimit -v``) where that is lower."""
    memory = (os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
              if hasattr(os, "sysconf") else math.inf)
    try:
        import resource
    except ImportError:  # Windows, which has no address-space limit to read
        return memory
    limit = resource.getrlimit(resource.RLIMIT_AS)[0]
    return memory if limit == resource.RLIM_INFINITY else min(memory, limit)


#: the bytes this process may hold, which bound a draw
#: (``PowerLaw.head_width``) and a study's M (``montecarlo._check_memory``)
USABLE_MEMORY = _usable_memory()

#: the bytes a draw holds per tail ball, at its peak beyond its head:
#: tracemalloc read 57.6 at one grid time and 68.1 at three, theta = 0.9 and
#: n = 1e5 to 4e6
_TAIL_BALL_BYTES = 72

#: the bytes a draw that builds an urn -> count map holds per urn it may
#: map, a head urn or a tail ball, at its peak beyond its head's 16 per urn:
#: tracemalloc read up to 145 at theta = 0.7 to 0.9 and 159 at 0.95, n =
#: 2e4 to 6e6, in the dict and its Python ints
_URN_MAP_BYTES = 176

#: head counts and tail uniforms that one block of draws holds, about: a
#: block maps, sorts and counts many generators' draws at once, and memory
#: does not grow with their number
_BLOCK_ELEMENTS = 8192


def _binomial_coefficient(n: int, j: int) -> float:
    out = 1.0
    for i in range(j):
        out *= (n - i) / (i + 1)
    return out


def _poisson_coefficient(t: float, j: int) -> float:
    return t ** j / math.factorial(j)


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


def _urn_terms(probs: np.ndarray, n, stat: str, mode: str, k) -> np.ndarray:
    """The terms of :meth:`PowerLaw.expected_statistic` of the urns of
    probabilities ``probs``; the fixed-mode R and R_k share ln(1 - p)."""
    if mode == "poissonized":
        lam = n * probs
        if stat == "r":
            return -np.expm1(-lam)
        if stat == "u":
            return 0.5 * -np.expm1(-2.0 * lam)
        return np.exp(-lam + k * np.log(lam) - ln_gamma(k + 1.0))
    if stat == "u":
        return 0.5 * (1.0 - _pow_one_minus(2.0 * probs, n))
    with np.errstate(divide="ignore"):
        log_miss = np.log1p(-np.minimum(probs, 1.0))
        if stat == "r":
            return -np.expm1(n * log_miss)
        return np.exp(math.log(_binomial_coefficient(n, k)) + k * np.log(probs) + (n - k) * log_miss)


@dataclass(frozen=True)
class PowerLaw:
    """Immutable zeta law, shareable across workers; build one with
    :func:`make_zipf_law`."""

    theta: float
    i0: int
    c: float
    cutoff: int
    discarded_mass: float
    total_mass: float
    _s: float = field(repr=False)

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
        poissonized horizon t = n (mode="poissonized", real n): the sum over
        the urns of P(X = k), X the urn's count, k = 0 for R and U.

        An urn of the enumeration window adds its term in closed form: for n
        balls 1 - (1-p)^n (R), (1 - (1-2p)^n) / 2 (U) and C(n, k) p^k
        (1-p)^(n-k) (R_k); poissonized 1 - e^-np, (1 - e^-2np) / 2 and (np)^k
        e^-np / k!, summed in blocks of 2^16 urns.  Beyond the window every n p
        <= 1/8, and P(X = k) = front * sum_j (-1)^j coef(m, j) p^(k+j), front =
        coef(n, k), is one alternating series in the exact zeta tail sums of
        p's powers, with coef(m, j) = C(m, j), m = n - k, for n balls and m^j /
        j!, m = n, poissonized.  R and U are minus the k = 0 series without its
        first term, U with p doubled and the sum halved.  The first neglected
        term bounds the truncation error, below 1e-9 or the call raises.
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
            if stat == "rk" and k > n:
                return 0.0
        window = self._oracle_window(float(n))
        head = 0.0
        for lo in range(0, window, _ORACLE_BLOCK):
            urns = np.arange(lo + 1, min(lo + _ORACLE_BLOCK, window) + 1, dtype=float)
            head += float(np.sum(_urn_terms(self.c * urns ** (-self._s), n, stat, mode, k)))
        if window == self.cutoff:
            return head
        s, c = self._s, self.c
        # the series runs over j = first..depth, p's powers k + first..k + depth + 1
        if stat == "rk":
            first, depth, scale = 0, 14, 1.0
        else:
            k, first, depth, scale = 0, 1, 16, (2.0 if stat == "u" else 1.0)
        sums = [c ** i * (zeta_tail(i * s, window) - zeta_tail(i * s, self.cutoff))
                for i in range(k + first, k + depth + 2)]
        if stat == "rk" and sums[0] == 0.0:
            return head  # the whole tail underflows before the front factor can overflow
        coef, m = (_binomial_coefficient, n - k) if mode == "fixed" else (_poisson_coefficient, n)
        front = coef(n, k)
        total = 0.0
        for j in range(first, depth + 1):
            total += (-1.0) ** j * coef(m, j) * scale ** j * sums[j - first]
        bound = (0.0 if stat == "rk" and sums[-1] == 0.0
                 else front * coef(m, depth + 1) * scale ** (depth + 1) * sums[-1])
        if not abs(bound) <= 1e-9:
            raise ZipfestError(f"tail series under-converged: bound={bound!r}")
        return head + (front * total if stat == "rk" else -total / scale)

    def _oracle_window(self, n: float) -> int:
        # smallest window with n * p <= _ORACLE_SMALLNESS at its edge
        target = (self.c * n / _ORACLE_SMALLNESS) ** self.theta
        window = int(math.ceil(target)) + 1
        return max(min(self.cutoff, _ORACLE_MIN_WINDOW), min(window, self.cutoff))

    # ------------------------------------------------------------------
    # occupancy draws
    # ------------------------------------------------------------------

    def head_width(self, n: int, grid_times: int = 1, name: str = "n",
                   urn_map: bool = False) -> int:
        """W, the urns whose ball counts :meth:`draw_prefixes` draws as a
        multinomial per batch when it draws n balls in ``grid_times``
        batches: about alpha(n / grid_times) = (c n / grid_times)^theta, the
        urns that expect a ball in the mean batch, at least one and at most
        the cutoff: a head urn costs a binomial per batch, a tail ball one
        rejection-inversion step.  A draw that needs more bytes than
        ``USABLE_MEMORY`` is a usage error that names ``name``, the flag or
        field that set n: 8 per urn of the head for its probabilities, 8 per
        urn and grid time for its counts, and ``_TAIL_BALL_BYTES`` per ball
        expected beyond the head, n times the tail's share of the retained
        mass; a draw that maps each occupied urn to its count (``urn_map``)
        needs ``_URN_MAP_BYTES`` per head urn and tail ball instead."""
        width = max(1, min(self.cutoff, int((self.c * n / grid_times) ** self.theta)))
        balls = n * (self.c * zeta_tail(self._s, width) - self.discarded_mass) / self.total_mass
        need = 8 * width * (1 + grid_times) + (_URN_MAP_BYTES * (width + balls) if urn_map
                                               else _TAIL_BALL_BYTES * balls)
        if need > USABLE_MEMORY:
            raise UsageError(f"{name} = {n} needs a head of {width} urns and about "
                             f"{balls:.3g} tail balls, {need:.3g} bytes, more than the "
                             f"{USABLE_MEMORY} bytes of memory this process may use")
        return width

    def draw_prefixes(self, sizes, rngs):
        """Occupancy of the first m balls of one draw of independent balls
        per generator of ``rngs``, for each m of the non-decreasing ``sizes``.
        A generator is any object with numpy's ``multinomial`` and ``random``,
        such as one seed's stream of a shared, re-keyed generator, which
        draws each top-up from a counter range of its own
        (``sampler._Stream``).

        Balls sizes[j-1]+1..sizes[j] form batch j.  Each generator draws, in
        this order, the counts of positions 1..W, W = ``head_width(sizes[-1],
        len(sizes))``, of each batch as one multinomial by conditional
        binomials, then one uniform per ball beyond W of all its batches in
        one call; the balls are independent, so adding up the batches' counts
        and joining their tails gives the exact joint law of the prefixes,
        whatever W is.  The generators are drawn in blocks of about
        ``_BLOCK_ELEMENTS`` head counts and uniforms: a block takes the next
        generator while, by the size of the last draw, its draw would still
        fit, so a draw larger than that is a block of its own.  Each block
        maps its uniforms to positions (:meth:`_accepted`), then sorts every
        prefix's tails and counts their runs in one pass.

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
        width = self.head_width(sizes[-1], len(sizes))
        probs = self._head_probabilities(width)
        bounds = self._tail_bounds(width + 1) if width < self.cutoff else None
        block, held, last = [], 0, 0
        for rng in rngs:
            if block and held + last > _BLOCK_ELEMENTS:  # the next draw would not fit
                yield self._prefix_block(block, width, bounds)
                block, held = [], 0
            batches = np.array([rng.multinomial(b - a, probs) for a, b in zip([0, *sizes], sizes)])
            balls = sum(batches[:, -1].tolist()) if bounds else 0
            block.append((rng, batches, rng.random(balls) if balls else np.empty(0)))
            last = batches.size + balls
            held += last
        rng = batches = None  # so that the last block frees the last draw as it goes
        if block:
            yield self._prefix_block(block, width, bounds)

    def _prefix_block(self, block, width: int, bounds) -> tuple:
        """The prefixes of :meth:`draw_prefixes` of one block of
        (generator, batch counts, tail uniforms) triples, with the tail
        drawer's ``_tail_bounds(width + 1)``, or None if there is no tail.
        Each array is dropped once it is used up, so that the block's peak
        memory stays near one copy of its draws."""
        rngs, batches, uniforms = zip(*block)
        block.clear()
        counts = np.stack(batches, axis=1)  # [prefix, row, urn], the tail's share last
        del batches
        for j in range(1, len(counts)):
            counts[j] += counts[j - 1]
        if bounds:
            accepted = self._accepted(width + 1, rngs, uniforms, bounds)
        else:
            accepted = np.empty((len(rngs), 0))
        del rngs, uniforms
        # row i of prefix j: the first e_j accepted positions of generator i
        tails = np.where(np.arange(accepted.shape[1]) < counts[:, :, width:], accepted, np.inf)
        del accepted
        tails.sort()
        return (counts[:, :, :width], *_runs(tails.reshape(counts.shape[0] * counts.shape[1], -1)))

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
        left, this is the test that decides.  Positions are float64, exact
        below 2^53, so a law whose cutoff exceeds the float64 range cannot be
        sampled.
        """
        if self.cutoff > sys.float_info.max:
            raise DomainError(
                f"cannot sample theta={self.theta!r}: its support cutoff "
                f"10^{math.log10(self.cutoff):.1f} exceeds the float64 range; "
                "raise tail_epsilon (at 1e-6, theta up to about 0.98 can be sampled)")
        s = self._s
        top = _hat_integral(math.log(self.cutoff + 0.5), s)
        bottom = _hat_integral(math.log(first + 0.5), s) - float(first) ** -s
        # from s about 60, H(2.5) - 2^-s rounds to 1/(s-1), where H^-1 is
        # inf, and quick to -inf: every ball takes the exact test
        with np.errstate(divide="ignore"):
            quick = 2.0 - _hat_integral_inverse(_hat_integral(math.log(2.5), s) - 2.0 ** -s, s)
        return top, bottom - top, quick

    def _accepted(self, first: int, rngs, uniforms, bounds) -> np.ndarray:
        """The support positions, first..cutoff with first >= 2, that the
        uniforms ``uniforms[i]`` drawn from ``rngs[i]`` map to: row i holds
        them in stream order, padded with inf.

        Rejection-inversion with the hat x^-s, s = 1/theta (``bounds`` is
        :meth:`_tail_bounds` from ``first``) maps each uniform on its own,
        every row in one pass; a row that falls short then draws exactly the
        count still missing from its own generator, one ``random`` call per
        round, until every ball is kept.
        """
        top, span, quick = bounds
        want = np.array([u.size for u in uniforms])
        out = np.full((want.size, want.max()), np.inf)
        if not out.size:
            return out
        s = self._s
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

    Beyond 2^53 ``zeta_tail(s, N)`` reads N only through ``math.log(N)``,
    that is through N rounded half-to-even to 53 bits: in (2^(j-1), 2^j], to
    a multiple of unit = 2^(j-53), a tie to an even one.  So once hi - lo <
    unit, lo and hi round to adjacent multiples, every N between them to
    one of the two, and the bisection would end at the first N that rounds
    up: the tie point between the two, or one past it if it rounds down.
    """
    def above(n):
        return c * zeta_tail(s, n) >= eps

    j = max(0, math.ceil(math.log2(eps * (s - 1.0) / c) / (1.0 - s)))
    while j > 0 and not above(2 ** (j - 1)):
        j -= 1
    while above(2 ** j):
        j += 1
    lo, hi = 2 ** j // 2, 2 ** j
    unit = 1 << max(0, j - 53)
    while hi - lo > max(1, unit - 1):
        mid = (lo + hi) // 2
        if above(mid):
            lo = mid
        else:
            hi = mid
    if unit == 1:
        return hi
    q, r = divmod(lo, unit)
    upper = q + 1 + (r > unit // 2 or (r == unit // 2 and q % 2))  # hi's multiple
    return upper * unit - unit // 2 + upper % 2


def _hat_integral(log_x, s: float):
    """H(x) = (x^(1-s) - 1) / (1-s), the antiderivative of the hat x^-s with
    H(1) = 0, from ln x; increasing, with H(x) -> 1/(s-1) as x -> inf."""
    return np.expm1((1.0 - s) * log_x) / (1.0 - s)


def _hat_integral_inverse(y, s: float, out=None):
    """H^-1(y) = (1 + (1-s) y)^(1/(1-s)) for y < 1/(s-1), into the array
    ``out`` if one is given."""
    x = np.log1p(np.multiply(y, 1.0 - s, out=out), out=out)
    return np.exp(np.divide(x, 1.0 - s, out=out), out=out)


def check_theta(theta) -> float:
    """``theta`` as a float, if it is a real scalar in (0, 1), numpy's
    included; a bool is refused."""
    if not (isinstance(theta, (int, float, np.integer, np.floating))
            and not isinstance(theta, bool) and 0.0 < theta < 1.0):
        raise DomainError(f"theta must be a real number in (0, 1), got {theta!r}")
    return float(theta)


def make_zipf_law(theta: float, i0: int = 0, tail_epsilon: float = 1e-12) -> PowerLaw:
    """Construct the exact zeta law p_i = (i-i0)^(-1/theta) / zeta(1/theta)."""
    theta = check_theta(theta)
    if not (isinstance(i0, (int, np.integer)) and i0 >= 0):
        raise DomainError(f"i0 must be a non-negative integer, got {i0!r}")
    if not (0.0 < tail_epsilon <= 1e-6):
        raise DomainError(
            f"tail_epsilon must lie in (0, 1e-6], got {tail_epsilon!r}")
    s = 1.0 / theta
    c = 1.0 / zeta(s)
    cutoff = _minimal_cutoff(s, c, tail_epsilon)
    discarded = c * zeta_tail(s, cutoff)
    return PowerLaw(
        theta=theta, i0=int(i0), c=c, cutoff=cutoff, discarded_mass=discarded,
        total_mass=1.0 - discarded, _s=s,
    )


def zeta_normalization(theta):
    """c(theta) = 1 / zeta(1/theta), the zeta-law normalization constant as a
    (differentiable) function of the exponent.  Accepts scalars or arrays;
    an array takes one call of the array ``zeta``, a scalar the scalar one."""
    th = float(theta) if np.ndim(theta) == 0 else np.asarray(theta, dtype=float)
    if not np.all((th > 0.0) & (th < 1.0)):
        raise DomainError(f"theta must lie in (0, 1), got {theta!r}")
    return 1.0 / zeta(1.0 / th)
