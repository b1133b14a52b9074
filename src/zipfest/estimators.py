"""Point estimators of the power-law exponent from occupancy snapshots.

Three families:

* implicit estimators: theta* solves  S_n = g(theta)  where g is the
  first-order growth curve of E[S_n] (``asymptotics.log_growth``; needs the
  normalization c(theta) to be known); asymptotic standard error
  sigma(theta*) / (ln n sqrt(S_n)); theta* is the lowest root where g
  rises (with c(theta) = 1/zeta(1/theta), g_rk peaks below theta = 1 for
  every k >= 2, and the second root, beyond the peak, is spurious),
  bisected on the theta grid with g evaluated only where a secant-located,
  certified root cannot replay a step,
* ratio estimators built from two statistics (no c needed):
  R_{n,1}/R_n and (k R_{n,k} - (k+1) R_{n,k+1}) / R_{n,k},
* the log-ratio baseline ln R_n / ln n, consistent but with a
  non-vanishing ln-scale bias, so it gets no normal confidence interval.

Confidence intervals are plug-in: the limiting variance formula evaluated at
the estimate itself, with the normal quantile of ``statistics.NormalDist``
(the fixed ``Z_95`` at the default level 0.95).

:data:`ESTIMATORS` maps each estimator tag to the statistic it reads, how it
is computed, how it is standardized and its limiting variance; the CLI and
the Monte Carlo studies both dispatch through it.  The CLI estimates one
snapshot into an :class:`EstimateResult`; the normality study estimates the
columns of many snapshots (``occupancy.SnapshotColumns``) into arrays of
estimates, equal to the one-snapshot values bit for bit, and of standard
errors, equal up to the last bits of the array variance formulas.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Callable

import numpy as np

from . import asymptotics
from .errors import DomainError, InsufficientDataError, NoRootError, UsageError
from .occupancy import DEFAULT_K_MAX, StatisticsSnapshot

__all__ = ["EstimateResult", "ImplicitSolver", "ratio_estimate_r1",
           "ratio_estimate_k", "log_ratio_estimate", "normal_cdf",
           "confidence_bounds", "EstimatorSpec", "ESTIMATORS",
           "expand_estimators", "snapshot_k_max"]

#: 97.5% normal quantile used for the default 95% intervals.
Z_95 = 1.959963985

_IMPLICIT_TAGS = ("r", "u", "rk")


@dataclass(frozen=True)
class EstimateResult:
    """One point estimate with its plug-in uncertainty."""

    estimator_id: str
    theta_hat: float
    stderr: float
    ci: tuple[float, float]
    level: float
    flags: tuple[str, ...] = ()
    diagnostics: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "estimator": self.estimator_id,
            "theta_hat": self.theta_hat,
            "stderr": self.stderr,
            "ci_lo": self.ci[0],
            "ci_hi": self.ci[1],
            "level": self.level,
            "flags": list(self.flags),
        }


# ----------------------------------------------------------------------
# normal CDF and confidence intervals
# ----------------------------------------------------------------------

def normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def _z_for_level(level: float) -> float:
    if not 0.0 < level < 1.0:
        raise DomainError(f"confidence level must lie in (0, 1), got {level!r}")
    if level == 0.95:
        return Z_95
    return NormalDist().inv_cdf(0.5 + 0.5 * level)


def _clamped_ci(theta_hat: float, stderr: float, level: float) -> tuple[float, float]:
    if stderr == 0.0:
        return (theta_hat, theta_hat)
    half = _z_for_level(level) * stderr
    return (max(theta_hat - half, 0.0), min(theta_hat + half, 1.0))


def confidence_bounds(theta_hat: np.ndarray, stderr: np.ndarray, level: float):
    """The plug-in intervals of arrays of estimates with positive standard
    errors, as (lower, upper) arrays."""
    half = _z_for_level(level) * stderr
    return np.maximum(theta_hat - half, 0.0), np.minimum(theta_hat + half, 1.0)


# ----------------------------------------------------------------------
# implicit estimators
# ----------------------------------------------------------------------

@functools.lru_cache(maxsize=8)
def _c_on_grid(c_of_theta) -> np.ndarray:
    """c(theta) on ``ImplicitSolver``'s theta grid, a class constant, so it
    is computed once per normalization function (read-only, shared)."""
    c_grid = np.asarray(c_of_theta(ImplicitSolver._grid), dtype=float)
    if not np.all(np.isfinite(c_grid) & (c_grid > 0.0)):
        raise DomainError("c(theta) must be finite and positive on (0, 1)")
    c_grid.flags.writeable = False
    return c_grid


class ImplicitSolver:
    """Reusable inverter of one growth curve g(theta) = E-first-order[S_n].

    Precomputes g on a dense grid once (bracket scan), from c(theta) on that
    grid, which every solver of one normalization shares.  Only grid intervals
    where g rises (g[j+1] > g[j]) bracket a statistic, and each statistic
    takes its root in the lowest such bracket, so g need not be monotone:
    a statistic above the peak of g, or one no rising interval reaches,
    has no root.  :meth:`solve_many` bisects the roots of a whole array of
    statistic values in one batch to |delta theta| < 1e-10; :meth:`solve`
    runs the same batch on one value and raises NoRootError where there is
    no root.

    A halving needs only the side of each midpoint, so g is evaluated on a
    few batches rather than at each of the ~23 steps:

    * locate: SECANT_STEPS secant steps on ln g - ln s from the grid ends,
      each clipped to the bracket, put x near the root;
    * certify: x holds the root within REPLAY_EPS if g(x - REPLAY_EPS) < s <
      g(x + REPLAY_EPS) and g rises on the bracket's grid interval and both
      its neighbours (next to a turn of g, or at a grid end, g is too flat);
    * halve: a certified bracket takes the side ``mid < x`` wherever its
      midpoint lies more than REPLAY_EPS from x; g is evaluated at every
      other midpoint.  So roots and step counts are those of evaluating
      every midpoint, bit for bit.

    ``c_of_theta`` is a positive number or a function of theta that also
    takes an array of theta, as ``law.zeta_normalization`` does.
    """

    GRID_POINTS = 2000
    THETA_LO = 1e-4
    THETA_HI = 1.0 - 1e-4
    BISECT_TOL = 1e-10
    BISECT_MAX_STEPS = 80
    SECANT_STEPS = 3
    REPLAY_EPS = 1e-12

    #: outcomes of :meth:`solve_many`
    ROOT, NO_ROOT, BELOW_ONE = range(3)

    _grid = np.linspace(THETA_LO, THETA_HI, GRID_POINTS)

    def __init__(self, which: str, n: int, c_of_theta, k: int | None = None):
        if which not in _IMPLICIT_TAGS:
            raise UsageError(f"unknown implicit estimator tag {which!r}")
        if not (isinstance(n, (int, np.integer)) and n >= 2):
            raise DomainError(f"implicit estimators need integer n >= 2, got {n!r}")
        if which == "rk":
            if k is None or int(k) < 1:
                raise UsageError("implicit rk estimator needs k >= 1")
            k = int(k)
        else:
            k = None
        self.which = which
        self.n = int(n)
        self.k = k
        if callable(c_of_theta):
            c_grid = _c_on_grid(c_of_theta)
        else:
            c_grid = const = float(c_of_theta)
            if not const > 0.0:
                raise DomainError(f"c must be positive, got {c_of_theta!r}")
            c_of_theta = lambda theta: const
        self._c_of_theta = c_of_theta
        self._log_n = math.log(self.n)
        self._g = g = self._g_array(self._grid, c_grid)
        # grid interval j brackets s exactly when s lies in (_g_min[j], _g_max[j]],
        # which is empty wherever g does not rise
        self._g_min = g[:-1]
        self._g_max = np.maximum(g[:-1], g[1:])

    def growth(self, theta: float) -> float:
        """g(theta) for this statistic and sample size."""
        return math.exp(asymptotics.log_growth(
            theta, math.log(self._c_of_theta(theta)) + self._log_n, self.which, self.k))

    def _g_array(self, theta: np.ndarray, c=None) -> np.ndarray:
        """g at an array of theta; ``c``: c(theta) there, if already known."""
        if c is None:
            c = self._c_of_theta(theta)
        return np.exp(asymptotics.log_growth(theta, np.log(c) + self._log_n,
                                             self.which, self.k))

    def _bisect(self, interval, target):
        """Bisect g - target on the grid interval ``interval[i]`` for each
        ``target[i]``, every bracket at once.

        Each bracket halves until it is at most BISECT_TOL wide (then its
        midpoint is the root) or g hits the target exactly at a midpoint,
        after at most BISECT_MAX_STEPS halvings.  All live brackets have
        taken the same number of steps, so that count is one integer.  g
        rises across each bracket, so g - target < 0 at its lower end.
        Returns the roots and each one's step count.  g is evaluated only
        where a certified root cannot tell a midpoint's side (class docstring).
        """
        lo, hi = self._grid[interval], self._grid[interval + 1]
        log_target = np.log(target)
        x0, f0 = lo, np.log(self._g[interval]) - log_target
        x1, f1 = hi, np.log(self._g[interval + 1]) - log_target
        for _ in range(self.SECANT_STEPS):
            with np.errstate(divide="ignore", invalid="ignore"):
                x = np.clip(x1 - f1 * (x1 - x0) / (f1 - f0), lo, hi)
            x = np.where(np.isnan(x), x1, x)  # f1 == f0: stay
            x0, f0, x1, f1 = x1, f1, x, np.log(self._g_array(x)) - log_target
        g_near = self._g_array(np.concatenate([x - self.REPLAY_EPS, x + self.REPLAY_EPS]))
        rises = np.concatenate([[False], self._g[1:] > self._g[:-1], [False]])
        sure = ((g_near[:x.size] < target) & (target < g_near[x.size:])
                & rises[interval] & rises[interval + 1] & rises[interval + 2])
        x = np.where(sure, x, np.nan)  # NaN: evaluate every midpoint
        roots = np.empty(target.size)
        steps = np.zeros(target.size, dtype=int)
        live = np.arange(target.size)
        step = 0
        while live.size:
            done = hi - lo <= self.BISECT_TOL
            if step == self.BISECT_MAX_STEPS:
                done[:] = True
            if np.count_nonzero(done):
                roots[live[done]] = 0.5 * (lo[done] + hi[done])
                steps[live[done]] = step
                keep = ~done
                live, lo, hi, target, x = (a[keep] for a in (live, lo, hi, target, x))
                if not live.size:
                    break
            mid = 0.5 * (lo + hi)
            f_mid = np.where(mid < x, -1.0, 1.0)
            near = np.flatnonzero(~(np.abs(mid - x) > self.REPLAY_EPS))
            if near.size:
                f_mid[near] = self._g_array(mid[near]) - target[near]
            if np.count_nonzero(f_mid) < f_mid.size:
                hit = f_mid == 0.0
                roots[live[hit]] = mid[hit]
                steps[live[hit]] = step
                keep = ~hit
                live, lo, hi, target, x, mid, f_mid = (
                    a[keep] for a in (live, lo, hi, target, x, mid, f_mid))
            up = f_mid < 0.0
            lo = np.where(up, mid, lo)
            hi = np.where(up, hi, mid)
            step += 1
        return roots, steps

    def _roots(self, stats: np.ndarray):
        """The root of g(theta) = s in the lowest rising bracket of each
        s >= 1 of ``stats``.

        Returns (owner, interval, root, steps), one entry per statistic that
        has a root, ordered by the index of that statistic.
        """
        usable = np.flatnonzero(stats >= 1.0)
        order = usable[np.argsort(stats[usable], kind="stable")]
        ranked = stats[order]
        first = np.searchsorted(ranked, self._g_min, side="right")
        count = np.searchsorted(ranked, self._g_max, side="right") - first
        # interval j brackets ranked[first[j]:first[j] + count[j]]: one entry each
        interval = np.repeat(np.arange(count.size), count)
        within = np.arange(interval.size) - np.repeat(np.cumsum(count) - count, count)
        owner = order[np.repeat(first, count) + within]
        # entries run by interval, so each owner's first one is its lowest bracket
        owner, lowest = np.unique(owner, return_index=True)
        interval = interval[lowest]
        roots, steps = self._bisect(interval, stats[owner])
        return owner, interval, roots, steps

    def solve_many(self, stats) -> tuple[np.ndarray, np.ndarray]:
        """theta* for each statistic value, in one batched bisection.

        Returns (theta_hat, outcome): outcome is ROOT, NO_ROOT or BELOW_ONE (a
        value below 1, or NaN) per value, and theta_hat is NaN wherever it is
        not ROOT.  Each ROOT value equals what :meth:`solve` returns for it,
        bit for bit.
        """
        stats = np.asarray(stats, dtype=float).ravel()
        owner, _, roots, _ = self._roots(stats)
        theta_hat = np.full(stats.size, np.nan)
        theta_hat[owner] = roots
        outcome = np.select([~(stats >= 1.0), np.isnan(theta_hat)],
                            [self.BELOW_ONE, self.NO_ROOT], self.ROOT)
        return theta_hat, outcome

    def solve(self, stat_value: float, level: float = 0.95) -> EstimateResult:
        if not stat_value >= 1.0:
            raise InsufficientDataError(
                f"implicit estimation needs a statistic >= 1, got {stat_value!r}")
        _, interval, roots, steps = self._roots(np.array([float(stat_value)]))
        if roots.size == 0:
            raise NoRootError(
                f"no root of g(theta) = {stat_value!r} on "
                f"[{self.THETA_LO}, {self.THETA_HI}] where g rises",
                g_lo=float(self._g[0]), g_hi=float(self._g.max()), target=float(stat_value))
        j = int(interval[0])
        theta_star = float(roots[0])
        sigma_sq = asymptotics.implicit_variance(theta_star, self.which, self.k)
        stderr = math.sqrt(sigma_sq) / (self._log_n * math.sqrt(stat_value))
        tag = f"implicit-{self.which}" if self.which != "rk" else f"implicit-rk({self.k})"
        return EstimateResult(
            estimator_id=tag, theta_hat=theta_star, stderr=stderr,
            ci=_clamped_ci(theta_star, stderr, level), level=level,
            diagnostics={"iterations": int(steps[0]),
                         "bracket": (float(self._grid[j]), float(self._grid[j + 1])),
                         "stat_value": float(stat_value)})

    def stderr_many(self, theta_hat: np.ndarray, stats: np.ndarray) -> np.ndarray:
        """The standard error :meth:`solve` gives each root ``theta_hat[i]``
        of ``stats[i]``, up to the last bits of the array variance formula;
        NaN where theta_hat is NaN."""
        stderr = np.full(theta_hat.size, np.nan)
        ok = np.flatnonzero(~np.isnan(theta_hat))
        sigma_sq = asymptotics.implicit_variance(theta_hat[ok], self.which, self.k)
        stderr[ok] = np.sqrt(sigma_sq) / (self._log_n * np.sqrt(stats[ok]))
        return stderr


# ----------------------------------------------------------------------
# ratio estimators
# ----------------------------------------------------------------------

def ratio_estimate_r1(snapshot: StatisticsSnapshot, level: float = 0.95) -> EstimateResult:
    """theta_hat = R_{n,1} / R_n with plug-in standard error
    sqrt(v(theta_hat) / R_n), v = limiting ratio variance."""
    if snapshot.r < 1:
        raise InsufficientDataError("ratio estimator needs at least one occupied urn")
    theta_hat = snapshot.exact_count(1) / snapshot.r
    if 0.0 < theta_hat < 1.0:
        flags, stderr = (), math.sqrt(asymptotics.ratio_r1_variance(theta_hat) / snapshot.r)
    else:  # the variance formula is 0 at both ends
        flags, stderr = ("degenerate",), 0.0
    return EstimateResult(
        estimator_id="ratio-r1", theta_hat=theta_hat, stderr=stderr,
        ci=_clamped_ci(theta_hat, stderr, level), level=level, flags=flags,
        diagnostics={"r": snapshot.r, "r_1": snapshot.exact_count(1)})


def ratio_estimate_k(snapshot: StatisticsSnapshot, k: int, level: float = 0.95) -> EstimateResult:
    """theta_hat = (k R_{n,k} - (k+1) R_{n,k+1}) / R_{n,k}.

    Estimates outside (0, 1) are flagged, never clamped; only the plug-in
    variance evaluation clamps theta_hat into [0.01, 0.99].
    """
    if not (isinstance(k, (int, np.integer)) and k >= 1):
        raise UsageError(f"k must be a positive integer, got {k!r}")
    if k + 1 > snapshot.k_max:
        raise UsageError(f"snapshot tracks k up to {snapshot.k_max}; k={k} needs k+1")
    r_k = snapshot.exact_count(k)
    if r_k < 1:
        raise InsufficientDataError(f"no urns with exactly {k} balls")
    r_k1 = snapshot.exact_count(k + 1)
    theta_hat = (k * r_k - (k + 1) * r_k1) / r_k
    flags = []
    plug_in = theta_hat
    if not 0.0 < theta_hat < 1.0:
        flags.append("degenerate")
        plug_in = min(max(theta_hat, 0.01), 0.99)
    stderr = math.sqrt(asymptotics.ratio_k_variance(plug_in, k) / r_k)
    return EstimateResult(
        estimator_id=f"ratio-k({k})", theta_hat=theta_hat, stderr=stderr,
        ci=_clamped_ci(theta_hat, stderr, level), level=level, flags=tuple(flags),
        diagnostics={"r_k": r_k, "r_k1": r_k1})


def _ratio_r1_many(columns):
    """(theta_hat, stderr) arrays of :func:`ratio_estimate_r1` over the
    snapshots of ``columns``, NaN where it raises; stderr up to the last bits
    of the array variance formula."""
    r = columns.r
    theta_hat, stderr = np.full(r.size, np.nan), np.full(r.size, np.nan)
    ok = np.flatnonzero(r >= 1)
    theta_hat[ok] = columns.exact_count(1)[ok] / r[ok]
    stderr[ok] = 0.0
    inner = ok[(0.0 < theta_hat[ok]) & (theta_hat[ok] < 1.0)]
    stderr[inner] = np.sqrt(asymptotics.ratio_r1_variance(theta_hat[inner]) / r[inner])
    return theta_hat, stderr


def _ratio_k_many(columns, k):
    """(theta_hat, stderr) arrays of :func:`ratio_estimate_k` over the
    snapshots of ``columns``, NaN where it raises InsufficientDataError;
    stderr up to the last bits of the array variance formula."""
    r_k, r_k1 = columns.exact_count(k), columns.exact_count(k + 1)
    theta_hat, stderr = np.full(r_k.size, np.nan), np.full(r_k.size, np.nan)
    ok = np.flatnonzero(r_k >= 1)
    estimate = (k * r_k[ok] - (k + 1) * r_k1[ok]) / r_k[ok]
    plug_in = np.where((0.0 < estimate) & (estimate < 1.0), estimate,
                       np.clip(estimate, 0.01, 0.99))
    theta_hat[ok] = estimate
    stderr[ok] = np.sqrt(asymptotics.ratio_k_variance(plug_in, k) / r_k[ok])
    return theta_hat, stderr


def log_ratio_estimate(snapshot: StatisticsSnapshot, level: float = 0.95) -> EstimateResult:
    """Baseline theta_hat = ln R_n / ln n.

    Consistent, but ln n (theta_hat - theta) tends to a constant rather
    than a normal limit, so stderr is 0 and the interval is degenerate
    (flag "no-normality").
    """
    n = snapshot.total
    if not (float(n).is_integer() and n >= 2):
        raise DomainError(f"log-ratio estimator needs integer n >= 2, got {n!r}")
    if snapshot.r < 1:
        raise InsufficientDataError("log-ratio estimator needs at least one occupied urn")
    theta_hat = math.log(snapshot.r) / math.log(n)
    flags = ["no-normality"]
    if not 0.0 < theta_hat < 1.0:
        flags.append("degenerate")
    return EstimateResult(
        estimator_id="log-ratio", theta_hat=theta_hat, stderr=0.0,
        ci=(theta_hat, theta_hat), level=level, flags=tuple(flags),
        diagnostics={"r": snapshot.r, "n": int(n)})


# ----------------------------------------------------------------------
# the estimator table
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class EstimatorSpec:
    """How one estimator tag reads a snapshot, and its limit theorem.

    ``statistic(snapshot, k)`` is the S_n of the standardized error:
    ln n sqrt(S_n) (theta_hat - theta) for implicit estimators and
    sqrt(S_n) (theta_hat - theta) for ratio estimators.  ``target(theta, k)``
    is its limiting variance, None when there is no normal limit.
    """

    statistic: Callable
    highest_count: Callable             # k -> highest exact count read
    target: Callable | None
    per_k: bool = False                 # one estimate per requested k
    solver_kind: str | None = None      # ImplicitSolver kind, implicit only
    closed_form: Callable | None = None  # (snapshot, k, level) -> EstimateResult
    # (columns, k) -> (theta_hat, stderr) arrays; closed forms with a normal limit
    closed_form_many: Callable | None = None

    def solver(self, n, c_of_theta, k) -> ImplicitSolver | None:
        """The ImplicitSolver :meth:`estimate` needs; None for closed forms."""
        if self.solver_kind is not None:
            return ImplicitSolver(self.solver_kind, n, c_of_theta, k=k)

    def estimate(self, snapshot, k, level, solver=None) -> EstimateResult:
        """``solver``: what :meth:`solver` returns for this n and k."""
        if self.solver_kind is None:
            return self.closed_form(snapshot, k, level)
        return solver.solve(float(self.statistic(snapshot, k)), level=level)

    def estimate_many(self, columns, k, solver=None) -> tuple[np.ndarray, np.ndarray]:
        """The theta_hat and stderr of :meth:`estimate` on each snapshot of
        ``columns`` (an ``occupancy.SnapshotColumns``), as arrays, NaN where
        it has no root or too little data; an implicit tag solves them all in
        one batch.  theta_hat is equal bit for bit; stderr comes from the
        array variance formulas, so may differ in the last bits."""
        if self.solver_kind is None:
            return self.closed_form_many(columns, k)
        stats = np.asarray(self.statistic(columns, k), dtype=float)
        theta_hat, _ = solver.solve_many(stats)
        return theta_hat, solver.stderr_many(theta_hat, stats)

    def standardize(self, theta_hat, theta, snapshot, k):
        """The standardized error of ``theta_hat``; ``snapshot`` may be
        ``SnapshotColumns`` and ``theta_hat`` an array of its estimates."""
        scale = np.sqrt(self.statistic(snapshot, k))
        if self.solver_kind is not None:
            scale = math.log(snapshot.total) * scale
        return scale * (theta_hat - theta)


ESTIMATORS = {
    "implicit-r": EstimatorSpec(
        lambda snap, k: snap.r, lambda k: 0, solver_kind="r",
        target=lambda theta, k: asymptotics.implicit_variance(theta, "r")),
    "implicit-u": EstimatorSpec(
        lambda snap, k: snap.u, lambda k: 0, solver_kind="u",
        target=lambda theta, k: asymptotics.implicit_variance(theta, "u")),
    "implicit-rk": EstimatorSpec(
        lambda snap, k: snap.exact_count(k), lambda k: k, per_k=True, solver_kind="rk",
        target=lambda theta, k: asymptotics.implicit_variance(theta, "rk", k)),
    "ratio-r1": EstimatorSpec(
        lambda snap, k: snap.r, lambda k: 1,
        closed_form=lambda snap, k, level: ratio_estimate_r1(snap, level),
        closed_form_many=lambda columns, k: _ratio_r1_many(columns),
        target=lambda theta, k: asymptotics.ratio_r1_variance(theta)),
    "ratio-k": EstimatorSpec(
        lambda snap, k: snap.exact_count(k), lambda k: k + 1, per_k=True,
        closed_form=ratio_estimate_k, closed_form_many=_ratio_k_many,
        target=asymptotics.ratio_k_variance),
    "log-ratio": EstimatorSpec(
        lambda snap, k: snap.r, lambda k: 0, target=None,
        closed_form=lambda snap, k, level: log_ratio_estimate(snap, level)),
}


def expand_estimators(tags, k_values) -> list[tuple[str, str, int | None]]:
    """(report id, tag, k) of each estimate ``tags`` ask for."""
    out = []
    for tag in tags:
        if tag not in ESTIMATORS:
            raise UsageError(f"unknown estimator {tag!r}; choose from "
                             f"{', '.join(ESTIMATORS)}")
        ks = k_values if ESTIMATORS[tag].per_k else (None,)
        out.extend((tag if k is None else f"{tag}({k})", tag, k) for k in ks)
    return out


def snapshot_k_max(requested) -> int:
    """The count range a snapshot must track for ``expand_estimators`` output."""
    return max([DEFAULT_K_MAX] + [ESTIMATORS[tag].highest_count(k) for _, tag, k in requested])
