"""Point estimators of the power-law exponent from occupancy snapshots.

Three families:

* implicit estimators: theta* solves  S_n = g(theta)  where g is the
  first-order growth curve of E[S_n] (``asymptotics.log_growth``; needs the
  normalization c(theta) to be known); asymptotic standard error
  sigma(theta*) / (ln n sqrt(S_n)); theta* is the lowest root where g
  rises (with c(theta) = 1/zeta(1/theta), g_rk peaks below theta = 1 for
  every k >= 2, and the second root, beyond the peak, is spurious),
  located from the grid's g by one cubic and one secant step and certified
  within 1e-14, or else bisected on the theta grid to 1e-10,
* ratio estimators built from two statistics (no c needed):
  R_{n,1}/R_n and (k R_{n,k} - (k+1) R_{n,k+1}) / R_{n,k},
* the log-ratio baseline ln R_n / ln n, consistent but with a
  non-vanishing ln-scale bias, so it gets no normal confidence interval.

Confidence intervals are plug-in: the limiting variance formula evaluated at
the estimate itself, with the normal quantile of ``statistics.NormalDist``
(the fixed ``Z_95`` at the default level 0.95).

:data:`ESTIMATORS` maps each estimator tag to the statistic it reads, how it
is computed, how it is standardized and its limiting variance; the CLI and
the Monte Carlo studies both dispatch through it.  One routine,
:func:`estimate_many`, computes every estimate, on a snapshot in its array
form (``occupancy.StatisticsSnapshot``), as arrays of estimates and standard
errors: it builds the solver of each implicit row from the one c(theta) it
is given, solves the distinct statistic values of all their samples in one
batch, and runs each closed form as one array routine.  One sample is the
one-entry case, which :func:`estimate_rows` wraps in an
:class:`EstimateResult` per row, so the estimate of a snapshot is the same
bit for bit wherever it is computed.

An estimate without a value is NaN, never an error, and its row has one
flag, read from the row itself: "no-root" where a statistic >= 1 was solved
(g reaches it nowhere it rises), "insufficient-data" otherwise (a statistic
below 1, or n below ``ImplicitSolver.MIN_N``, where no solver is built).
Only a bad call raises: an unknown tag, a k out of range, a level outside
(0, 1), an implicit row without c(theta), or a total that is not an integer
for log-ratio.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import asymptotics
from .errors import DomainError, UsageError
from .occupancy import DEFAULT_K_MAX, StatisticsSnapshot
from .specfun import ln_gamma

__all__ = ["EstimateResult", "ImplicitSolver", "estimate_many", "estimate_rows",
           "ratio_estimate_r1", "ratio_estimate_k", "log_ratio_estimate", "normal_cdf",
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

#: ``math.erf`` of a float, or of each entry of an array
_erf_each = np.frompyfunc(math.erf, 1, 1)


def normal_cdf(x):
    """Phi(x) of a float, or of each entry of an array in one pass: the
    float operations of 0.5 (1 + erf(x / sqrt 2)) on each entry."""
    return 0.5 * (1.0 + np.asarray(_erf_each(x / math.sqrt(2.0)), dtype=float))


def _z_for_level(level: float) -> float:
    if not 0.0 < level < 1.0:
        raise DomainError(f"confidence level must lie in (0, 1), got {level!r}")
    if level == 0.95:
        return Z_95
    from statistics import NormalDist  # here, so the default level loads no `decimal`
    return NormalDist().inv_cdf(0.5 + 0.5 * level)


def confidence_bounds(theta_hat: np.ndarray, stderr: np.ndarray, level: float):
    """The plug-in intervals of arrays of estimates with positive standard
    errors, as (lower, upper) arrays, both ends clipped into [0, 1]: a
    degenerate estimate gets [0, 0] or [1, 1] at worst, never lo > hi."""
    half = _z_for_level(level) * stderr
    return np.clip(theta_hat - half, 0.0, 1.0), np.clip(theta_hat + half, 0.0, 1.0)


def _result(estimator_id: str, theta_hat, stderr, level: float, flags=(), stat=None,
            diagnostics=None) -> EstimateResult:
    """One row's estimate with its plug-in interval, the point itself where
    stderr is 0; a NaN row's one flag (module docstring; ``stat``: the
    statistic of a solved row), else ``flags`` plus "degenerate" where
    theta_hat lies outside (0, 1)."""
    theta_hat, stderr = float(theta_hat), float(stderr)
    _z_for_level(level)  # checks the level where the interval is the point, too
    lo, hi = confidence_bounds(theta_hat, stderr, level) if stderr else (theta_hat, theta_hat)
    if math.isnan(theta_hat):
        flags = ("no-root",) if stat is not None and stat >= 1.0 else ("insufficient-data",)
    elif not 0.0 < theta_hat < 1.0:
        flags += ("degenerate",)
    return EstimateResult(estimator_id, theta_hat, stderr, (float(lo), float(hi)), level,
                          flags, diagnostics or {})


# ----------------------------------------------------------------------
# implicit estimators
# ----------------------------------------------------------------------

@functools.lru_cache(maxsize=8)
def _terms_on_grid(c_of_theta) -> tuple[np.ndarray, np.ndarray]:
    """ln c(theta) and ln Gamma(1 - theta) on ``ImplicitSolver``'s theta
    grid, the terms of g that do not depend on the solver: class constants,
    computed once per normalization function (read-only, shared)."""
    grid = ImplicitSolver._grid
    c_grid = np.asarray(c_of_theta(grid), dtype=float)
    if not np.all(np.isfinite(c_grid) & (c_grid > 0.0)):
        raise DomainError("c(theta) must be finite and positive on (0, 1)")
    terms = np.asarray(np.log(c_grid)), ln_gamma(1.0 - grid)  # ln c is 0-d for a constant
    for term in terms:
        term.flags.writeable = False
    return terms


class ImplicitSolver:
    """Reusable inverter of one growth curve g(theta) = E-first-order[S_n].

    Precomputes g on a dense grid once (bracket scan), from c(theta) on that
    grid, which every solver of one normalization shares.  Only grid intervals
    where g rises (g[j+1] > g[j]) bracket a statistic, and each statistic
    takes its root in the lowest such bracket, so g need not be monotone:
    a statistic above the peak of g, or one no rising interval reaches,
    has no root.  A batch finds the roots of arrays of statistic values of
    one or more solvers of one normalization: :func:`estimate_many` joins
    every implicit row of a study chunk or of a CLI estimate, and
    :meth:`solve` is the one-value batch.  A value below 1, NaN, or without
    a root is NaN there, not an error, and :meth:`solve` flags it as
    :func:`estimate_rows` does (module docstring).

    A batch evaluates g in rounds, each on the brackets of all its solvers:

    * locate: x is the theta where the cubic through (ln g, theta) at the
      four grid points around the bracket, which the solver holds, meets
      ln s; one secant step on ln g - ln s from x against the nearer
      bracket end takes the cubic's error (up to about 1e-12) down to
      rounding.  Each x is clipped to the bracket; g is evaluated once;
    * certify: x is the root, within CERTIFY_EPS = 1e-14, if g(x -
      CERTIFY_EPS) < s < g(x + CERTIFY_EPS) and g rises on the bracket's
      grid interval and both its neighbours (next to a turn of g, or at a
      grid end, g is too flat); where g's rounding blurs its side of s over
      more theta (near theta = 1, the peak of g_rk, or n below 10, up to
      about 4e-13), as near as any bisection of g can tell;
    * halve: every other bracket is bisected from its grid interval, with
      g evaluated at each midpoint, to |delta theta| < BISECT_TOL, and its
      root is the midpoint of its last bracket (an exact hit ends early).

    Each root thus depends on its own value alone, never on the rest of its
    batch.  A normality study chunk, where nearly every bracket is
    certified, takes 2 rounds of g, not the 23 of halving.  A round
    computes the terms that depend on theta alone, c(theta), ln c(theta)
    and ln Gamma(1 - theta) (which r, u and rk(1) share), once for all
    solvers, then ``asymptotics.log_growth`` once per solver
    (``_g_array``); on the grid those terms are class constants.
    :func:`estimate_many` passes each distinct statistic value of a row
    once, so a chunk's batch holds no more values than its rows have
    distinct ones.
    ``c_of_theta`` is a function of theta that also takes an array of theta,
    as ``law.zeta_normalization`` does (a constant c may return one number);
    :func:`estimate_many` builds every solver of a batch from one.  ``n`` is
    an integer of at least MIN_N, as ln n must be positive.
    """

    GRID_POINTS = 2000
    THETA_LO = 1e-4
    THETA_HI = 1.0 - 1e-4
    BISECT_TOL = 1e-10
    CERTIFY_EPS = 1e-14
    MIN_N = 2

    _grid = np.linspace(THETA_LO, THETA_HI, GRID_POINTS)

    def __init__(self, which: str, n: int, c_of_theta, k: int | None = None):
        if which not in _IMPLICIT_TAGS:
            raise UsageError(f"unknown implicit estimator tag {which!r}")
        if not (isinstance(n, (int, np.integer)) and n >= self.MIN_N):
            raise DomainError(f"implicit estimators need integer n >= {self.MIN_N}, got {n!r}")
        if not callable(c_of_theta):
            raise UsageError(f"c(theta) must be a function of theta, got {c_of_theta!r}")
        if which == "rk" and (k is None or int(k) < 1):
            raise UsageError("implicit rk estimator needs k >= 1")
        self.which = which
        self.n = int(n)
        self.k = int(k) if which == "rk" else None
        self._c_of_theta = c_of_theta
        self._log_n = math.log(self.n)
        self._g = g = self._g_array(self._grid, *_terms_on_grid(c_of_theta))
        # grid interval j brackets s exactly when s lies in (g[j], _g_max[j]],
        # which is empty wherever g does not rise
        self._g_max = np.maximum(g[:-1], g[1:])

    def growth(self, theta: float) -> float:
        """g(theta) for this statistic and sample size."""
        return math.exp(asymptotics.log_growth(
            theta, math.log(self._c_of_theta(theta)) + self._log_n, self.which, self.k))

    def _g_array(self, theta: np.ndarray, log_c=None, ln_gamma_1m=None) -> np.ndarray:
        """g at an array of theta from its terms that do not depend on the
        solver, where already known: ``log_c``, ln c(theta), and
        ``ln_gamma_1m``, ln Gamma(1 - theta) (``asymptotics.log_growth``)."""
        if log_c is None:
            log_c = np.log(self._c_of_theta(theta))
        return np.exp(asymptotics.log_growth(theta, log_c + self._log_n, self.which, self.k,
                                             ln_gamma_1m))

    def _brackets(self, stats: np.ndarray):
        """(owner, interval): the index of each s >= 1 of ``stats`` that
        has a rising bracket, in order, and its lowest such grid interval."""
        usable = np.flatnonzero(stats >= 1.0)
        order = usable[np.argsort(stats[usable], kind="stable")]
        ranked = stats[order]
        first = np.searchsorted(ranked, self._g[:-1], side="right")
        count = np.searchsorted(ranked, self._g_max, side="right") - first
        # interval j brackets ranked[first[j]:first[j] + count[j]]: one entry each
        interval = np.repeat(np.arange(count.size), count)
        within = np.arange(interval.size) - np.repeat(np.cumsum(count) - count, count)
        owner = order[np.repeat(first, count) + within]
        # entries run by interval, so each owner's first one is its lowest bracket
        owner, lowest = np.unique(owner, return_index=True)
        return owner, interval[lowest]

    def solve(self, stat_value: float, level: float = 0.95) -> EstimateResult:
        """The estimate of one statistic value, the one-value batch, with
        its bisection's step count (0 where the root is certified or there
        is none) and bracket as ``diagnostics``; NaN and flagged where there
        is no root."""
        stats = np.array([float(stat_value)])
        (_, interval, roots, steps), = _roots_joined([self], [stats])
        diagnostics = {"iterations": int(steps.sum()), "stat_value": float(stat_value)}
        if roots.size:
            j = int(interval[0])
            diagnostics["bracket"] = (float(self._grid[j]), float(self._grid[j + 1]))
        theta_hat = roots if roots.size else np.array([math.nan])
        tag = f"implicit-{self.which}" if self.which != "rk" else f"implicit-rk({self.k})"
        return _result(tag, theta_hat[0], self.stderr_many(theta_hat, stats)[0], level,
                       stat=float(stat_value), diagnostics=diagnostics)

    def stderr_many(self, theta_hat: np.ndarray, stats: np.ndarray) -> np.ndarray:
        """The plug-in standard error sigma(theta_hat) / (ln n sqrt(S_n)) of
        each root ``theta_hat[i]`` of ``stats[i]``, NaN where theta_hat is
        NaN; :meth:`solve` takes its standard error from here."""
        stderr = np.full(theta_hat.size, np.nan)
        ok = np.flatnonzero(~np.isnan(theta_hat))
        sigma_sq = asymptotics.implicit_variance(theta_hat[ok], self.which, self.k)
        stderr[ok] = np.sqrt(sigma_sq) / (self._log_n * np.sqrt(stats[ok]))
        return stderr


def _roots_joined(solvers, stats):
    """The roots of the statistics ``stats[i]`` of each ``solvers[i]``, all
    found in one batch (class docstring): per solver, (owner, interval,
    root, steps), one entry per statistic with a bracket (``_brackets``).
    Every solver shares the c(theta) of the first."""
    if not solvers:
        return []
    c_of_theta = solvers[0]._c_of_theta
    grid = ImplicitSolver._grid
    parts = []
    for solver, values in zip(solvers, stats):
        owner, j = solver._brackets(values)
        g = solver._g
        rises = np.concatenate([[False], g[1:] > g[:-1], [False]])
        window = np.clip(j - 1, 0, grid.size - 4)[:, None] + np.arange(4)  # j - 1..j + 2
        parts.append((owner, j, values[owner], window, np.log(g[window]),
                      rises[j] & rises[j + 1] & rises[j + 2]))  # certifiable
    interval, target, window, log_window, smooth = (np.concatenate([p[i] for p in parts])
                                                    for i in range(1, 6))
    offsets = np.cumsum([0] + [p[0].size for p in parts])

    def g_of(x, edges):
        """g at x, whose entries edges[i]:edges[i + 1] belong to solvers[i],
        with ln c(x) and ln Gamma(1 - x) computed once for all of them."""
        log_c, ln_gamma_1m, out = np.log(c_of_theta(x)), ln_gamma(1.0 - x), np.empty(x.size)
        for solver, a, b in zip(solvers, edges[:-1], edges[1:]):
            if b > a:
                out[a:b] = solver._g_array(x[a:b], log_c[a:b] if np.ndim(log_c) else log_c,
                                           ln_gamma_1m[a:b])
        return out

    eps = ImplicitSolver.CERTIFY_EPS
    lo, hi = grid[interval], grid[interval + 1]
    log_target = np.log(target)
    with np.errstate(divide="ignore", invalid="ignore"):
        # theta where the cubic through (ln g - ln s, theta) at the window's
        # four points meets 0 (Lagrange weights), kept within the bracket
        y = log_window - log_target[:, None]
        ratio = y[:, None, :] / (y[:, None, :] - y[:, :, None])  # [entry, i, m]
        ratio[:, np.arange(4), np.arange(4)] = 1.0
        x = lo + ((grid[window] - lo[:, None]) * ratio.prod(axis=2)).sum(axis=1)
        x = np.fmin(np.fmax(x, lo), hi)  # NaN (g flat in the window): lo
        # one secant step against the nearer bracket end: window point 1 or 2
        # wherever the bracket can be certified (not at a grid end)
        f, upper = np.log(g_of(x, offsets)) - log_target, hi - x < x - lo
        secant = x - f * (x - np.where(upper, hi, lo)) / (f - np.where(upper, y[:, 2], y[:, 1]))
    x = np.fmin(np.fmax(np.where(np.isnan(secant), x, secant), lo), hi)  # NaN: f equal at both
    g_near = g_of(np.stack([x - eps, x + eps], axis=1).ravel(), 2 * offsets)
    # the rest are halved from their grid interval, by g at every midpoint
    rest = np.flatnonzero(~((g_near[0::2] < target) & (target < g_near[1::2]) & smooth))
    lo, hi, steps = lo[rest], hi[rest], np.zeros(x.size, dtype=int)
    while (live := np.flatnonzero(hi - lo > ImplicitSolver.BISECT_TOL)).size:
        mid, rows = 0.5 * (lo[live] + hi[live]), rest[live]
        f_mid = g_of(mid, np.searchsorted(rows, offsets)) - target[rows]
        up, down = f_mid <= 0.0, ~(f_mid < 0.0)  # NaN: down
        lo[live[up]], hi[live[down]] = mid[up], mid[down]
        steps[rows] += up ^ down  # an exact hit moves both ends to mid, uncounted
    x[rest] = 0.5 * (lo + hi)
    return [(p[0], p[1], x[a:b], steps[a:b])
            for p, a, b in zip(parts, offsets[:-1], offsets[1:])]


# ----------------------------------------------------------------------
# closed forms: (theta_hat, stderr) arrays over the samples of a snapshot
# ----------------------------------------------------------------------

def _ratio_r1(columns, k):
    """theta_hat = R_{n,1} / R_n with plug-in standard error
    sqrt(v(theta_hat) / R_n), v = limiting ratio variance, which is 0 at
    both ends of [0, 1]; NaN where R_n = 0."""
    r = columns.r
    theta_hat, stderr = np.full(r.size, np.nan), np.full(r.size, np.nan)
    ok = np.flatnonzero(r >= 1)
    theta_hat[ok] = columns.exact_count(1)[ok] / r[ok]
    stderr[ok] = 0.0
    inner = ok[(0.0 < theta_hat[ok]) & (theta_hat[ok] < 1.0)]
    stderr[inner] = np.sqrt(asymptotics.ratio_r1_variance(theta_hat[inner]) / r[inner])
    return theta_hat, stderr


def _ratio_k(columns, k):
    """theta_hat = (k R_{n,k} - (k+1) R_{n,k+1}) / R_{n,k}, NaN where
    R_{n,k} = 0.

    Estimates outside (0, 1) are flagged, never clamped; only the plug-in
    variance evaluation clamps theta_hat into [0.01, 0.99].
    """
    if not (isinstance(k, (int, np.integer)) and k >= 1):
        raise UsageError(f"k must be a positive integer, got {k!r}")
    r_k, r_k1 = columns.exact_count(k), columns.exact_count(k + 1)  # refuses k + 1 > k_max
    theta_hat, stderr = np.full(r_k.size, np.nan), np.full(r_k.size, np.nan)
    ok = np.flatnonzero(r_k >= 1)
    estimate = (k * r_k[ok] - (k + 1) * r_k1[ok]) / r_k[ok]
    plug_in = np.where((0.0 < estimate) & (estimate < 1.0), estimate,
                       np.clip(estimate, 0.01, 0.99))
    theta_hat[ok] = estimate
    stderr[ok] = np.sqrt(asymptotics.ratio_k_variance(plug_in, k) / r_k[ok])
    return theta_hat, stderr


def _log_ratio(columns, k):
    """Baseline theta_hat = ln R_n / ln n, NaN where R_n = 0 or n < 2.

    Consistent, but ln n (theta_hat - theta) tends to a constant rather
    than a normal limit, so stderr is 0 and the interval is degenerate.
    """
    n = columns.total
    if not float(n).is_integer():
        raise DomainError(f"log-ratio estimator needs an integer n, got {n!r}")
    log_n = math.log(n) if n >= 2 else math.nan
    theta_hat = np.array([math.log(r) / log_n if r >= 1 else math.nan
                          for r in columns.r.tolist()])
    return theta_hat, np.where(np.isnan(theta_hat), np.nan, 0.0)


# ----------------------------------------------------------------------
# the estimator table
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class EstimatorSpec:
    """How one estimator tag reads snapshots, and its limit theorem.

    ``statistic(snapshot, k)`` is the S_n of the standardized error:
    ln n sqrt(S_n) (theta_hat - theta) for implicit estimators and
    sqrt(S_n) (theta_hat - theta) for ratio estimators.  ``target(theta, k)``
    is its limiting variance, None when there is no normal limit.
    """

    tag: str
    statistic: Callable
    target: Callable | None
    per_k: bool = False                 # one estimate per requested k
    solver_kind: str | None = None      # ImplicitSolver kind, implicit only
    # (columns, k) -> (theta_hat, stderr) arrays, NaN where the statistic is 0
    closed_form: Callable | None = None

    def solved(self, n) -> bool:
        """Whether :func:`estimate_many` solves this tag's rows at total n."""
        return self.solver_kind is not None and n >= ImplicitSolver.MIN_N

    def standardize(self, theta_hat, theta, snapshot, k):
        """The standardized error of ``theta_hat``; ``snapshot`` may be in
        its array form and ``theta_hat`` an array of its estimates."""
        scale = np.sqrt(self.statistic(snapshot, k))
        if self.solver_kind is not None:
            scale = math.log(snapshot.total) * scale
        return scale * (theta_hat - theta)


ESTIMATORS = {spec.tag: spec for spec in (
    EstimatorSpec(
        "implicit-r", lambda snap, k: snap.r, solver_kind="r",
        target=lambda theta, k: asymptotics.implicit_variance(theta, "r")),
    EstimatorSpec(
        "implicit-u", lambda snap, k: snap.u, solver_kind="u",
        target=lambda theta, k: asymptotics.implicit_variance(theta, "u")),
    EstimatorSpec(
        "implicit-rk", lambda snap, k: snap.exact_count(k), per_k=True,
        solver_kind="rk", target=lambda theta, k: asymptotics.implicit_variance(theta, "rk", k)),
    EstimatorSpec(
        "ratio-r1", lambda snap, k: snap.r, closed_form=_ratio_r1,
        target=lambda theta, k: asymptotics.ratio_r1_variance(theta)),
    EstimatorSpec(
        "ratio-k", lambda snap, k: snap.exact_count(k), per_k=True,
        closed_form=_ratio_k, target=asymptotics.ratio_k_variance),
    EstimatorSpec(
        "log-ratio", lambda snap, k: snap.r, target=None, closed_form=_log_ratio),
)}


def estimate_many(columns, requested, c_of_theta=None) -> list[tuple[np.ndarray, np.ndarray]]:
    """The theta_hat and stderr arrays of each (name, tag, k) of
    ``requested`` on the samples of ``columns`` (an
    ``occupancy.StatisticsSnapshot`` in its array form), NaN where there is
    no root or too little data.  Each implicit row that
    :meth:`EstimatorSpec.solved` gets an ``ImplicitSolver`` of
    ``c_of_theta``, and all of them are solved in one batch, each distinct
    value of a row's statistic once: its estimate and standard error depend
    on that value alone, so every sample that repeats it shares them."""
    nan = np.full(columns.r.size, np.nan)
    rows, solvers, stats = [], {}, {}
    for i, (_, tag, k) in enumerate(requested):
        spec = ESTIMATORS[tag]
        rows.append(spec.closed_form(columns, k) if spec.closed_form else (nan, nan))
        if spec.solved(columns.total):
            solvers[i] = ImplicitSolver(spec.solver_kind, columns.total, c_of_theta, k=k)
            # (distinct values, the index of each sample's value among them)
            stats[i] = np.unique(np.asarray(spec.statistic(columns, k), dtype=float),
                                 return_inverse=True)
    for i, (owner, _, roots, _) in zip(stats, _roots_joined(
            list(solvers.values()), [values for values, _ in stats.values()])):
        values, inverse = stats[i]
        theta_hat = np.full(values.size, np.nan)
        theta_hat[owner] = roots
        rows[i] = theta_hat[inverse], solvers[i].stderr_many(theta_hat, values)[inverse]
    return rows


def estimate_rows(snapshot, requested, level: float, c_of_theta=None) -> list[EstimateResult]:
    """The estimate of each (name, tag, k) of ``requested`` on one snapshot,
    the one-entry case of :func:`estimate_many` (whose ``c_of_theta`` it
    takes), with its plug-in interval and flags (module docstring)."""
    rows = estimate_many(StatisticsSnapshot.of(snapshot), requested, c_of_theta)
    return [_result(name, theta_hat[0], stderr[0], level,
                    () if ESTIMATORS[tag].target else ("no-normality",),
                    stat=float(ESTIMATORS[tag].statistic(snapshot, k))
                    if ESTIMATORS[tag].solved(snapshot.total) else None)
            for (name, tag, k), (theta_hat, stderr) in zip(requested, rows)]


def ratio_estimate_r1(snapshot: StatisticsSnapshot, level: float = 0.95) -> EstimateResult:
    """The ratio-r1 estimate of one snapshot."""
    return estimate_rows(snapshot, [("ratio-r1", "ratio-r1", None)], level)[0]


def ratio_estimate_k(snapshot: StatisticsSnapshot, k: int, level: float = 0.95) -> EstimateResult:
    """The ratio-k estimate of one snapshot."""
    return estimate_rows(snapshot, [(f"ratio-k({k})", "ratio-k", k)], level)[0]


def log_ratio_estimate(snapshot: StatisticsSnapshot, level: float = 0.95) -> EstimateResult:
    """The log-ratio estimate of one snapshot."""
    return estimate_rows(snapshot, [("log-ratio", "log-ratio", None)], level)[0]


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


def snapshot_k_max(requested, n) -> int:
    """The count range a snapshot of n balls must track for
    ``expand_estimators`` output: R_{k+1}, which ratio-k(k) reads, is the
    highest exact count of any tag.  A k above n is a usage error: R_k = 0
    there, and a count table would still take room for every count up to k."""
    k = max((k for _, _, k in requested if k is not None), default=0)
    if k > n:
        raise UsageError(f"k={k} exceeds the sample size n={n}, where R_k = 0")
    return max(DEFAULT_K_MAX, k + 1)
