"""Replicated experiments that check the limit theorems at desk scale.

``normality_study`` samples M occupancy configurations, forms each
estimator's standardized statistic exactly as its limit theorem states it
(using the true exponent), and reports moments, a Kolmogorov-Smirnov
diagnostic against the standard normal, plug-in CI coverage, and the
theoretical variance target.  Statistic, standardization and target all come
from the estimator table ``estimators.ESTIMATORS``.

``covariance_study`` samples nested trajectories, centers every component
with the exact finite-n expectation oracle, scales by sqrt(alpha(n)) and
compares empirical covariances against the limiting covariance function.

Both studies draw replication ``rep`` on stream ``SeedSpec(seed, rep)``,
the normality study on the one-point grid (1.0,).  A draw is an occupancy
profile, not n balls: one multinomial over the heaviest urns per grid
increment plus the balls beyond them, so its cost follows the number of
occupied urns, about n^theta.  ``sample_trajectories`` draws a chunk's
replications in blocks of a fixed number of head counts and tail balls
(``law.PowerLaw.draw_prefixes``): each replication draws from its own
stream, and the tail map, sort, run lengths and count-of-counts run once per
block, so memory does not grow with the replications a block could hold.
It returns one ``occupancy.SnapshotColumns`` per grid time, bit for bit the
statistics of ``sample_trajectory`` on each stream.
A chunk of normality replications then runs in two more stages on whole
arrays: estimate theta_hat and its standard error for every replication at
once (one batched ``ImplicitSolver.solve_many`` per implicit estimator, the
closed forms on the columns); then standardize and check coverage.  No
per-replication ``EstimateResult`` is built, except where a CI bound lies
within ``_TIE`` of theta, since the array variance formulas may round
otherwise than the scalar ones; so the standardized values and coverage
flags equal those of one-snapshot estimates bit for bit.

Replications are independent jobs keyed by replication index, so results
are identical for any worker count; the aggregation is a commutative merge
over replication-indexed slots.  The worker count is
``ExperimentConfig.workers`` (default 1).
"""

from __future__ import annotations

import hashlib
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from . import asymptotics
from .errors import UsageError, ZipfestError
from .estimators import (ESTIMATORS, confidence_bounds, expand_estimators,
                         normal_cdf, snapshot_k_max)
from .law import PowerLaw, make_zipf_law, zeta_normalization
from .occupancy import DEFAULT_K_MAX
from .sampler import SeedSpec, sample_trajectories

__all__ = ["ExperimentConfig", "EstimatorReport", "StudyReport",
           "CovarianceRow", "CovarianceTable",
           "normality_study", "covariance_study", "ks_test"]

#: a CI bound this close to theta is taken from the replication's own
#: ``EstimateResult``, far beyond where the array and scalar stderr differ
_TIE = 1e-9

#: every estimator with a normal limit, in table order
NORMALITY_ESTIMATORS = tuple(tag for tag, spec in ESTIMATORS.items()
                             if spec.target is not None)


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared configuration for the replicated studies."""

    theta: float
    n: int
    m: int
    i0: int = 0
    estimators: tuple[str, ...] = NORMALITY_ESTIMATORS
    k_values: tuple[int, ...] = (1,)
    grid: tuple[float, ...] = (0.5, 1.0)
    nu: int = 1
    seed: int = 0
    level: float = 0.95
    tail_epsilon: float = 1e-12
    workers: int = 1

    @property
    def k_max(self) -> int:
        """The bound on ``nu``, the highest exact count a covariance
        snapshot tracks.  A constant, not a setting; kept readable because
        the traced replay in ``perfbench/replay.py`` reads it."""
        return DEFAULT_K_MAX

    def echo(self) -> dict:
        """Every field but ``workers``, plus ``config_hash``, their SHA-256."""
        out = asdict(self)
        out.pop("workers")
        blob = json.dumps(out, sort_keys=True, default=str).encode()
        out["config_hash"] = hashlib.sha256(blob).hexdigest()
        return out


# ----------------------------------------------------------------------
# Kolmogorov-Smirnov against the standard normal
# ----------------------------------------------------------------------

def ks_test(sample) -> tuple[float, float]:
    """One-sample KS distance and asymptotic p-value against N(0, 1).

    The p-value uses the Kolmogorov series
    2 sum_{j>=1} (-1)^(j-1) exp(-2 j^2 lambda^2) at lambda = sqrt(m) D,
    truncated at 100 terms.
    """
    x = np.sort(np.asarray(sample, dtype=float))
    m = x.size
    if m < 100:
        raise UsageError(f"KS diagnostic needs at least 100 points, got {m}")
    cdf = np.array([normal_cdf(v) for v in x])
    upper = np.max(np.arange(1, m + 1) / m - cdf)
    lower = np.max(cdf - np.arange(0, m) / m)
    distance = max(upper, lower)
    lam = math.sqrt(m) * distance
    p = 0.0
    for j in range(1, 101):
        p += 2.0 * (-1.0) ** (j - 1) * math.exp(-2.0 * j * j * lam * lam)
    return float(distance), float(min(max(p, 0.0), 1.0))


def _moments(values: np.ndarray) -> tuple[float, float, float, float]:
    mean = float(values.mean())
    centered = values - mean
    m2 = float(np.mean(centered ** 2))
    m3 = float(np.mean(centered ** 3))
    m4 = float(np.mean(centered ** 4))
    variance = float(values.var(ddof=1))
    skew = m3 / m2 ** 1.5 if m2 > 0 else 0.0
    kurt = m4 / m2 ** 2 - 3.0 if m2 > 0 else 0.0
    return mean, variance, skew, kurt


# ----------------------------------------------------------------------
# normality study
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class EstimatorReport:
    estimator: str
    m_included: int
    m_excluded: int
    mean: float
    variance: float
    skewness: float
    excess_kurtosis: float
    ks_distance: float
    ks_pvalue: float
    target_variance: float
    variance_ratio: float
    coverage: float | None

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class StudyReport:
    config: dict
    rows: tuple[EstimatorReport, ...]

    def to_json_dict(self) -> dict:
        return {"config": self.config, "rows": [r.to_json_dict() for r in self.rows]}

    def row(self, estimator: str) -> EstimatorReport:
        for r in self.rows:
            if r.estimator == estimator:
                return r
        raise KeyError(estimator)


def _law_from_config(cfg: ExperimentConfig) -> PowerLaw:
    return make_zipf_law(cfg.theta, i0=cfg.i0, tail_epsilon=cfg.tail_epsilon)


def _seeds(cfg: ExperimentConfig, rep_lo: int, rep_hi: int):
    """The streams of replications rep_lo..rep_hi - 1, one at a time."""
    return (SeedSpec(cfg.seed, rep) for rep in range(rep_lo, rep_hi))


def _normality_chunk(cfg: ExperimentConfig, rep_lo: int, rep_hi: int):
    """Standardized values / coverage flags for one chunk of replications,
    NaN where an estimator has no usable estimate."""
    law = _law_from_config(cfg)
    requested = expand_estimators(cfg.estimators, cfg.k_values)
    k_max = snapshot_k_max(requested)
    columns, = sample_trajectories(law, cfg.n, (1.0,), _seeds(cfg, rep_lo, rep_hi), k_max=k_max)
    theta = cfg.theta
    values, covered = {}, {}
    for name, tag, k in requested:
        spec = ESTIMATORS[tag]
        solver = spec.solver(cfg.n, zeta_normalization, k)
        theta_hat, stderr = spec.estimate_many(columns, k, solver)
        values[name] = spec.standardize(theta_hat, theta, columns, k)
        covered[name] = np.full(theta_hat.size, np.nan)
        rated = np.flatnonzero(stderr > 0.0)  # not where stderr is NaN
        lo, hi = confidence_bounds(theta_hat[rated], stderr[rated], cfg.level)
        covered[name][rated] = (lo <= theta) & (theta <= hi)
        # the array stderr may differ from the scalar one in the last bits;
        # where that could carry a bound across theta, the estimate decides
        for i in rated[np.minimum(np.abs(lo - theta), np.abs(hi - theta)) <= _TIE]:
            ci = spec.estimate(columns.snapshot(i), k, cfg.level, solver).ci
            covered[name][i] = float(ci[0] <= theta <= ci[1])
    return values, covered


def _run_chunked(cfg: ExperimentConfig, chunk_fn):
    workers = int(cfg.workers)
    if workers < 1:
        raise UsageError(f"workers must be >= 1, got {workers!r}")
    if workers == 1:
        return [chunk_fn(cfg, 0, cfg.m)]
    bounds = np.linspace(0, cfg.m, workers * 2 + 1).astype(int)
    ranges = [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(chunk_fn, cfg, a, b) for a, b in ranges]
        return [f.result() for f in futures]


def normality_study(config: ExperimentConfig) -> StudyReport:
    """Check asymptotic normality and variance targets of the estimators."""
    if config.m < 100:
        raise UsageError(f"normality studies need M >= 100, got {config.m}")
    if config.n < 2:
        raise UsageError(f"normality studies need n >= 2, got {config.n}")
    if not 0.0 < config.level < 1.0:
        raise UsageError(f"confidence level must lie in (0, 1), got {config.level!r}")
    requested = expand_estimators(config.estimators, config.k_values)
    for _, tag, _ in requested:
        if ESTIMATORS[tag].target is None:
            raise UsageError(f"{tag} has no normal limit; drop it from normality studies")
    chunks = _run_chunked(config, _normality_chunk)
    values = {name: np.concatenate([c[0][name] for c in chunks]) for name, _, _ in requested}
    covered = {name: np.concatenate([c[1][name] for c in chunks]) for name, _, _ in requested}

    rows = []
    for name, tag, k in requested:
        target = ESTIMATORS[tag].target(config.theta, k)
        vals = values[name]
        included = vals[~np.isnan(vals)]
        m_excluded = int(np.isnan(vals).sum())
        if included.size < 100:
            raise ZipfestError(
                f"estimator {name}: only {included.size} usable replications")
        mean, variance, skew, kurt = _moments(included)
        distance, pvalue = ks_test(included / math.sqrt(target))
        cov = covered[name]
        cov = cov[~np.isnan(cov)]
        coverage = float(cov.mean()) if cov.size else None
        rows.append(EstimatorReport(
            estimator=name, m_included=int(included.size), m_excluded=m_excluded,
            mean=mean, variance=variance, skewness=skew, excess_kurtosis=kurt,
            ks_distance=distance, ks_pvalue=pvalue, target_variance=target,
            variance_ratio=variance / target, coverage=coverage))
    return StudyReport(config=config.echo(), rows=tuple(rows))


# ----------------------------------------------------------------------
# covariance study
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CovarianceRow:
    i: int
    j: int
    tau: float
    t: float
    empirical: float
    theoretical: float
    std_error: float
    z_score: float

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class CovarianceTable:
    config: dict
    rows: tuple[CovarianceRow, ...]

    def to_json_dict(self) -> dict:
        return {"config": self.config, "rows": [r.to_json_dict() for r in self.rows]}

    def entry(self, i: int, j: int, tau: float, t: float) -> CovarianceRow:
        for r in self.rows:
            if (r.i, r.j) == (i, j) and math.isclose(r.tau, tau) and math.isclose(r.t, t):
                return r
        raise KeyError((i, j, tau, t))


def _covariance_chunk(cfg: ExperimentConfig, rep_lo: int, rep_hi: int):
    law = _law_from_config(cfg)
    out = np.empty((rep_hi - rep_lo, len(cfg.grid), cfg.nu + 1))
    for a, columns in enumerate(sample_trajectories(law, cfg.n, cfg.grid,
                                                    _seeds(cfg, rep_lo, rep_hi), k_max=cfg.nu)):
        out[:, a, 0] = columns.r
        out[:, a, 1:] = columns.r_k[:, :cfg.nu]
    return out


def covariance_study(config: ExperimentConfig) -> CovarianceTable:
    """Empirical covariance of the centered, scaled occupancy paths against
    the limiting covariance function."""
    if len(config.grid) < 1:
        raise UsageError("covariance studies need a non-empty time grid")
    if config.m < 100:
        raise UsageError(f"covariance studies need M >= 100, got {config.m}")
    if config.nu < 1 or config.nu > DEFAULT_K_MAX:
        raise UsageError(f"nu must lie in 1..{DEFAULT_K_MAX}, got {config.nu}")
    # (``sample_trajectory`` rejects a grid that does not lie in (0, 1])
    if config.grid[0] > 0.0 and math.floor(config.n * config.grid[0]) < 1:
        raise UsageError(f"covariance studies need n * t >= 1 at the first grid time "
                         f"t = {config.grid[0]}, got n = {config.n}")
    law = _law_from_config(config)
    comps = config.nu + 1
    chunks = _run_chunked(config, _covariance_chunk)
    raw = np.concatenate(chunks, axis=0)

    scale = math.sqrt(law.counting_function(float(config.n)))
    centered = np.empty_like(raw)
    for a, t in enumerate(config.grid):
        m = int(math.floor(config.n * t))
        centered[:, a, 0] = (raw[:, a, 0] - law.expected_statistic(m, "r")) / scale
        for j in range(1, comps):
            centered[:, a, j] = (raw[:, a, j]
                                 - law.expected_statistic(m, "rk", k=j)) / scale

    spec = asymptotics.CovarianceSpec(config.theta, nu=config.nu)
    m_reps = centered.shape[0]
    rows = []
    for a, tau in enumerate(config.grid):
        for b in range(a, len(config.grid)):
            t = config.grid[b]
            for i in range(comps):
                for j in range(comps):
                    if a == b and j < i:
                        continue
                    emp = float(np.mean(centered[:, a, i] * centered[:, b, j]))
                    theo = spec.cov(i, j, tau, t)
                    var_i = spec.cov(i, i, tau, tau)
                    var_j = spec.cov(j, j, t, t)
                    se = math.sqrt((var_i * var_j + theo ** 2) / m_reps)
                    rows.append(CovarianceRow(
                        i=i, j=j, tau=tau, t=t, empirical=emp, theoretical=theo,
                        std_error=se, z_score=(emp - theo) / se))
    return CovarianceTable(config=config.echo(), rows=tuple(rows))
