"""Replicated experiments that check the limit theorems at desk scale.

``normality_study`` samples M occupancy configurations, forms each
estimator's standardized statistic exactly as its limit theorem states it
(using the true exponent), and reports moments, a Kolmogorov-Smirnov
diagnostic against the standard normal, plug-in CI coverage, and the
theoretical variance target.  Statistic, standardization and target all come
from the estimator table ``estimators.ESTIMATORS``.  Every row is reported:
its KS diagnostic needs 100 usable replications and its moments 2, and each
reads NaN below that.

``covariance_study`` samples nested trajectories, centers every component
with the exact finite-n expectation oracle, scales by sqrt(alpha(n)) and
compares empirical covariances against the limiting covariance function.

Both studies draw replication ``rep`` on stream ``SeedSpec(seed, rep)``,
the normality study on the one-point grid (1.0,): a chunk hands
``sample_trajectories`` the master seed and the range of its replications,
and gets one ``occupancy.StatisticsSnapshot`` per grid time, in its array
form.  Replication rep's Philox key is ``SeedSequence(seed,
spawn_key=(0,))``'s key with rep XORed into its first word
(``sampler._keys``), so a chunk builds one ``SeedSequence``; numpy's
``Philox`` notes that distinct keys give independent sequences.  A
normality chunk then estimates theta_hat and its standard error for every
replication at once (``estimators.estimate_many`` with c(theta) =
1/zeta(1/theta)), standardizes them and checks coverage, all on whole
arrays; no per-replication ``EstimateResult`` is built, and the values equal
those of one-snapshot estimates bit for bit.

Replications are independent jobs keyed by replication index, so results
are identical for any worker count; the aggregation is a commutative merge
over replication-indexed slots.  The worker count is
``ExperimentConfig.workers`` (default 1), at most ``USABLE_CPUS``, the CPUs
this process may run on.  An M whose replications would keep more bytes
than ``law.USABLE_MEMORY`` holds is refused before the law is built, and
an n whose draw would need more (``law.PowerLaw.head_width``) before any
worker starts.  A study builds its law once and hands it to every
chunk; with more workers, the law is pickled to them.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import asymptotics
from .errors import UsageError
from .estimators import (ESTIMATORS, confidence_bounds, estimate_many,
                         expand_estimators, normal_cdf, snapshot_k_max)
from .law import USABLE_MEMORY, PowerLaw, make_zipf_law, zeta_normalization
from .occupancy import DEFAULT_K_MAX
from .sampler import SeedSpec, check_grid, sample_trajectories

__all__ = ["ExperimentConfig", "EstimatorReport", "StudyReport", "CovarianceRow",
           "normality_study", "covariance_study", "ks_test"]

#: the CPUs this process may run on, which bound ``ExperimentConfig.workers``
USABLE_CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)

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
        """Every field but ``workers``, plus ``config_hash``, their SHA-256.
        ``hashlib`` is imported here, so only a study loads it."""
        import hashlib
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

    The p-value is :func:`_kolmogorov_p` at lambda = sqrt(m) D.
    """
    x = np.sort(np.asarray(sample, dtype=float))
    m = x.size
    if m < 100:
        raise UsageError(f"KS diagnostic needs at least 100 points, got {m}")
    cdf = normal_cdf(x)
    upper = np.max(np.arange(1, m + 1) / m - cdf)
    lower = np.max(cdf - np.arange(0, m) / m)
    distance = max(upper, lower)
    return float(distance), _kolmogorov_p(math.sqrt(m) * distance)


def _kolmogorov_p(lam: float) -> float:
    """The Kolmogorov series 2 sum_{j>=1} (-1)^(j-1) exp(-2 j^2 lambda^2),
    truncated at 100 terms, clipped to [0, 1].  The terms fall with j, so
    from the first that underflows to 0.0 (j about 20 at lambda = 1) every
    later one is 0.0 too, and the sum stops there with the same bits."""
    p = 0.0
    for j in range(1, 101):
        term = math.exp(-2.0 * j * j * lam * lam)
        if term == 0.0:
            break
        p += 2.0 * (-1.0) ** (j - 1) * term
    return float(min(max(p, 0.0), 1.0))


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


@dataclass(frozen=True)
class StudyReport:
    """The report of either study: its configuration echo and one row per
    estimator (``EstimatorReport``) or per covariance entry
    (``CovarianceRow``).  A row's fields are the columns of its table."""

    config: dict
    rows: tuple

    def to_json_dict(self) -> dict:
        return asdict(self)

    def row(self, estimator: str) -> EstimatorReport:
        for r in self.rows:
            if r.estimator == estimator:
                return r
        raise KeyError(estimator)


def _law_from_config(cfg: ExperimentConfig) -> PowerLaw:
    if not 1 <= cfg.workers <= USABLE_CPUS:  # the pool forks every worker at once
        raise UsageError(f"workers must be >= 1 and at most {USABLE_CPUS}, got {cfg.workers!r}")
    return make_zipf_law(cfg.theta, i0=cfg.i0, tail_epsilon=cfg.tail_epsilon)


def _check_memory(cfg: ExperimentConfig, grid_times: int, k_max: int, values: int) -> None:
    """Refuse an M whose replications would keep more bytes than this
    process may use.  A replication keeps its 16-byte key, one int64 tally
    row of at most k_max + 4 entries per grid time, and ``values`` float64
    values."""
    kept = cfg.m * (16 + 8 * grid_times * (k_max + 4) + 8 * values)
    if kept > USABLE_MEMORY:
        raise UsageError(f"M = {cfg.m} replications would keep {kept} bytes, more than "
                         f"the {USABLE_MEMORY} bytes of memory this process may use")


def _normality_chunk(cfg: ExperimentConfig, law: PowerLaw, rep_lo: int, rep_hi: int):
    """Standardized values / coverage flags for one chunk of replications,
    NaN where an estimator has no usable estimate."""
    requested = expand_estimators(cfg.estimators, cfg.k_values)
    k_max = snapshot_k_max(requested, cfg.n)
    columns, = sample_trajectories(law, cfg.n, (1.0,), cfg.seed, range(rep_lo, rep_hi),
                                   k_max=k_max)
    values, covered = {}, {}
    for (name, tag, k), (theta_hat, stderr) in zip(
            requested, estimate_many(columns, requested, zeta_normalization)):
        spec = ESTIMATORS[tag]
        values[name] = spec.standardize(theta_hat, cfg.theta, columns, k)
        covered[name] = np.full(theta_hat.size, np.nan)
        rated = np.flatnonzero(stderr > 0.0)  # not where stderr is NaN
        lo, hi = confidence_bounds(theta_hat[rated], stderr[rated], cfg.level)
        covered[name][rated] = (lo <= cfg.theta) & (cfg.theta <= hi)
    return values, covered


def _run_chunked(cfg: ExperimentConfig, law: PowerLaw, chunk_fn):
    workers = int(cfg.workers)
    if workers == 1:
        return [chunk_fn(cfg, law, 0, cfg.m)]
    from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing, so only here
    bounds = np.linspace(0, cfg.m, workers * 2 + 1).astype(int)
    ranges = [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(chunk_fn, cfg, law, a, b) for a, b in ranges]
        return [f.result() for f in futures]


def normality_study(config: ExperimentConfig) -> StudyReport:
    """Check asymptotic normality and variance targets of the estimators."""
    if config.m < 100:
        raise UsageError(f"normality studies need M >= 100, got {config.m}")
    if config.n < 2:
        raise UsageError(f"normality studies need n >= 2, got {config.n}")
    if not 0.0 < config.level < 1.0:
        raise UsageError(f"confidence level must lie in (0, 1), got {config.level!r}")
    SeedSpec(config.seed)  # a bad master raises DomainError before the law is built
    requested = expand_estimators(config.estimators, config.k_values)
    for _, tag, _ in requested:
        if ESTIMATORS[tag].target is None:
            raise UsageError(f"{tag} has no normal limit; drop it from normality studies")
    k_max = snapshot_k_max(requested, config.n)  # a k above n is a usage error
    # each estimator row keeps a standardized value and a coverage flag
    _check_memory(config, 1, k_max, 2 * len(requested))
    law = _law_from_config(config)
    config = replace(config, theta=law.theta)  # a numpy float is echoed as a float
    law.head_width(config.n)  # a head beyond the memory is refused before any worker starts
    chunks = _run_chunked(config, law, _normality_chunk)
    values = {name: np.concatenate([c[0][name] for c in chunks]) for name, _, _ in requested}
    covered = {name: np.concatenate([c[1][name] for c in chunks]) for name, _, _ in requested}

    rows = []
    for name, tag, k in requested:
        target = ESTIMATORS[tag].target(config.theta, k)
        vals = values[name]
        included = vals[~np.isnan(vals)]
        m_excluded = int(np.isnan(vals).sum())
        mean, variance, skew, kurt = _moments(included) if included.size >= 2 else (math.nan,) * 4
        distance, pvalue = (ks_test(included / math.sqrt(target)) if included.size >= 100
                            else (math.nan, math.nan))
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


def _covariance_chunk(cfg: ExperimentConfig, law: PowerLaw, rep_lo: int, rep_hi: int):
    out = np.empty((rep_hi - rep_lo, len(cfg.grid), cfg.nu + 1))
    for a, columns in enumerate(sample_trajectories(law, cfg.n, cfg.grid, cfg.seed,
                                                    range(rep_lo, rep_hi), k_max=cfg.nu)):
        out[:, a, 0] = columns.r
        out[:, a, 1:] = columns.r_k[:cfg.nu].T
    return out


def covariance_study(config: ExperimentConfig) -> StudyReport:
    """Empirical covariance of the centered, scaled occupancy paths against
    the limiting covariance function."""
    grid = check_grid(config.grid)
    if config.m < 100:
        raise UsageError(f"covariance studies need M >= 100, got {config.m}")
    if config.nu < 1 or config.nu > DEFAULT_K_MAX:
        raise UsageError(f"nu must lie in 1..{DEFAULT_K_MAX}, got {config.nu}")
    SeedSpec(config.seed)  # a bad master raises DomainError before the law is built
    if math.floor(config.n * grid[0]) < 1:
        raise UsageError(f"covariance studies need n * t >= 1 at the first grid time "
                         f"t = {grid[0]}, got n = {config.n}")
    # each grid time keeps nu + 1 raw and nu + 1 centered components
    _check_memory(config, len(grid), config.nu, 2 * len(grid) * (config.nu + 1))
    law = _law_from_config(config)
    config = replace(config, theta=law.theta)  # a numpy float is echoed as a float
    # alpha(n) counts urns: counting_function(n) is i0 + alpha(n), or 0 if none
    alpha = max(law.counting_function(float(config.n)) - law.i0, 0)
    if alpha == 0:  # the top urn has n p_1 < 1, and p_1 = c
        raise UsageError(f"covariance studies need an urn with n * p >= 1, which needs "
                         f"n >= {math.ceil(1.0 / law.c)} at theta = {config.theta}, "
                         f"got n = {config.n}")
    law.head_width(math.floor(config.n * grid[-1]), len(grid))
    scale = math.sqrt(alpha)
    comps = config.nu + 1
    raw = np.concatenate(_run_chunked(config, law, _covariance_chunk), axis=0)
    means = np.array([[law.expected_statistic(m, "r")]
                      + [law.expected_statistic(m, "rk", k=j) for j in range(1, comps)]
                      for m in (math.floor(config.n * t) for t in grid)])
    centered = raw - means
    centered /= scale

    spec = asymptotics.CovarianceSpec(config.theta, nu=config.nu)
    m_reps = centered.shape[0]
    rows = []
    for a, tau in enumerate(grid):
        for b in range(a, len(grid)):
            t = grid[b]
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
    return StudyReport(config=config.echo(), rows=tuple(rows))
