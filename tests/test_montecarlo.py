import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from zipfest import montecarlo
from zipfest.errors import InsufficientDataError, NoRootError, UsageError
from zipfest.estimators import ESTIMATORS, expand_estimators, snapshot_k_max
from zipfest.law import make_zipf_law, zeta_normalization
from zipfest.sampler import SeedSpec, sample_trajectory
from zipfest.montecarlo import ExperimentConfig, covariance_study, normality_study

SMALL = ExperimentConfig(theta=0.5, n=2000, m=100, seed=5)


def _text(report) -> str:
    return json.dumps(report.to_json_dict(), sort_keys=True)


@pytest.mark.parametrize("study", [normality_study, covariance_study])
def test_report_independent_of_worker_count(study):
    assert _text(study(SMALL)) == _text(study(replace(SMALL, workers=2)))


def test_workers_default_ignores_environment(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("the default study ran a process pool")

    monkeypatch.setenv("ZIPFEST_WORKERS", "3")
    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", no_pool)
    assert covariance_study(replace(SMALL, n=500)).rows


def test_every_table_estimator_with_a_normal_limit_reports_rows():
    tags = tuple(tag for tag in ESTIMATORS if tag != "log-ratio")
    report = normality_study(replace(SMALL, estimators=tags, k_values=(1,)))
    expected = [f"{tag}(1)" if ESTIMATORS[tag].per_k else tag for tag in tags]
    assert [row.estimator for row in report.rows] == expected
    for tag, row in zip(tags, report.rows):
        assert row.m_included + row.m_excluded == SMALL.m
        assert row.m_included >= 100
        assert row.target_variance == ESTIMATORS[tag].target(SMALL.theta, 1)


def test_ratio_k_beyond_default_count_range():
    # ratio-k(8) reads R_9, one past the default snapshot range of 8
    config = ExperimentConfig(theta=0.7, n=40_000, m=100, estimators=("ratio-k",),
                              k_values=(8,))
    row = normality_study(config).row("ratio-k(8)")
    assert row.m_included == 100
    assert 0.5 < row.variance_ratio < 2.0


def test_chunk_memory_does_not_grow_with_the_block():
    # the draws come in blocks of a fixed size, so only the result arrays,
    # about 0.2 KiB a replication, grow with M; one block of all M draws
    # would hold about 80 KiB a replication
    config = ExperimentConfig(theta=0.9, n=2000, m=100)
    montecarlo._normality_chunk(config, 0, 100)  # the solver tables, once per process
    peaks = []
    for m in (100, 800):
        tracemalloc.start()
        montecarlo._normality_chunk(config, 0, m)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] - peaks[0] < 700 * 1024


def _reference_chunk(cfg, rep_lo, rep_hi):
    """_normality_chunk as a loop over replications and ``spec.estimate``."""
    law = make_zipf_law(cfg.theta, i0=cfg.i0, tail_epsilon=cfg.tail_epsilon)
    requested = expand_estimators(cfg.estimators, cfg.k_values)
    solvers = {name: ESTIMATORS[tag].solver(cfg.n, zeta_normalization, k)
               for name, tag, k in requested}
    values = {name: np.full(rep_hi - rep_lo, np.nan) for name, _, _ in requested}
    covered = {name: np.full(rep_hi - rep_lo, np.nan) for name, _, _ in requested}
    for offset, rep in enumerate(range(rep_lo, rep_hi)):
        snap, = sample_trajectory(law, cfg.n, (1.0,), SeedSpec(cfg.seed, rep),
                                  k_max=snapshot_k_max(requested))
        for name, tag, k in requested:
            spec = ESTIMATORS[tag]
            try:
                est = spec.estimate(snap, k, cfg.level, solvers[name])
            except (NoRootError, InsufficientDataError):
                continue
            values[name][offset] = spec.standardize(est.theta_hat, cfg.theta, snap, k)
            if est.stderr > 0.0:
                covered[name][offset] = float(est.ci[0] <= cfg.theta <= est.ci[1])
    return values, covered


def _assert_chunk_matches_loop(config):
    """_normality_chunk on replications 3..42 against the loop, NaN for NaN;
    returns the chunk's values."""
    values, covered = montecarlo._normality_chunk(config, 3, 43)
    ref_values, ref_covered = _reference_chunk(config, 3, 43)
    assert list(values) == list(ref_values)
    for name in ref_values:
        assert np.array_equal(values[name], ref_values[name], equal_nan=True), name
        assert np.array_equal(covered[name], ref_covered[name], equal_nan=True), name
    return values


def test_staged_chunk_matches_a_loop_over_estimate():
    values = _assert_chunk_matches_loop(replace(SMALL, k_values=(1, 2)))
    # R_2 has two roots at every replication (g_rk(2) falls back to 0 as
    # theta -> 1), and the lower one is the estimate
    assert not np.isnan(values["implicit-rk(2)"]).any()
    assert not np.isnan(values["implicit-r"]).any()

    # at theta = 0.9, R_2 lies above the peak of g_rk(2), so has no root, in
    # about a third of the replications
    values = _assert_chunk_matches_loop(replace(SMALL, theta=0.9, k_values=(1, 2)))
    assert 5 <= np.isnan(values["implicit-rk(2)"]).sum() <= 35

    # R_8 = 0 in about half of the replications at n = 2000: ratio-k(8) has
    # too little data there and implicit-rk(8) a statistic below 1
    values = _assert_chunk_matches_loop(replace(
        SMALL, k_values=(8,), estimators=("ratio-k", "implicit-rk")))
    for name in ("ratio-k(8)", "implicit-rk(8)"):
        assert 5 <= np.isnan(values[name]).sum() <= 35, name


def test_coverage_near_a_tie_comes_from_the_estimate(monkeypatch):
    # with every CI bound counted as near theta, each coverage flag comes
    # from the replication's own EstimateResult
    monkeypatch.setattr(montecarlo, "_TIE", 1.0)
    _assert_chunk_matches_loop(replace(SMALL, k_values=(1, 2)))


def test_implicit_rk_rows_exclude_no_replication():
    config = ExperimentConfig(theta=0.5, n=5000, m=100, k_values=(1, 2, 3),
                              estimators=("implicit-rk",))
    report = normality_study(config)
    assert [row.estimator for row in report.rows] == [
        "implicit-rk(1)", "implicit-rk(2)", "implicit-rk(3)"]
    for row in report.rows:
        assert (row.m_included, row.m_excluded) == (100, 0), row.estimator


@pytest.mark.parametrize("study, changes, message", [
    (normality_study, {"estimators": ("ratio-r1", "log-ratio")},
     "log-ratio has no normal limit"),
    (normality_study, {"estimators": ("ratio-x",)}, "unknown estimator"),
    (normality_study, {"m": 99}, "M >= 100"),
    (covariance_study, {"m": 99}, "M >= 100"),
    (normality_study, {"level": 1.5}, "level must lie in"),
    (normality_study, {"n": 1}, "n >= 2"),
    (covariance_study, {"n": 1}, "n \\* t >= 1"),
    (normality_study, {"workers": 0}, "workers must be >= 1"),
    (covariance_study, {"workers": 0}, "workers must be >= 1"),
])
def test_usage_errors(study, changes, message):
    with pytest.raises(UsageError, match=message):
        study(replace(SMALL, **changes))
