import json
from dataclasses import replace

import pytest

from zipfest import montecarlo
from zipfest.errors import UsageError
from zipfest.estimators import ESTIMATORS
from zipfest.law import make_zipf_law
from zipfest.montecarlo import (ExperimentConfig, covariance_study, normality_study,
                                remainder_study)

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


@pytest.mark.parametrize("study, changes, message", [
    (normality_study, {"estimators": ("ratio-r1", "log-ratio")},
     "log-ratio has no normal limit"),
    (normality_study, {"estimators": ("ratio-x",)}, "unknown estimator"),
    (normality_study, {"m": 99}, "M >= 100"),
    (covariance_study, {"m": 99}, "M >= 100"),
    (normality_study, {"level": 1.5}, "level must lie in"),
])
def test_usage_errors(study, changes, message):
    with pytest.raises(UsageError, match=message):
        study(replace(SMALL, **changes))


def test_remainder_study_rejects_unordered_sizes():
    with pytest.raises(UsageError, match="strictly increasing"):
        remainder_study(make_zipf_law(0.5), [1000, 1000])


def test_remainder_study_counting_function_within_one():
    # with i0 = 0, alpha(n) = floor((c n)^theta)
    rows = remainder_study(make_zipf_law(0.5), [10, 100, 10 ** 4, 10 ** 6])
    alpha = [row for row in rows if row.statistic == "alpha"]
    assert [row.n for row in alpha] == [10, 100, 10 ** 4, 10 ** 6]
    assert all(abs(row.remainder) <= 1.0 for row in alpha)
