import concurrent.futures
import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.stats as st

from zipfest import law as law_module
from zipfest import montecarlo, sampler
from zipfest.errors import DomainError, UsageError
from zipfest.estimators import (ESTIMATORS, estimate_rows, expand_estimators, normal_cdf,
                                snapshot_k_max)
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
    # the pool is imported where it is used, so patch it at its source
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    assert covariance_study(replace(SMALL, n=500)).rows


@pytest.mark.parametrize("study", [normality_study, covariance_study])
def test_workers_above_the_usable_cpus_are_refused_before_any_process(monkeypatch, study):
    def refuse(*args, **kwargs):
        raise AssertionError("the study went on past its workers check")

    # the pool forks every worker at its first submit
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    monkeypatch.setattr(montecarlo, "make_zipf_law", refuse)
    with pytest.raises(UsageError, match=f"at most {montecarlo.USABLE_CPUS}, got"):
        study(replace(SMALL, workers=montecarlo.USABLE_CPUS + 1))


def _modules_after_import(prefixes, statement="pass") -> str:
    """The loaded modules that start with one of ``prefixes`` once a fresh
    interpreter has imported the package and run ``statement``: the last
    line of its stdout."""
    code = (f"import sys, zipfest.cli; {statement}; print(sorted(m for m in sys.modules "
            f"if m.startswith({tuple(prefixes)!r})))")
    src = os.path.dirname(os.path.dirname(montecarlo.__file__))
    paths = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout.splitlines()[-1]


def test_importing_the_package_loads_no_process_pool():
    # only a study with workers > 1 imports the pool and multiprocessing
    assert _modules_after_import(["multiprocessing", "concurrent.futures.process"]) == "[]"


def test_importing_the_package_loads_no_numpy_random():
    # the first draw loads it; loaded at import, it raised a study's peak memory
    assert _modules_after_import(["numpy.random"]) == "[]"


def test_an_estimate_to_stdout_loads_no_hashlib_or_statistics(tmp_path):
    # only a manifest hashes, and only a level other than 0.95 needs NormalDist;
    # hashlib maps OpenSSL, and statistics loads decimal
    path = tmp_path / "text.txt"
    path.write_text("the cat sat on the mat and the dog sat on the log\n", encoding="utf-8")
    argv = ["estimate", "--input", str(path), "--estimators", "all", "--c-model", "zeta"]
    statement = f"assert zipfest.cli.main({argv!r}) == 0"
    assert _modules_after_import(["hashlib", "_hashlib", "statistics"], statement) == "[]"


@pytest.mark.parametrize("study", [normality_study, covariance_study])
def test_a_study_builds_its_law_once(monkeypatch, study):
    calls = []
    monkeypatch.setattr(montecarlo, "make_zipf_law",
                        lambda *args, **kw: calls.append(args) or make_zipf_law(*args, **kw))
    study(replace(SMALL, n=500))
    assert calls == [(SMALL.theta,)]


@pytest.mark.parametrize("shift", [0.0, 0.1, 0.3])
def test_ks_test_matches_scipy(shift):
    x = np.random.Generator(np.random.PCG64(400)).standard_normal(400) + shift
    expected = st.kstest(x, "norm", method="asymp")
    distance, pvalue = montecarlo.ks_test(x)
    assert distance == pytest.approx(expected.statistic, rel=1e-12)
    assert pvalue == pytest.approx(expected.pvalue, rel=1e-12)


def test_ks_test_takes_phi_of_each_value_bit_for_bit():
    # Phi of the whole sorted sample in one array pass, entry by entry the
    # float Phi of one value
    x = np.concatenate([np.linspace(-40.0, 40.0, 8001), [0.0, 1e-300, -1e-300]])
    scalar = np.array([normal_cdf(float(v)) for v in x])
    formula = np.array([0.5 * (1.0 + math.erf(float(v) / math.sqrt(2.0))) for v in x])
    for reference in (scalar, formula):
        assert np.array_equal(normal_cdf(x).view(np.int64), reference.view(np.int64))
    m, cdf = x.size, np.sort(scalar)
    distance = max(np.max(np.arange(1, m + 1) / m - cdf), np.max(cdf - np.arange(0, m) / m))
    assert montecarlo.ks_test(x)[0] == distance


def test_ks_test_needs_100_points():
    montecarlo.ks_test(np.linspace(-2.0, 2.0, 100))
    with pytest.raises(UsageError, match="at least 100 points, got 99"):
        montecarlo.ks_test(np.linspace(-2.0, 2.0, 99))


def _kolmogorov_100_terms(lam):
    p = 0.0
    for j in range(1, 101):
        p += 2.0 * (-1.0) ** (j - 1) * math.exp(-2.0 * j * j * lam * lam)
    return float(min(max(p, 0.0), 1.0))


def test_kolmogorov_series_stops_at_its_first_zero_term_bit_for_bit():
    lams = np.linspace(0.0, 3.0, 3001).tolist()
    # the lambda at which term j first underflows to 0.0, and the float below it
    for j in (1, 2, 20, 65, 100):
        below, zero = 0.0, 30.0
        while np.nextafter(below, zero) < zero:
            mid = 0.5 * (below + zero)
            if math.exp(-2.0 * j * j * mid * mid) == 0.0:
                zero = mid
            else:
                below = mid
        lams += [below, zero]
    for lam in lams:
        assert montecarlo._kolmogorov_p(lam) == _kolmogorov_100_terms(lam), lam


def test_covariance_rows_do_not_depend_on_the_index_shift():
    # the shift i0 renames the urns: no drawn statistic, no oracle value and
    # so no row may move with it
    config = ExperimentConfig(theta=0.7, n=20_000, m=100, seed=3)
    shifted = covariance_study(replace(config, i0=1000))
    assert shifted.config["i0"] == 1000
    assert shifted.rows == covariance_study(config).rows


@pytest.mark.parametrize("theta, n_min", [(0.9, 10), (0.5, 2)])
def test_covariance_needs_an_urn_with_n_p_at_least_1(theta, n_min):
    law = make_zipf_law(theta)
    assert law.counting_function(n_min - 1) == 0 < law.counting_function(n_min)
    config = ExperimentConfig(theta=theta, n=n_min, m=100, seed=5, grid=(1.0,))
    with pytest.raises(UsageError, match=f"needs n >= {n_min} at theta"):
        covariance_study(replace(config, n=n_min - 1))
    report = covariance_study(config)
    assert all(np.isfinite(row.z_score) for row in report.rows)


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
    law = montecarlo._law_from_config(config)
    montecarlo._normality_chunk(config, law, 0, 100)  # the solver tables, once per process
    peaks = []
    for m in (100, 800):
        tracemalloc.start()
        montecarlo._normality_chunk(config, law, 0, m)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] - peaks[0] < 700 * 1024


def _reference_chunk(cfg, rep_lo, rep_hi):
    """_normality_chunk as a loop over replications and one-snapshot
    ``estimate_rows``."""
    law = make_zipf_law(cfg.theta, i0=cfg.i0, tail_epsilon=cfg.tail_epsilon)
    requested = expand_estimators(cfg.estimators, cfg.k_values)
    values = {name: np.full(rep_hi - rep_lo, np.nan) for name, _, _ in requested}
    covered = {name: np.full(rep_hi - rep_lo, np.nan) for name, _, _ in requested}
    for offset, rep in enumerate(range(rep_lo, rep_hi)):
        snap, = sample_trajectory(law, cfg.n, (1.0,), SeedSpec(cfg.seed, rep),
                                  k_max=snapshot_k_max(requested, cfg.n))
        for (name, tag, k), est in zip(
                requested, estimate_rows(snap, requested, cfg.level, zeta_normalization)):
            values[name][offset] = ESTIMATORS[tag].standardize(est.theta_hat, cfg.theta, snap, k)
            if est.stderr > 0.0:
                covered[name][offset] = float(est.ci[0] <= cfg.theta <= est.ci[1])
    return values, covered


def _assert_chunk_matches_loop(config):
    """_normality_chunk on replications 3..42 against the loop, NaN for NaN;
    returns the chunk's values."""
    law = montecarlo._law_from_config(config)
    values, covered = montecarlo._normality_chunk(config, law, 3, 43)
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


def test_implicit_rk_rows_exclude_no_replication():
    config = ExperimentConfig(theta=0.5, n=5000, m=100, k_values=(1, 2, 3),
                              estimators=("implicit-rk",))
    report = normality_study(config)
    assert [row.estimator for row in report.rows] == [
        "implicit-rk(1)", "implicit-rk(2)", "implicit-rk(3)"]
    for row in report.rows:
        assert (row.m_included, row.m_excluded) == (100, 0), row.estimator


def test_a_study_builds_one_seed_sequence_per_chunk(monkeypatch):
    # every replication's Philox key comes from one SeedSequence per chunk,
    # not one per replication; one worker runs one chunk
    built = []

    class Counted(np.random.SeedSequence):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", Counted)
    normality_study(replace(SMALL, m=200))
    assert len(built) == 1


def test_a_study_builds_one_seed_spec(monkeypatch):
    # the master check; each chunk's keys come from its range of replications
    built = []
    post_init = SeedSpec.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(SeedSpec, "__post_init__", counted)
    normality_study(replace(SMALL, m=200))
    assert len(built) <= 1


@pytest.mark.parametrize("study, m", [(normality_study, 200), (covariance_study, 100)])
def test_a_chunk_builds_one_generator(monkeypatch, study, m):
    # one per replication before streams shared a re-keyed generator
    built, generator = [], sampler._generator
    monkeypatch.setattr(sampler, "_generator", lambda key: built.append(key) or generator(key))
    study(replace(SMALL, m=m))
    assert len(built) == 1


@pytest.mark.parametrize("study", [normality_study, covariance_study])
def test_a_head_beyond_the_memory_is_refused_before_any_worker(monkeypatch, study):
    def refuse(*args, **kwargs):
        raise AssertionError("the study went on past its head check")

    monkeypatch.setattr(montecarlo, "_run_chunked", refuse)
    # a head of 34 urns (n = 2000 at theta = 0.5) needs 544 bytes at one
    # grid time; at three, a head of 20 urns (alpha(2000 / 3)) needs 640
    monkeypatch.setattr(law_module, "USABLE_MEMORY", 500)
    with pytest.raises(UsageError, match="n = 2000 needs a head of"):
        study(replace(SMALL, grid=(0.25, 0.5, 1.0)))
    monkeypatch.setattr(law_module, "USABLE_MEMORY", 10 ** 6)
    with pytest.raises(AssertionError, match="past its head check"):
        study(replace(SMALL, grid=(0.25, 0.5, 1.0)))


@pytest.mark.parametrize("grid", [(), (math.nan,), (math.inf,), (1e308,), (-1.0,),
                                  (0.5, 0.5), (1.0, 0.5)])
def test_a_bad_grid_is_a_usage_error_before_the_law(monkeypatch, grid):
    # the grid rule of sample_trajectories, applied before n * t is read:
    # these ended in a ValueError, OverflowError or TypeError from floor
    def refuse(*args, **kwargs):
        raise AssertionError("the study went on past its grid check")

    monkeypatch.setattr(montecarlo, "make_zipf_law", refuse)
    with pytest.raises(UsageError, match="grid must be"):
        covariance_study(replace(SMALL, grid=grid))


@pytest.mark.parametrize("study", [normality_study, covariance_study])
def test_an_m_beyond_the_memory_is_refused_before_the_law(monkeypatch, study):
    def refuse(*args, **kwargs):
        raise AssertionError("the study went on past its memory check")

    monkeypatch.setattr(montecarlo, "make_zipf_law", refuse)
    monkeypatch.setattr(montecarlo, "sample_trajectories", refuse)
    # each replication keeps more than 100 bytes: its key and a tally row
    monkeypatch.setattr(montecarlo, "USABLE_MEMORY", 100 * 100)
    with pytest.raises(UsageError, match="M = 100 replications would keep"):
        study(replace(SMALL, m=100))
    monkeypatch.setattr(montecarlo, "USABLE_MEMORY", 10 ** 6)
    with pytest.raises(AssertionError, match="past its memory check"):
        study(replace(SMALL, m=100))


@pytest.mark.parametrize("study", [normality_study, covariance_study])
def test_a_negative_seed_is_a_domain_error_before_the_law(monkeypatch, study):
    def no_law(*args, **kwargs):
        raise AssertionError("the law was built")

    monkeypatch.setattr(montecarlo, "make_zipf_law", no_law)
    with pytest.raises(DomainError, match="non-negative integer"):
        study(replace(SMALL, n=1000, seed=-1))


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


@pytest.mark.parametrize("dtype", [np.float32, np.float16])
@pytest.mark.parametrize("study", [normality_study, covariance_study])
def test_a_numpy_float_theta_is_a_float(study, dtype):
    # the report, its config echo included, is that of the same theta as a float
    theta = dtype(0.3)
    assert _text(study(replace(SMALL, theta=theta))) == _text(
        study(replace(SMALL, theta=float(theta))))


@pytest.mark.parametrize("theta", [True, np.bool_(True), "0.5"])
@pytest.mark.parametrize("study", [normality_study, covariance_study])
def test_a_theta_that_is_no_real_number_is_a_domain_error(study, theta):
    with pytest.raises(DomainError, match="real number"):
        study(replace(SMALL, theta=theta))
