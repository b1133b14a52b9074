"""Traced replay of each workload through the public functions of each module.

The replay makes the same calls into the package that the workload's entry
point makes at this version of the program, and wraps each call in a span
(name, start, end, parent).  The spans stay in memory and are summed per
layer when the replay ends.  Work the replay does not reproduce shows as a
``trace.coverage`` below 1; it is reported, not hidden.

``specfun`` has no spans of its own: its time sits inside the ``law`` and
``estimators`` spans.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from zipfest import asymptotics, ingest
from zipfest.errors import AmbiguousRootError, ZipfestError
from zipfest.estimators import (ImplicitSolver, log_ratio_estimate,
                                ratio_estimate_k, ratio_estimate_r1)
from zipfest.law import make_zipf_law, zeta_normalization
from zipfest.montecarlo import ks_test
from zipfest.occupancy import DEFAULT_K_MAX
from zipfest.sampler import SeedSpec, sample_trajectory

from workloads import CLI_K, Corpus, Workload, estimator_rows

SOLVE_ERRORS = ("NoRootError", "AmbiguousRootError", "InsufficientDataError")

# name -> unit; the per_layer list of BENCHMARK.json
PER_LAYER = {
    "law.make_zipf_law.s": "s",
    "law.cutoff_log10": "log10",
    "law.expected_statistic.s": "s",
    "law.expected_statistic.calls": "count",
    "sampler.sample_trajectory.s": "s",
    "sampler.sample_trajectory.calls": "count",
    "sampler.sample_trajectory.balls": "count",
    "sampler.sample_trajectory.ns_per_ball": "ns",
    "sampler.sample_trajectory.rep_p50_ms": "ms",
    "sampler.sample_trajectory.rep_p90_ms": "ms",
    "estimators.solver_init.s": "s",
    "estimators.solver_init.calls": "count",
    "estimators.solve.s": "s",
    "estimators.solve.calls": "count",
    "estimators.solve.iterations": "count",
    "estimators.solve.us_per_call": "us",
    **{f"estimators.solve.failed.{name}": "count" for name in SOLVE_ERRORS},
    "estimators.ratio.s": "s",
    "estimators.ratio.calls": "count",
    "estimators.ratio.failed": "count",
    "asymptotics.cov.s": "s",
    "asymptotics.cov.calls": "count",
    "montecarlo.ks_test.s": "s",
    "montecarlo.ks_test.calls": "count",
    "ingest.tokenize_file.s": "s",
    "ingest.tokenize_file.tokens": "count",
    "ingest.tokenize_file.ns_per_token": "ns",
    "ingest.to_occupancy.s": "s",
    "occupancy.snapshot.s": "s",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.coverage": "ratio",
}

_TIMED_LAYERS = ("law.make_zipf_law", "law.expected_statistic",
                 "sampler.sample_trajectory", "estimators.solver_init",
                 "estimators.solve", "estimators.ratio", "asymptotics.cov",
                 "montecarlo.ks_test", "ingest.tokenize_file",
                 "ingest.to_occupancy", "occupancy.snapshot")


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: str


@dataclass
class Trace:
    """Spans and counters of one replay."""

    root: str
    spans: list[Span] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    problems: list[str] = field(default_factory=list)

    @contextmanager
    def span(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append(Span(name, start, time.perf_counter(), self.root))

    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == name]


def _within_5se(trace: Trace, label: str, values, expected: float) -> None:
    values = np.asarray(values, dtype=float)
    se = values.std(ddof=1) / math.sqrt(values.size)
    if not abs(values.mean() - expected) <= 5.0 * se:
        trace.problems.append(f"mean {label} = {values.mean()} is not within 5 SE "
                              f"({se}) of the oracle's {expected}")


# ----------------------------------------------------------------------
# studies
# ----------------------------------------------------------------------

def _draw(trace: Trace, law, cfg, rep: int, grid):
    with trace.span("sampler.sample_trajectory"):
        snaps = sample_trajectory(law, cfg.n, grid, SeedSpec(cfg.seed, rep),
                                  k_max=max(cfg.k_max, cfg.nu))
    trace.counts["balls"] += cfg.n
    return snaps


def _make_law(trace: Trace, cfg):
    with trace.span("law.make_zipf_law"):
        law = make_zipf_law(cfg.theta, i0=cfg.i0, tail_epsilon=cfg.tail_epsilon)
    trace.counts["cutoff_log10"] = math.log10(law.cutoff)
    return law


def _solve(trace: Trace, solver: ImplicitSolver, stat: float, level: float):
    """solver.solve in a span, counting the error classes it raises."""
    try:
        with trace.span("estimators.solve"):
            est = solver.solve(stat, level=level)
    except ZipfestError as exc:
        name = type(exc).__name__
        if name not in SOLVE_ERRORS:
            trace.problems.append(f"solve raised an undeclared error class {name}")
        trace.counts[f"solve_failed.{name}"] += 1
        raise
    trace.counts["iterations"] += est.diagnostics["iterations"]
    return est


def _ratio(trace: Trace, fn, *args, **kwargs):
    try:
        with trace.span("estimators.ratio"):
            return fn(*args, **kwargs)
    except ZipfestError:
        trace.counts["ratio_failed"] += 1
        raise


def replay_normality(workload: Workload, seed: int, report) -> Trace:
    """The calls of ``normality_study`` with one worker."""
    cfg = workload.config(seed)
    trace = Trace(f"replay {workload.name}")
    law = _make_law(trace, cfg)
    specs = estimator_rows(cfg)
    solvers = {}
    for name, tag, k in specs:
        if tag.startswith("implicit-"):
            with trace.span("estimators.solver_init"):
                solvers[name] = ImplicitSolver(tag.split("-")[1], cfg.n,
                                               zeta_normalization, k=k)
    log_n = math.log(cfg.n)
    values = {name: np.full(cfg.m, np.nan) for name, _, _ in specs}
    r_values, r1_values = [], []
    for rep in range(cfg.m):
        snap = _draw(trace, law, cfg, rep, (1.0,))[0]
        r_values.append(snap.r)
        r1_values.append(snap.exact_count(1))
        for name, tag, k in specs:
            if tag in ("implicit-r", "ratio-r1"):
                scale = snap.r
            elif tag == "implicit-u":
                scale = snap.u
            else:
                scale = snap.exact_count(k)
            try:
                if tag.startswith("implicit-"):
                    est = _solve(trace, solvers[name], float(scale), cfg.level)
                    values[name][rep] = log_n * math.sqrt(scale) * (est.theta_hat - cfg.theta)
                    continue
                if tag == "ratio-r1":
                    est = _ratio(trace, ratio_estimate_r1, snap, level=cfg.level)
                else:
                    est = _ratio(trace, ratio_estimate_k, snap, k, level=cfg.level)
                values[name][rep] = math.sqrt(scale) * (est.theta_hat - cfg.theta)
            except ZipfestError:
                continue

    targets = {"implicit-r": lambda k: asymptotics.implicit_variance(cfg.theta, "r"),
               "implicit-u": lambda k: asymptotics.implicit_variance(cfg.theta, "u"),
               "implicit-rk": lambda k: asymptotics.implicit_variance(cfg.theta, "rk", k),
               "ratio-r1": lambda k: asymptotics.ratio_r1_variance(cfg.theta),
               "ratio-k": lambda k: asymptotics.ratio_k_variance(cfg.theta, k)}
    for name, tag, k in specs:
        included = values[name][~np.isnan(values[name])]
        with trace.span("montecarlo.ks_test"):
            distance, _ = ks_test(included / math.sqrt(targets[tag](k)))
        row = report.row(name)
        if (row.m_included, row.ks_distance, row.mean) != (
                included.size, distance, float(included.mean())):
            trace.problems.append(f"replay of {name} differs from the study's report")

    _within_5se(trace, "R", r_values, law.expected_statistic(cfg.n, "r"))
    _within_5se(trace, "R_1", r1_values, law.expected_statistic(cfg.n, "rk", k=1))
    return trace


def replay_covariance(workload: Workload, seed: int, report) -> Trace:
    """The calls of ``covariance_study`` with one worker: it builds the law
    once for itself and once for its block of replications."""
    cfg = workload.config(seed)
    trace = Trace(f"replay {workload.name}")
    law = _make_law(trace, cfg)
    comps = cfg.nu + 1
    grid = cfg.grid
    block_law = _make_law(trace, cfg)
    raw = np.empty((cfg.m, len(grid), comps))
    for rep in range(cfg.m):
        for a, snap in enumerate(_draw(trace, block_law, cfg, rep, grid)):
            raw[rep, a, 0] = snap.r
            for j in range(1, comps):
                raw[rep, a, j] = snap.exact_count(j)

    scale = math.sqrt(law.counting_function(float(cfg.n)))
    centered = np.empty_like(raw)
    for a, t in enumerate(grid):
        m = int(math.floor(cfg.n * t))
        with trace.span("law.expected_statistic"):
            expected_r = law.expected_statistic(m, "r")
        centered[:, a, 0] = (raw[:, a, 0] - expected_r) / scale
        _within_5se(trace, f"R at t={t}", raw[:, a, 0], expected_r)
        for j in range(1, comps):
            with trace.span("law.expected_statistic"):
                expected = law.expected_statistic(m, "rk", k=j)
            centered[:, a, j] = (raw[:, a, j] - expected) / scale
            if j == 1:
                _within_5se(trace, f"R_1 at t={t}", raw[:, a, 1], expected)

    spec = asymptotics.CovarianceSpec(cfg.theta, nu=cfg.nu)
    rows = iter(report.rows)
    for a, tau in enumerate(grid):
        for b in range(a, len(grid)):
            t = grid[b]
            for i in range(comps):
                for j in range(comps):
                    if a == b and j < i:
                        continue
                    empirical = float(np.mean(centered[:, a, i] * centered[:, b, j]))
                    for args in ((i, j, tau, t), (i, i, tau, tau), (j, j, t, t)):
                        with trace.span("asymptotics.cov"):
                            spec.cov(*args)
                    row = next(rows, None)
                    if row is None or not math.isclose(row.empirical, empirical,
                                                       rel_tol=1e-12, abs_tol=1e-15):
                        trace.problems.append(
                            f"replay of covariance ({i}, {j}, {tau}, {t}) differs "
                            "from the study's report")
    return trace


# ----------------------------------------------------------------------
# CLI estimate
# ----------------------------------------------------------------------

def replay_estimate(workload: Workload, corpus: Corpus, stdout: str) -> Trace:
    """The calls of ``zipfest estimate`` on the corpus, all estimators."""
    trace = Trace(f"replay {workload.name}")
    with trace.span("ingest.tokenize_file"):
        tokens = ingest.tokenize_file(corpus.path)
    trace.counts["tokens"] += tokens.total
    with trace.span("ingest.to_occupancy"):
        occupancy = ingest.to_occupancy(tokens)
    k_max = max(DEFAULT_K_MAX, max(CLI_K) + 1)
    with trace.span("occupancy.snapshot"):
        snap = occupancy.snapshot(k_max=k_max)
    n = int(occupancy.total)

    occupied = corpus.counts[corpus.counts > 0]
    profile = np.bincount(np.minimum(occupied, k_max + 1), minlength=k_max + 2)
    if (snap.r, snap.r_k, snap.u) != (occupied.size, tuple(int(v) for v in profile[1:k_max + 1]),
                                      int(np.count_nonzero(occupied & 1))):
        trace.problems.append("the snapshot of the corpus differs from its generator's counts")

    results = []
    stats = [("r", None, snap.r), ("u", None, snap.u)]
    stats += [("rk", k, snap.exact_count(k)) for k in CLI_K]
    for which, k, stat in stats:
        with trace.span("estimators.solver_init"):
            solver = ImplicitSolver(which, n, zeta_normalization, k=k)
        try:
            results.append(_solve(trace, solver, float(stat), 0.95))
        except AmbiguousRootError as exc:
            # the CLI takes the root nearest the log-ratio baseline
            baseline = log_ratio_estimate(snap).theta_hat
            root = min(exc.roots, key=lambda r: abs(r - baseline))
            results.append(solver.result_for_root(root, float(stat)))
    results.append(_ratio(trace, ratio_estimate_r1, snap))
    results.extend(_ratio(trace, ratio_estimate_k, snap, k) for k in CLI_K)
    results.append(_ratio(trace, log_ratio_estimate, snap))

    printed = {e["estimator"]: e["theta_hat"] for e in json.loads(stdout)["estimates"]}
    for est in results:
        if printed.get(est.estimator_id) != float(f"{est.theta_hat:.10g}"):
            trace.problems.append(f"replay of {est.estimator_id} differs from the CLI output")
    return trace


def replay(workload: Workload, seed: int, output, corpus: Corpus | None) -> Trace:
    if workload.kind == "normality":
        return replay_normality(workload, seed, output)
    if workload.kind == "covariance":
        return replay_covariance(workload, seed, output)
    return replay_estimate(workload, corpus, output[1])


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------

def layer_metrics(workload: Workload, trace: Trace, replay_wall: float,
                  untraced_wall: float) -> dict[str, float]:
    """Every PER_LAYER metric of one replay; 0 for layers it never called."""
    out = {}
    for layer in _TIMED_LAYERS:
        out[f"{layer}.s"] = sum(trace.durations(layer))
    for layer in ("law.expected_statistic", "sampler.sample_trajectory",
                  "estimators.solver_init", "estimators.solve", "estimators.ratio",
                  "asymptotics.cov", "montecarlo.ks_test"):
        out[f"{layer}.calls"] = len(trace.durations(layer))
    counts = trace.counts
    out["law.cutoff_log10"] = counts["cutoff_log10"]

    draws = [d * 1e3 for d in trace.durations("sampler.sample_trajectory")]
    balls = counts["balls"]
    out["sampler.sample_trajectory.balls"] = balls
    out["sampler.sample_trajectory.ns_per_ball"] = (
        out["sampler.sample_trajectory.s"] / balls * 1e9 if balls else 0.0)
    # p90 is the highest percentile that leaves ten replications beyond it at M=100
    out["sampler.sample_trajectory.rep_p50_ms"] = statistics.median(draws) if draws else 0.0
    out["sampler.sample_trajectory.rep_p90_ms"] = (
        float(np.percentile(draws, 90)) if draws else 0.0)

    solves = out["estimators.solve.calls"]
    out["estimators.solve.iterations"] = counts["iterations"]
    out["estimators.solve.us_per_call"] = (
        out["estimators.solve.s"] / solves * 1e6 if solves else 0.0)
    for name in SOLVE_ERRORS:
        out[f"estimators.solve.failed.{name}"] = counts[f"solve_failed.{name}"]
    out["estimators.ratio.failed"] = counts["ratio_failed"]

    tokens = counts["tokens"]
    out["ingest.tokenize_file.tokens"] = tokens
    out["ingest.tokenize_file.ns_per_token"] = (
        out["ingest.tokenize_file.s"] / tokens * 1e9 if tokens else 0.0)

    spanned = sum(s.end - s.start for s in trace.spans)
    out["cli.self_s"] = untraced_wall - spanned if workload.kind == "estimate" else 0.0
    out["trace.wall_s"] = replay_wall
    out["trace.coverage"] = spanned / untraced_wall
    return out
