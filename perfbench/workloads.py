"""The four workloads: their inputs from a seed, the entry-point call, the
set-up cost, and the checks on each call's output.

Every workload runs in one process with ``workers=1``: the studies are given
it explicitly, because ``montecarlo`` would otherwise read ``ZIPFEST_WORKERS``
and silently change the program being measured.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from zipfest import cli
from zipfest.estimators import ImplicitSolver
from zipfest.law import make_zipf_law, zeta_normalization
from zipfest.montecarlo import (ExperimentConfig, StudyReport,
                                covariance_study, normality_study)

COVARIANCE_GRID = (0.25, 0.5, 1.0)
COVARIANCE_NU = 2

# The corpus draws word ranks from a Zipf law over a fixed vocabulary with
# numpy's PCG64, not with the zipfest sampler, so a sampler change cannot
# change the input of the estimate workload.
CORPUS_WORDS = 1 << 18
CORPUS_CHUNK = 100_000
CLI_K = (1, 2)
CLI_ESTIMATES = ("implicit-r", "implicit-u", "implicit-rk(1)", "implicit-rk(2)",
                 "ratio-r1", "ratio-k(1)", "ratio-k(2)", "log-ratio")

# (implicit statistic, k) pairs whose solvers each workload builds
SOLVERS = {
    "normality": (("r", None), ("u", None), ("rk", 1)),
    "covariance": (),
    "estimate": (("r", None), ("u", None), ("rk", 1), ("rk", 2)),
}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str     # "normality", "covariance" or "estimate"
    theta: float  # exponent of the law (of the corpus law for "estimate")
    n: int        # balls per replication, or corpus tokens
    m: int = 0    # replications; studies only

    def config(self, seed: int) -> ExperimentConfig:
        if self.kind == "normality":
            return ExperimentConfig(theta=self.theta, n=self.n, m=self.m,
                                    k_values=(1,), seed=seed, workers=1)
        return ExperimentConfig(theta=self.theta, n=self.n, m=self.m,
                                grid=COVARIANCE_GRID, nu=COVARIANCE_NU,
                                seed=seed, workers=1)


WORKLOADS = {w.name: w for w in (
    Workload("normality-z05", "normality", 0.5, 100_000, 200),
    Workload("normality-z09", "normality", 0.9, 2000, 100),
    Workload("covariance-z07", "covariance", 0.7, 100_000, 200),
    Workload("estimate-corpus", "estimate", 0.6, 2_000_000),
)}

# Tiny sizes for the benchmark's own smoke test; studies need M >= 100.
SMOKE_SIZES = {"normality-z05": 5000, "normality-z09": 200,
               "covariance-z07": 1000, "estimate-corpus": 20_000}


def smoke(workload: Workload) -> Workload:
    m = 100 if workload.m else 0
    return replace(workload, n=SMOKE_SIZES[workload.name], m=m)


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Corpus:
    path: Path
    counts: np.ndarray  # occurrences of each vocabulary rank


def _word(rank: int) -> bytes:
    """Bijective base-26 letters: the most frequent ranks get the shortest words."""
    letters = []
    rank += 1
    while rank:
        rank, digit = divmod(rank - 1, 26)
        letters.append(97 + digit)
    return bytes(reversed(letters))


def make_corpus(workload: Workload, seed: int, path: Path) -> Corpus:
    """Write ``workload.n`` space-separated tokens drawn from the corpus law."""
    rng = np.random.Generator(np.random.PCG64(seed))
    weights = np.arange(1, CORPUS_WORDS + 1, dtype=float) ** (-1.0 / workload.theta)
    cum = np.cumsum(weights)
    counts = np.zeros(CORPUS_WORDS, dtype=np.int64)
    words: dict[int, bytes] = {}
    with open(path, "wb") as fh:
        for lo in range(0, workload.n, CORPUS_CHUNK):
            size = min(CORPUS_CHUNK, workload.n - lo)
            ranks = np.searchsorted(cum, rng.random(size) * cum[-1], side="right")
            counts += np.bincount(ranks, minlength=CORPUS_WORDS)
            uniq, inverse = np.unique(ranks, return_inverse=True)
            table = [words.setdefault(int(r), _word(int(r))) for r in uniq]
            fh.write(b" ".join([table[i] for i in inverse]) + b"\n")
    return Corpus(path=path, counts=counts)


def cli_args(corpus: Corpus) -> list[str]:
    return ["estimate", "--input", str(corpus.path), "--estimators", "all",
            "--c-model", "zeta", "--k", ",".join(map(str, CLI_K))]


# ----------------------------------------------------------------------
# set-up and the entry-point call
# ----------------------------------------------------------------------

def setup(workload: Workload) -> None:
    """The fixed cost before the first draw or token: the law the studies
    build, plus the implicit solvers the workload's estimators need."""
    if workload.kind != "estimate":
        make_zipf_law(workload.theta)
    for which, k in SOLVERS[workload.kind]:
        ImplicitSolver(which, workload.n, zeta_normalization, k=k)


def run_cli(corpus: Corpus) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(cli_args(corpus))
    return code, out.getvalue()


def call(workload: Workload, seed: int, corpus: Corpus | None):
    """One call of the workload's entry point; returns its output."""
    if workload.kind == "normality":
        return normality_study(workload.config(seed))
    if workload.kind == "covariance":
        return covariance_study(workload.config(seed))
    return run_cli(corpus)


def fingerprint(output) -> str:
    """Exact text of an output, to check that two calls agree."""
    if isinstance(output, tuple):
        return f"{output[0]}\n{output[1]}"
    return json.dumps(output.to_json_dict(), sort_keys=True)


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------

def _finite(values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def estimator_rows(cfg: ExperimentConfig) -> list[tuple[str, str, int | None]]:
    """(report row, estimator tag, k) of each row a normality study reports."""
    rows = []
    for tag in cfg.estimators:
        ks = cfg.k_values if tag in ("implicit-rk", "ratio-k") else (None,)
        rows.extend((tag if k is None else f"{tag}({k})", tag, k) for k in ks)
    return rows


def covariance_row_count() -> int:
    comps = COVARIANCE_NU + 1
    points = len(COVARIANCE_GRID)
    same_time = comps * (comps + 1) // 2
    return points * same_time + points * (points - 1) // 2 * comps * comps


def check_output(workload: Workload, output, corpus: Corpus | None) -> tuple[list[str], int, int]:
    """-> (failed checks, operations attempted, operations failed)."""
    problems = []
    if workload.kind == "normality":
        report: StudyReport = output
        names = [r.estimator for r in report.rows]
        if names != [row for row, _, _ in estimator_rows(workload.config(0))]:
            problems.append(f"report rows {names} differ from the requested estimators")
        failed = 0
        for row in report.rows:
            failed += row.m_excluded
            fields = (row.mean, row.variance, row.skewness, row.excess_kurtosis,
                      row.ks_distance, row.ks_pvalue, row.target_variance,
                      row.variance_ratio, row.coverage)
            if not _finite(fields):
                problems.append(f"{row.estimator}: non-finite field in {fields}")
            if row.m_included < 100 or row.m_included + row.m_excluded != workload.m:
                problems.append(f"{row.estimator}: {row.m_included} of {workload.m} "
                                "replications included")
        return problems, len(report.rows) * workload.m, failed
    if workload.kind == "covariance":
        rows = output.rows
        if len(rows) != covariance_row_count():
            problems.append(f"{len(rows)} covariance rows, expected {covariance_row_count()}")
        for row in rows:
            fields = (row.empirical, row.theoretical, row.std_error, row.z_score)
            if not _finite(fields):
                problems.append(f"covariance row {row}: non-finite field")
        failed = sum(not _finite((r.empirical, r.z_score)) for r in rows)
        return problems, len(rows) * workload.m, failed

    code, text = output
    if code != 0:
        return [f"the CLI exited with {code}"], 1, 1
    payload = json.loads(text)
    estimates = {e["estimator"]: e for e in payload["estimates"]}
    if list(estimates) != list(CLI_ESTIMATES):
        problems.append(f"CLI estimates {list(estimates)}, expected {list(CLI_ESTIMATES)}")
    if payload["n"] != workload.n:
        problems.append(f"CLI reports n={payload['n']}, the corpus has {workload.n} tokens")
    for name, est in estimates.items():
        if not _finite((est["theta_hat"], est["stderr"], est["ci_lo"], est["ci_hi"])):
            problems.append(f"{name}: non-finite estimate {est}")
    # R_1 / R from the generator's own counts, printed as the CLI prints it
    occupied = corpus.counts[corpus.counts > 0]
    expected = float(f"{np.count_nonzero(occupied == 1) / occupied.size:.10g}")
    if estimates.get("ratio-r1", {}).get("theta_hat") != expected:
        problems.append(f"ratio-r1 estimate differs from R_1/R = {expected} of the corpus")
    return problems, 1, 0
