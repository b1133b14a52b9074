"""Recorded draws: any change to the random stream, to the order of its calls
or to how a draw is summarized changes one of them.

The expected values live in ``pinned_draws.json``.  After a deliberate
change of the stream, rewrite them from the current sampler with

    PYTHONPATH=src python3 tests/test_pinned_draws.py
"""

import json
from pathlib import Path

import pytest

from zipfest.law import make_zipf_law
from zipfest.sampler import SeedSpec, sample_fixed, sample_poissonized, sample_trajectory

PINS = Path(__file__).resolve().parent / "pinned_draws.json"
THETAS = (0.3, 0.5, 0.7, 0.9)
GRIDS = {"one-point": (1.0,), "three-point": (0.25, 0.5, 1.0)}
TRAJECTORY_N = 300
COUNTS_N = 60


def _seed(theta: float) -> SeedSpec:
    return SeedSpec(2026, THETAS.index(theta))


def _trajectory(theta: float, grid: str) -> list:
    snaps = sample_trajectory(make_zipf_law(theta), TRAJECTORY_N, GRIDS[grid], _seed(theta))
    return [s.to_json_dict() for s in snaps]


def _counts(theta: float, sampler: str) -> list:
    law = make_zipf_law(theta)
    if sampler == "fixed":
        counts = sample_fixed(law, COUNTS_N, _seed(theta)).counts
    else:
        counts = sample_poissonized(law, float(COUNTS_N), _seed(theta)).counts
    return [[urn, count] for urn, count in counts.items()]


def _record() -> dict:
    return {
        "trajectory": {f"{theta}/{grid}": _trajectory(theta, grid)
                       for theta in THETAS for grid in GRIDS},
        "counts": {f"{theta}/{sampler}": _counts(theta, sampler)
                   for theta in THETAS for sampler in ("fixed", "poissonized")},
    }


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS.read_text())


@pytest.mark.parametrize("grid", GRIDS)
@pytest.mark.parametrize("theta", THETAS)
def test_trajectory_snapshots_are_pinned(pins, theta, grid):
    assert _trajectory(theta, grid) == pins["trajectory"][f"{theta}/{grid}"]


@pytest.mark.parametrize("sampler", ["fixed", "poissonized"])
@pytest.mark.parametrize("theta", THETAS)
def test_urn_counts_are_pinned(pins, theta, sampler):
    # urns in increasing order, each with its ball count
    assert _counts(theta, sampler) == pins["counts"][f"{theta}/{sampler}"]


if __name__ == "__main__":
    PINS.write_text(json.dumps(_record(), indent=1) + "\n")
