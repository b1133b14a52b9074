"""Samplers for occupancy configurations.

The occupancy statistics read only how many balls each urn holds, so no
sampler draws every ball.  All three take their draw from
``PowerLaw.draw_prefixes``: the count vector of the W heaviest urns, drawn as
one multinomial, and the run lengths of the balls beyond them, drawn by
rejection-inversion, over the retained support, renormalized; the law
records the discarded mass.  A trajectory draws one multinomial per grid
increment and adds them up, and summarizes each prefix straight from its
head vector and tail run lengths; the urn -> count maps of ``sample_fixed``
and ``sample_poissonized`` add the urn indices.  A poissonized sample draws a
Poisson total first.

Streams: any (master seed, stream index) pair yields an independent Philox
counter-based generator (period 2^256), so replications can run in parallel
and still reproduce bit-for-bit.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InputFormatError, UsageError
from .law import PowerLaw
from .occupancy import DEFAULT_K_MAX, StatisticsSnapshot, summarize_counts

__all__ = ["SeedSpec", "OccupancyCounts", "sample_fixed", "sample_trajectory",
           "sample_poissonized", "write_counts_csv", "read_counts_csv"]


@dataclass(frozen=True)
class SeedSpec:
    """(master seed, stream index); distinct streams are independent."""

    master: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(entropy=self.master, spawn_key=(self.stream,))
        return np.random.Generator(np.random.Philox(seq))


def _as_seed(seed) -> SeedSpec:
    if isinstance(seed, SeedSpec):
        return seed
    if isinstance(seed, (int, np.integer)):
        return SeedSpec(master=int(seed))
    raise UsageError(f"seed must be an int or SeedSpec, got {seed!r}")


@dataclass(frozen=True)
class OccupancyCounts:
    """Realized urn -> ball-count map for one sample."""

    counts: dict
    total: float            # n for fixed mode, horizon t for poissonized

    def snapshot(self, k_max: int = DEFAULT_K_MAX) -> StatisticsSnapshot:
        values = np.fromiter(self.counts.values(), dtype=np.int64, count=len(self.counts))
        return summarize_counts((values,), self.total, k_max=k_max)


def _counts_dict(law: PowerLaw, n: int, rng: np.random.Generator) -> dict:
    (head, tail_positions, tail_counts), = law.draw_prefixes([n], rng)
    occupied = np.flatnonzero(head)
    urns = law.positions_to_urns(np.concatenate([occupied + 1.0, tail_positions]))
    return dict(zip(urns, np.concatenate([head[occupied], tail_counts]).tolist()))


# ----------------------------------------------------------------------
# public samplers
# ----------------------------------------------------------------------

def sample_fixed(law: PowerLaw, n: int, seed) -> OccupancyCounts:
    """n independent balls thrown into the urns of ``law``."""
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise DomainError(f"n must be a positive integer, got {n!r}")
    counts = _counts_dict(law, int(n), _as_seed(seed).generator())
    return OccupancyCounts(counts=counts, total=int(n))


def sample_trajectory(law: PowerLaw, n: int, grid, seed,
                      k_max: int = DEFAULT_K_MAX) -> list[StatisticsSnapshot]:
    """Snapshots of one nested sample along ``grid``.

    The first floor(n*t) balls of one draw of n form the sample at time t,
    so earlier snapshots are prefixes of later ones by construction; with
    the same seed, the snapshot at t = 1 matches ``sample_fixed`` exactly.
    """
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise DomainError(f"n must be a positive integer, got {n!r}")
    grid = [float(t) for t in grid]
    if not grid:
        raise UsageError("grid must be non-empty")
    if any(not 0.0 < t <= 1.0 for t in grid) or any(b <= a for a, b in zip(grid, grid[1:])):
        raise UsageError(f"grid must be strictly increasing within (0, 1], got {grid!r}")
    spec = _as_seed(seed)
    sizes = [math.floor(n * t) for t in grid]
    profiles = law.draw_prefixes(sizes, spec.generator())
    return [summarize_counts((head, tail_counts), m, k_max=k_max)
            for (head, _, tail_counts), m in zip(profiles, sizes)]


def sample_poissonized(law: PowerLaw, t: float, seed) -> OccupancyCounts:
    """Independent Poisson(t * p_i) counts per urn over the retained support
    (realized by splitting a Poisson(t * retained mass) total)."""
    if not t > 0.0:
        raise DomainError(f"t must be positive, got {t!r}")
    rng = _as_seed(seed).generator()
    total = int(rng.poisson(t * law.total_mass))
    if total:
        counts = _counts_dict(law, total, rng)
    else:
        counts = {}
    return OccupancyCounts(counts=counts, total=float(t))


# ----------------------------------------------------------------------
# counts serialization
# ----------------------------------------------------------------------

def write_counts_csv(counts: OccupancyCounts, path) -> None:
    """CSV (urn_index, count) sorted by index."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["urn_index", "count"])
        for urn in sorted(counts.counts):
            writer.writerow([urn, counts.counts[urn]])


def read_counts_csv(path) -> OccupancyCounts:
    """Inverse of :func:`write_counts_csv`, with total the sum of the counts."""
    counts: dict = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header[:2]] != ["urn_index", "count"]:
            raise InputFormatError("expected header 'urn_index,count'", location=1)
        for line_no, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) < 2:
                raise InputFormatError(f"malformed row {row!r}", location=line_no)
            try:
                urn = int(row[0])
                cnt = int(row[1])
            except ValueError as exc:
                raise InputFormatError(f"malformed row {row!r}: {exc}", location=line_no)
            if cnt < 1:
                raise InputFormatError(f"count must be >= 1, got {cnt}", location=line_no)
            if urn in counts:
                raise InputFormatError(f"duplicate urn index {urn}", location=line_no)
            counts[urn] = cnt
    total = sum(counts.values())
    return OccupancyCounts(counts=counts, total=total)
