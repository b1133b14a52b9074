"""Samplers for occupancy configurations.

Every sampler draws ball positions with ``PowerLaw.draw_positions`` (the
retained support, renormalized; the discarded mass is recorded in the sample
metadata) and counts them one way: for each prefix of the draw it reports,
the distinct positions among those balls and the ball count of each.

Streams: any (master seed, stream index) pair yields an independent Philox
counter-based generator (period 2^256), so replications can run in parallel
and still reproduce bit-for-bit.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InputFormatError, UsageError
from .law import PowerLaw
from .occupancy import DEFAULT_K_MAX, StatisticsSnapshot, summarize_count_values

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
    mode: str               # "fixed" | "poisson"
    meta: dict = field(default_factory=dict)

    def snapshot(self, k_max: int = DEFAULT_K_MAX) -> StatisticsSnapshot:
        values = np.fromiter(self.counts.values(), dtype=np.int64, count=len(self.counts))
        return summarize_count_values(values, self.total, k_max=k_max)


def _tally(pos: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct positions among the first m balls of a draw, and the ball
    count of each."""
    return np.unique(pos[:m], return_counts=True)


def _counts_dict(law: PowerLaw, pos: np.ndarray) -> dict:
    upos, counts = _tally(pos, pos.size)
    return dict(zip(law.positions_to_urns(upos), counts.tolist()))


# ----------------------------------------------------------------------
# public samplers
# ----------------------------------------------------------------------

def sample_fixed(law: PowerLaw, n: int, seed) -> OccupancyCounts:
    """n independent balls thrown into the urns of ``law``."""
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise DomainError(f"n must be a positive integer, got {n!r}")
    spec = _as_seed(seed)
    return OccupancyCounts(
        counts=_counts_dict(law, law.draw_positions(int(n), spec.generator())),
        total=int(n), mode="fixed",
        meta={"seed": spec.master, "stream": spec.stream,
              "discarded_mass": law.discarded_mass, **law.describe()},
    )


def sample_trajectory(law: PowerLaw, n: int, grid, seed,
                      k_max: int = DEFAULT_K_MAX) -> list[StatisticsSnapshot]:
    """Snapshots of one nested sample along ``grid``.

    The first floor(n*t) balls of the single underlying insertion stream
    form the sample at time t, so earlier snapshots are prefixes of later
    ones by construction; with the same seed, the snapshot at t = 1 matches
    ``sample_fixed`` exactly.
    """
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise DomainError(f"n must be a positive integer, got {n!r}")
    grid = [float(t) for t in grid]
    if not grid:
        raise UsageError("grid must be non-empty")
    if any(not 0.0 < t <= 1.0 for t in grid) or any(b <= a for a, b in zip(grid, grid[1:])):
        raise UsageError(f"grid must be strictly increasing within (0, 1], got {grid!r}")
    spec = _as_seed(seed)
    pos = law.draw_positions(int(n), spec.generator())
    sizes = [int(np.floor(n * t)) for t in grid]
    return [summarize_count_values(_tally(pos, m)[1], m, k_max=k_max) for m in sizes]


def sample_poissonized(law: PowerLaw, t: float, seed) -> OccupancyCounts:
    """Independent Poisson(t * p_i) counts per urn over the retained support
    (realized by splitting a Poisson(t * retained mass) total)."""
    if not t > 0.0:
        raise DomainError(f"t must be positive, got {t!r}")
    spec = _as_seed(seed)
    rng = spec.generator()
    total = int(rng.poisson(t * law.total_mass))
    if total:
        counts = _counts_dict(law, law.draw_positions(total, rng))
    else:
        counts = {}
    return OccupancyCounts(
        counts=counts, total=float(t), mode="poisson",
        meta={"seed": spec.master, "stream": spec.stream,
              "discarded_mass": law.discarded_mass, **law.describe()},
    )


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
    """Inverse of :func:`write_counts_csv` (fixed mode, total = sum)."""
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
    return OccupancyCounts(counts=counts, total=total, mode="fixed",
                           meta={"source": str(path)})
