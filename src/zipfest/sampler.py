"""Samplers for occupancy configurations: draws only.  The count table they
return is ``occupancy.OccupancyCounts``; ``ingest`` reads and writes it.

The occupancy statistics read only how many balls each urn holds, so no
sampler draws every ball.  All of them draw through the block routine
``PowerLaw.draw_prefixes``: per seed, the count vector of the W heaviest
urns as one multinomial per grid increment, and one uniform per ball beyond
them in one call; then, for a block of seeds at once, rejection-inversion
maps the uniforms to positions of the retained support, renormalized (the
law records the discarded mass), and each prefix's tail is sorted and
counted into run lengths.  A seed whose uniforms fall short tops up from its
own generator by exactly the balls still missing, so by the accepted-prefix
rule each prefix holds the balls that drawing one batch at a time gives.
``sample_trajectories`` tallies each block in one pass
(``occupancy.tally_block``); ``sample_trajectory`` is its one-seed case, and
the urn -> count maps of ``sample_fixed`` and ``sample_poissonized`` add the
urn indices to a one-seed block.  A poissonized sample draws a Poisson total
first.

Streams: any (master seed, stream index) pair yields an independent Philox
counter-based generator (period 2^256), so replications can run in parallel
and still reproduce bit-for-bit, however they are cut into blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UsageError
from .law import PowerLaw
from .occupancy import (DEFAULT_K_MAX, OccupancyCounts, SnapshotColumns,
                        StatisticsSnapshot, tally_block)

__all__ = ["SeedSpec", "sample_fixed", "sample_trajectory", "sample_trajectories",
           "sample_poissonized"]


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


def _counts_dict(law: PowerLaw, n: int, rng: np.random.Generator) -> dict:
    head, _, tail_positions, tail_counts = next(law.draw_prefixes([n], [rng]))
    head = head[0, 0]
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


def sample_trajectories(law: PowerLaw, n: int, grid, seeds,
                        k_max: int = DEFAULT_K_MAX) -> list[SnapshotColumns]:
    """The snapshots along ``grid`` of one nested sample per seed of
    ``seeds``, as one :class:`SnapshotColumns` per grid time with one row
    per seed.

    The first floor(n*t) balls of one draw of n form the sample at time t,
    so earlier snapshots are prefixes of later ones by construction.  The
    seeds are drawn in blocks (``PowerLaw.draw_prefixes``), and each block
    is tallied in one pass (``occupancy.tally_block``).
    """
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise DomainError(f"n must be a positive integer, got {n!r}")
    grid = [float(t) for t in grid]
    if not grid:
        raise UsageError("grid must be non-empty")
    if any(not 0.0 < t <= 1.0 for t in grid) or any(b <= a for a, b in zip(grid, grid[1:])):
        raise UsageError(f"grid must be strictly increasing within (0, 1], got {grid!r}")
    sizes = [math.floor(n * t) for t in grid]
    tallies = []
    for head, rows, positions, counts in law.draw_prefixes(
            sizes, (_as_seed(s).generator() for s in seeds)):
        del positions  # each array is freed as soon as it is used up
        tallies.append(tally_block(head, rows, counts, k_max=k_max).reshape(*head.shape[:2], -1))
        del head, rows, counts
    if not tallies:
        raise UsageError("seeds must be non-empty")
    tally = np.concatenate(tallies, axis=1)
    return [SnapshotColumns.from_tally(m, part, k_max) for m, part in zip(sizes, tally)]


def sample_trajectory(law: PowerLaw, n: int, grid, seed,
                      k_max: int = DEFAULT_K_MAX) -> list[StatisticsSnapshot]:
    """Snapshots of one nested sample along ``grid``: the one-seed case of
    :func:`sample_trajectories`.  With the same seed, the snapshot at t = 1
    matches ``sample_fixed`` exactly."""
    return [columns.snapshot(0)
            for columns in sample_trajectories(law, n, grid, [seed], k_max=k_max)]


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

