"""The count table of a sample and the occupancy statistics read off it.

An :class:`OccupancyCounts` is the one count table of the package: a key ->
count map, keyed by urn for a drawn sample and by token for a text, with
its total.  Only the multiset of counts reaches a statistic, so a key's
label never does.  A :class:`StatisticsSnapshot` holds, for one
configuration or, as arrays, for many configurations of one total,

    r          number of occupied urns,
    r_k[k-1]   urns holding exactly k balls, k = 1..k_max,
    u          urns holding an odd number of balls,

and derives from them ``r_star_k``, the urns holding at least k balls,
R - sum_{j<k} R_j for k = 1..k_max+1.

``tally_block`` counts the counts of a whole block of configurations, such
as the draws of one block of seeds, in one pass: each configuration is a
row of a head count matrix, in which empty urns appear as zeros, plus the
tail run lengths tagged with its row.  ``StatisticsSnapshot.from_tally``
reads the statistics of every row off the tallies, and
``OccupancyCounts.snapshot`` is the one-row case.  ``u`` comes from the
same tally: a count beyond the tracked range is tallied in one of two bins
by its parity, so ``u`` stays exact even when some urns hold more than
``k_max`` balls.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import UsageError

__all__ = ["OccupancyCounts", "StatisticsSnapshot", "tally_block"]

DEFAULT_K_MAX = 8
_NONE = np.empty(0, dtype=np.intp)


@dataclass(frozen=True)
class StatisticsSnapshot:
    """Occupancy statistics of one sample (ints, and a tuple ``r_k``), or of
    many samples of one total (arrays, ``r_k`` of shape (k_max, samples));
    ``r_k[k-1]`` is R_{n,k} in both forms (immutable, safe to share)."""

    total: float  # ball count n, or poissonized horizon t
    r: int | np.ndarray
    r_k: tuple[int, ...] | np.ndarray  # index k-1 holds R_{n,k}, k = 1..k_max
    u: int | np.ndarray

    @property
    def r_star_k(self) -> tuple:
        """Index k-1 holds R*_{n,k} = R - sum_{j<k} R_{n,j}, k = 1..k_max+1."""
        return tuple(itertools.accumulate(self.r_k, lambda at_least, r_k: at_least - r_k,
                                          initial=self.r))

    def exact_count(self, k: int):
        """R_{n,k}; k must not exceed k_max."""
        if not 1 <= k <= len(self.r_k):
            raise UsageError(f"k={k} outside tracked range 1..{len(self.r_k)}")
        return self.r_k[k - 1]

    @classmethod
    def from_tally(cls, total, tally: np.ndarray, k_max: int) -> StatisticsSnapshot:
        """The array form of the rows of a :func:`tally_block`."""
        return cls(total=total, r=tally[:, 1:].sum(axis=1), r_k=tally[:, 1:k_max + 1].T,
                   u=tally[:, 1::2].sum(axis=1))

    @classmethod
    def of(cls, snapshot: StatisticsSnapshot) -> StatisticsSnapshot:
        """The one-sample ``snapshot`` as one-entry arrays."""
        return cls(total=snapshot.total, r=np.array([snapshot.r]),
                   r_k=np.array([snapshot.r_k]).T, u=np.array([snapshot.u]))

    def sample(self, i: int) -> StatisticsSnapshot:
        """Sample ``i`` of the array form, in the one-sample form."""
        return StatisticsSnapshot(total=self.total, r=int(self.r[i]),
                                  r_k=tuple(self.r_k[:, i].tolist()), u=int(self.u[i]))

    def to_json_dict(self) -> dict:  # of the one-sample form
        total = self.total
        return {
            "n": int(total) if float(total).is_integer() else float(total),
            "r": self.r,
            "r_k": list(self.r_k),
            "r_star_k": list(self.r_star_k),
            "u": self.u,
        }


def tally_block(head, rows, counts, k_max: int = DEFAULT_K_MAX) -> np.ndarray:
    """The count-of-counts of many urn configurations in one pass, one row
    per configuration: configuration i holds the urns whose ball counts are
    row i of the integer array ``head``, whose last axis holds the urns and
    whose other axes, read in C order, the configurations (a count of 0 is
    an empty urn and counts nothing), and the ``counts`` whose ``rows``
    entry is i.

    Column c of a row counts its urns holding c balls, up to an even ``top``
    above k_max; a larger count is tallied as top or top + 1, whichever has
    its parity, so the odd columns add up to u.
    """
    if k_max < 1:
        raise UsageError(f"k_max must be >= 1, got {k_max!r}")
    top = k_max + 1 + (k_max + 1) % 2
    bins = top + 2
    size = math.prod(head.shape[:-1])
    head_rows = np.arange(size).reshape(*head.shape[:-1], 1)
    tally = 0
    for values, offset in ((head, bins * head_rows), (counts, bins * rows)):
        keys = values & 1
        keys += top
        np.minimum(values, keys, out=keys)
        keys += offset
        tally = tally + np.bincount(keys.ravel(), minlength=size * bins)
    return tally.reshape(size, bins)


@dataclass(frozen=True)
class OccupancyCounts:
    """Realized key -> ball-count map of one sample: urns of a draw, or
    tokens of a text."""

    counts: dict
    total: float            # n for fixed mode or a text, horizon t for poissonized

    def snapshot(self, k_max: int = DEFAULT_K_MAX) -> StatisticsSnapshot:
        values = np.fromiter(self.counts.values(), dtype=np.int64, count=len(self.counts))
        tally = tally_block(values[None, :], _NONE, _NONE, k_max=k_max)
        return StatisticsSnapshot.from_tally(self.total, tally, k_max).sample(0)
