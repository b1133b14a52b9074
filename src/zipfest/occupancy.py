"""Reduce urn count configurations to occupancy statistics.

A :class:`StatisticsSnapshot` carries, for one configuration,

    r          number of occupied urns,
    r_k[k]     urns holding exactly k balls, k = 1..k_max,
    r_star_k   urns holding at least k balls, k = 1..k_max+1,
    u          urns holding an odd number of balls.

``tally_block`` counts the counts of a whole block of configurations, such
as the draws of one block of seeds, in one pass: each configuration is a
row of a head count matrix, in which empty urns appear as zeros, plus the
tail run lengths tagged with its row.  ``SnapshotColumns.from_tally`` reads
the statistics of every row off the tallies, and ``summarize_counts``, the
snapshot of one multiset of counts, is the one-row case.  ``u`` comes from
the same tally: a count beyond the tracked range is tallied in one of two
bins by its parity, so ``u`` stays exact even when some urns hold more than
``k_max`` balls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UsageError

__all__ = ["StatisticsSnapshot", "SnapshotColumns", "summarize_counts", "tally_block"]

DEFAULT_K_MAX = 8
_NONE = np.empty(0, dtype=np.intp)


@dataclass(frozen=True)
class StatisticsSnapshot:
    """Occupancy statistics of one sample (immutable, safe to share)."""

    total: float  # ball count n, or poissonized horizon t
    r: int
    r_k: tuple[int, ...]          # index k-1 holds R_{n,k}, k = 1..k_max
    r_star_k: tuple[int, ...]     # index k-1 holds R*_{n,k}, k = 1..k_max+1
    u: int

    @property
    def k_max(self) -> int:
        return len(self.r_k)

    def exact_count(self, k: int) -> int:
        """R_{n,k}; k must not exceed k_max."""
        if not 1 <= k <= len(self.r_k):
            raise UsageError(f"k={k} outside tracked range 1..{len(self.r_k)}")
        return self.r_k[k - 1]

    def at_least(self, k: int) -> int:
        """R*_{n,k}; k must not exceed k_max + 1."""
        if not 1 <= k <= len(self.r_star_k):
            raise UsageError(f"k={k} outside tracked range 1..{len(self.r_star_k)}")
        return self.r_star_k[k - 1]

    def to_json_dict(self) -> dict:
        total = self.total
        return {
            "n": int(total) if float(total).is_integer() else float(total),
            "r": self.r,
            "r_k": list(self.r_k),
            "r_star_k": list(self.r_star_k),
            "u": self.u,
        }


@dataclass(frozen=True)
class SnapshotColumns:
    """The statistics of many snapshots of one total, one array entry per
    snapshot.  It reads like a :class:`StatisticsSnapshot` whose fields are
    arrays, so ``estimators.ESTIMATORS``' statistics apply to it unchanged."""

    total: float
    r: np.ndarray
    r_k: np.ndarray       # shape (snapshots, k_max); column k-1 holds R_{n,k}
    r_star_k: np.ndarray  # shape (snapshots, k_max + 1)
    u: np.ndarray

    def exact_count(self, k: int) -> np.ndarray:
        """R_{n,k} of each snapshot; k must not exceed k_max."""
        if not 1 <= k <= self.r_k.shape[1]:
            raise UsageError(f"k={k} outside tracked range 1..{self.r_k.shape[1]}")
        return self.r_k[:, k - 1]

    @classmethod
    def from_tally(cls, total, tally: np.ndarray, k_max: int) -> SnapshotColumns:
        """The columns of the rows of a :func:`tally_block`."""
        # at_least[:, k-1] = urns holding at least k balls
        at_least = tally[:, :0:-1].cumsum(axis=1)[:, ::-1]
        return cls(total=total, r=at_least[:, 0], r_k=tally[:, 1:k_max + 1],
                   r_star_k=at_least[:, :k_max + 1], u=tally[:, 1::2].sum(axis=1))

    def snapshot(self, i: int) -> StatisticsSnapshot:
        """Snapshot ``i``."""
        return StatisticsSnapshot(total=self.total, r=int(self.r[i]),
                                  r_k=tuple(self.r_k[i].tolist()),
                                  r_star_k=tuple(self.r_star_k[i].tolist()), u=int(self.u[i]))


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


def summarize_counts(parts, total, k_max: int = DEFAULT_K_MAX) -> StatisticsSnapshot:
    """Snapshot of the urns whose ball counts the integer arrays ``parts``
    hold between them (urn identities dropped); a count of 0 is an empty urn
    and counts nothing, so the parts need not be joined or filtered first."""
    tally = tally_block(np.concatenate(parts)[None, :], _NONE, _NONE, k_max=k_max)
    return SnapshotColumns.from_tally(total, tally, k_max).snapshot(0)
