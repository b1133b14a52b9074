"""Reduce urn count configurations to occupancy statistics.

A :class:`StatisticsSnapshot` carries, for one configuration,

    r          number of occupied urns,
    r_k[k]     urns holding exactly k balls, k = 1..k_max,
    r_star_k   urns holding at least k balls, k = 1..k_max+1,
    u          urns holding an odd number of balls.

``summarize_counts`` builds it from the multiset of per-urn counts, given
as one or more integer arrays in which empty urns may appear as zeros (a
drawn profile passes its head count vector and its tail's run lengths);
every snapshot goes through it.  ``u`` comes from a parity tally over all
counts, so it stays exact even when some urns hold more than ``k_max``
balls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UsageError

__all__ = ["StatisticsSnapshot", "SnapshotColumns", "summarize_counts"]

DEFAULT_K_MAX = 8


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
    r_k: np.ndarray  # shape (snapshots, k_max); column k-1 holds R_{n,k}
    u: np.ndarray

    @classmethod
    def stack(cls, snapshots) -> SnapshotColumns:
        """The columns of ``snapshots``, which must share their total."""
        return cls(total=snapshots[0].total,
                   r=np.array([s.r for s in snapshots]),
                   r_k=np.array([s.r_k for s in snapshots]),
                   u=np.array([s.u for s in snapshots]))

    def exact_count(self, k: int) -> np.ndarray:
        """R_{n,k} of each snapshot; k must not exceed k_max."""
        if not 1 <= k <= self.r_k.shape[1]:
            raise UsageError(f"k={k} outside tracked range 1..{self.r_k.shape[1]}")
        return self.r_k[:, k - 1]


def summarize_counts(parts, total, k_max: int = DEFAULT_K_MAX) -> StatisticsSnapshot:
    """Snapshot of the urns whose ball counts the integer arrays ``parts``
    hold between them (urn identities dropped); a count of 0 is an empty urn
    and counts nothing, so the parts need not be joined or filtered first."""
    if k_max < 1:
        raise UsageError(f"k_max must be >= 1, got {k_max!r}")
    top = k_max + 2
    hist, u = 0, 0
    for values in parts:
        hist = hist + np.bincount(np.minimum(values, top), minlength=top + 1)
        u += int(np.count_nonzero(values & 1))
    # at_least[k-1] = urns holding at least k balls, k = 1..top
    at_least = hist[:0:-1].cumsum()[::-1].tolist()
    return StatisticsSnapshot(total=total, r=at_least[0],
                              r_k=tuple(hist[1:k_max + 1].tolist()),
                              r_star_k=tuple(at_least[:k_max + 1]), u=u)
