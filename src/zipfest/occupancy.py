"""Reduce urn count configurations to occupancy statistics.

A :class:`StatisticsSnapshot` carries, for one configuration,

    r          number of occupied urns,
    r_k[k]     urns holding exactly k balls, k = 1..k_max,
    r_star_k   urns holding at least k balls, k = 1..k_max+1,
    u          urns holding an odd number of balls.

``summarize_count_values`` builds it from the multiset of per-urn counts;
every snapshot (``OccupancyCounts.snapshot``) goes through it.  ``u`` comes
from a parity tally over all counts, so it stays exact even when some urns
hold more than ``k_max`` balls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UsageError

__all__ = ["StatisticsSnapshot", "summarize_count_values"]

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


def summarize_count_values(values: np.ndarray, total, k_max: int = DEFAULT_K_MAX) -> StatisticsSnapshot:
    """Snapshot from the multiset of per-urn counts (urn identities dropped)."""
    if k_max < 1:
        raise UsageError(f"k_max must be >= 1, got {k_max!r}")
    values = np.asarray(values)
    r = int(values.size)
    if r == 0:
        return StatisticsSnapshot(total=total, r=0, r_k=(0,) * k_max,
                                  r_star_k=(0,) * (k_max + 1), u=0)
    u = int(np.count_nonzero(values & 1))
    clipped = np.minimum(values, k_max + 2)
    hist = np.bincount(clipped, minlength=k_max + 3)
    r_k = tuple(int(hist[k]) for k in range(1, k_max + 1))
    r_star = []
    below = 0
    for k in range(1, k_max + 2):
        r_star.append(r - below)
        below += int(hist[k])
    return StatisticsSnapshot(total=total, r=r, r_k=r_k, r_star_k=tuple(r_star), u=u)
