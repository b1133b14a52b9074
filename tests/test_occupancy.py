import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from zipfest.errors import UsageError
from zipfest.occupancy import OccupancyCounts
from zipfest.sampler import SeedSpec, sample_fixed


def snap_of(counts_map, k_max=8):
    total = sum(counts_map.values())
    return OccupancyCounts(counts=counts_map, total=total).snapshot(
        k_max=k_max)


class TestSummarize:
    def test_worked_example(self):
        snap = snap_of({1: 3, 2: 1, 5: 1})
        assert snap.r == 3
        assert snap.exact_count(1) == 2
        assert snap.exact_count(2) == 0
        assert snap.exact_count(3) == 1
        assert snap.r_star_k[1] == 1
        assert snap.u == 3

    def test_empty(self):
        snap = OccupancyCounts(counts={}, total=0).snapshot()
        assert snap.r == snap.u == 0
        assert all(v == 0 for v in snap.r_k)
        assert all(v == 0 for v in snap.r_star_k)

    def test_all_singletons(self):
        snap = snap_of({i: 1 for i in range(1, 101)})
        assert snap.r == 100
        assert snap.exact_count(1) == 100
        assert snap.u == 100

    def test_beyond_k_max_counts(self):
        # multiplicities above k_max still feed r_star and the parity tally
        snap = snap_of({1: 50, 2: 9, 3: 2}, k_max=8)
        assert snap.r == 3
        assert snap.r_star_k[8] == 2
        assert snap.u == 1  # only the 9-ball urn is odd
        assert snap.exact_count(2) == 1

    def test_k_max_validation(self):
        with pytest.raises(UsageError):
            snap_of({1: 1}, k_max=0)
        snap = snap_of({1: 1}, k_max=3)
        with pytest.raises(UsageError):
            snap.exact_count(4)

    def test_json_export_schema(self):
        snap = snap_of({1: 2, 2: 1})
        payload = snap.to_json_dict()
        assert set(payload) == {"n", "r", "r_k", "r_star_k", "u"}
        assert payload["n"] == 3
        assert json.dumps(payload)  # serializable


class TestInvariants:
    @settings(max_examples=60, deadline=None)
    @given(counts=hst.lists(hst.integers(1, 30), min_size=0, max_size=200),
           k_max=hst.integers(1, 12))
    def test_identities_hold(self, counts, k_max):
        values = np.asarray(counts, dtype=np.int64)
        snap = OccupancyCounts(counts=dict(enumerate(counts)), total=int(values.sum())
                               ).snapshot(k_max=k_max)
        # empty urns among the counts count nothing, as in a drawn profile
        padded = {-1: 0, **dict(enumerate(counts)), len(counts): 0}
        assert OccupancyCounts(counts=padded, total=snap.total).snapshot(k_max=k_max) == snap
        # occupied urns equal the at-least-one count
        assert snap.r_star_k[0] == snap.r == values.size
        # exact counts difference the survival counts
        for k in range(1, k_max + 1):
            assert snap.exact_count(k) == snap.r_star_k[k - 1] - snap.r_star_k[k]
            assert snap.exact_count(k) == int(np.count_nonzero(values == k))
        assert snap.r_star_k == tuple(int(np.count_nonzero(values >= k))
                                      for k in range(1, k_max + 2))
        # parity tally equals the odd exact counts over the full range
        assert snap.u == int(np.count_nonzero(values % 2 == 1))
        # ball conservation
        assert int(values.sum()) == snap.total

    def test_sampled_configurations(self, law05):
        for seed in range(5):
            counts = sample_fixed(law05, 5000, SeedSpec(100, seed))
            snap = counts.snapshot()
            values = np.fromiter(counts.counts.values(), dtype=np.int64)
            total = int(sum(k * v for k, v in zip(range(1, 9), snap.r_k)))
            beyond = values[values > 8].sum()
            assert total + int(beyond) == 5000
            assert snap.u == int(np.count_nonzero(values % 2 == 1))
