"""Samplers for occupancy configurations: draws only.  The count table they
return is ``occupancy.OccupancyCounts``; ``ingest`` reads and writes it.

The occupancy statistics read only how many balls each urn holds, so no
sampler draws every ball.  All of them draw through the block routine
``PowerLaw.draw_prefixes``: per seed, the count vector of the W heaviest
urns as one multinomial per grid increment, W about alpha(n / B) for n balls
and B grid times (``PowerLaw.head_width``), and one uniform per ball beyond
them in one call; then, for a block of seeds at once, rejection-inversion
maps the uniforms to positions of the retained support, renormalized (the
law records the discarded mass), and each prefix's tail is sorted and
counted into run lengths.  A seed whose uniforms fall short tops up by
exactly the balls still missing, from a range of its own stream's counter
that the main draw never reaches, so by the accepted-prefix rule each
prefix holds the balls that drawing one batch at a time gives.
``sample_trajectories`` tallies each block in one pass
(``occupancy.tally_block``) into ``occupancy.StatisticsSnapshot``s in their
array form; ``sample_trajectory`` is its one-stream case, and the urn ->
count maps of ``sample_fixed`` and ``sample_poissonized`` add the urn
indices to a one-seed block.  A poissonized sample draws a Poisson total
first, from its stream's counter 0.

Streams: a master seed and a range of stream indices name one Philox
counter-based generator (period 2^256) per stream, so replications can run
in parallel and still reproduce bit-for-bit, however they are cut into
blocks.  Philox is counter-based (Salmon et al., SC 2011), so a stream is
just its 128-bit key, and numpy's ``Philox`` notes that instances using
different values of the key produce independent sequences.  Stream s's key
is the ``SeedSequence(master, spawn_key=(s >> 64,))`` key of its block of
2^64 streams with s's low 64 bits XORed into its first word, for the whole
range in one XOR (``_keys``); stream 0's key is that ``SeedSequence``'s own,
so plain numpy reproduces it.  Every sampler draws each stream of its range
from one generator, re-keyed per stream and per top-up round (``_Stream``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UsageError
from .law import PowerLaw
from .occupancy import DEFAULT_K_MAX, OccupancyCounts, StatisticsSnapshot, tally_block

__all__ = ["SeedSpec", "sample_fixed", "sample_trajectory", "sample_trajectories",
           "sample_poissonized"]


@dataclass(frozen=True)
class SeedSpec:
    """(master seed, stream index), each a non-negative integer of any size.
    A pair names one Philox key (``_keys``), and distinct keys give
    independent streams."""

    master: int
    stream: int = 0

    def __post_init__(self):
        for name in ("master", "stream"):
            object.__setattr__(self, name, _seed_int(name, getattr(self, name)))


def _seed_int(name: str, value) -> int:
    """``value`` as a Python int, if it is a non-negative integer."""
    if type(value) is not int:  # a bool is refused too
        if not isinstance(value, np.integer):
            raise DomainError(f"seed {name} must be a non-negative integer, got {value!r}")
        value = int(value)
    if value < 0:
        raise DomainError(f"seed {name} must be a non-negative integer, got {value!r}")
    return value


def _as_seed(seed) -> SeedSpec:
    if isinstance(seed, SeedSpec):
        return seed
    if isinstance(seed, (int, np.integer)):
        return SeedSpec(master=seed)
    raise UsageError(f"seed must be an int or SeedSpec, got {seed!r}")


def _keys(master, streams: range) -> np.ndarray:
    """The Philox key of each stream of ``streams``, a range of step 1, under
    ``master``, one row per stream.  Stream s's key is the base of its block
    of 2^64 streams, ``SeedSequence(master, spawn_key=(s >> 64,))
    .generate_state(2, np.uint64)``, with s's low 64 bits XORed into word 0:
    one ``SeedSequence`` per block the range meets, and one XOR.  Stream 0's
    key is the base itself.  Philox keys need no further mixing: numpy's
    ``Philox`` notes that instances using different values of the key
    produce independent sequences."""
    master = _seed_int("master", master)
    if not isinstance(streams, range) or streams.start < 0 or streams.step != 1:
        raise DomainError(f"seed streams must be a range of step 1 from 0, got {streams!r}")
    keys = np.empty((len(streams), 2), dtype=np.uint64)
    first = streams.start
    while first < streams.stop:
        block = first >> 64
        last = min(streams.stop, (block + 1) << 64)
        part = keys[first - streams.start:last - streams.start]
        part[:] = np.random.SeedSequence(master, spawn_key=(block,)).generate_state(2, np.uint64)
        part[:, 0] ^= np.arange(last - first, dtype=np.uint64) + np.uint64(first - (block << 64))
        first = last
    return keys


def _generator(key) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=key))


class _Stream:
    """One stream's draws from the one generator of a sampler call, which
    it keys with the stream's Philox key: its multinomials, a Poisson total
    and its first ``random`` call draw from counter 0, in that order and
    before the next stream's, and its r-th later ``random`` call, top-up
    round r, from counter [0, 0, 0, r], which the main draw never reaches.
    So a stream draws the same whatever shares the generator with it.  A
    counter-0 draw after another stream's or a top-up round would re-key at
    counter 0 and reuse bits, so it raises instead."""

    def __init__(self, shared: list, key: list):
        self._shared, self._key, self._round, self._drawn = shared, key, 0, False

    def _keyed(self, counter: int) -> np.random.Generator:
        """The generator, keyed at ``[0, 0, 0, counter]`` unless it goes on
        with this stream's draws from counter 0."""
        rng, keyed, state = self._shared
        if keyed is not self._key or counter:
            if self._drawn and not counter:
                raise RuntimeError("a stream's counter-0 draws must all come before another "
                                   "stream's draws and its own top-up rounds")
            state["state"]["key"], state["state"]["counter"][3] = self._key, counter
            rng.bit_generator.state = state
            self._shared[1] = None if counter else self._key
        self._drawn = True
        return rng

    def multinomial(self, size: int, probs) -> np.ndarray:
        return self._keyed(0).multinomial(size, probs)

    def poisson(self, lam: float) -> int:
        return self._keyed(0).poisson(lam)

    def random(self, size: int) -> np.ndarray:
        self._round += 1
        return self._keyed(self._round - 1).random(size)


def _streams(keys):
    """A :class:`_Stream` per Philox key of ``keys``, sharing [a generator, the
    key list it is keyed with (not the stream, which its block frees), and
    its new state, counter 0, which re-keying reads faster as lists]."""
    rng = _generator(keys[0])
    state = rng.bit_generator.state
    state["buffer"] = state["buffer"].tolist()
    state["state"]["counter"] = state["state"]["counter"].tolist()
    shared = [rng, None, state]
    return (_Stream(shared, key.tolist()) for key in keys)


def _stream(seed) -> _Stream:
    """The :class:`_Stream` of one seed."""
    seed = _as_seed(seed)
    return next(_streams(_keys(seed.master, range(seed.stream, seed.stream + 1))))


def check_grid(grid) -> list[float]:
    """``grid`` as floats, if it is a non-empty, strictly increasing list of
    times in (0, 1]; else a usage error."""
    grid = [float(t) for t in grid]
    if not grid:
        raise UsageError("grid must be non-empty")
    if any(not 0.0 < t <= 1.0 for t in grid) or any(b <= a for a, b in zip(grid, grid[1:])):
        raise UsageError(f"grid must be strictly increasing within (0, 1], got {grid!r}")
    return grid


def _counts_dict(law: PowerLaw, n: int, stream: _Stream) -> dict:
    law.head_width(n, urn_map=True)
    head, _, tail_positions, tail_counts = next(law.draw_prefixes([n], [stream]))
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
    counts = _counts_dict(law, int(n), _stream(seed))
    return OccupancyCounts(counts=counts, total=int(n))


def sample_trajectories(law: PowerLaw, n: int, grid, master, streams: range,
                        k_max: int = DEFAULT_K_MAX) -> list[StatisticsSnapshot]:
    """The snapshots along ``grid`` of one nested sample per stream of
    ``streams``, a range of step 1, under the seed ``master``, as one
    :class:`StatisticsSnapshot` per grid time in its array form, with one
    entry per stream.

    The first floor(n*t) balls of one draw of n form the sample at time t,
    so earlier snapshots are prefixes of later ones by construction.  The
    streams' Philox keys come from one key pass, one generator re-keyed per
    stream draws them (:class:`_Stream`) in blocks
    (``PowerLaw.draw_prefixes``), and each block is tallied in one pass
    (``occupancy.tally_block``) into one array allocated for all streams.
    What grows with the number of streams: that array, one int64 row of
    k_max + 3 or k_max + 4 entries per stream and grid time, and the
    streams' 16-byte keys (a stream lives as long as its block); tracemalloc
    read about 160 bytes per stream at theta = 0.7, n = 2e4, three grid
    times and k_max = 2.
    """
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise DomainError(f"n must be a positive integer, got {n!r}")
    sizes = [math.floor(n * t) for t in check_grid(grid)]
    keys = _keys(master, streams)
    if not len(keys):
        raise UsageError("streams must be non-empty")
    tally, row = None, 0
    for head, rows, positions, counts in law.draw_prefixes(sizes, _streams(keys)):
        del positions  # each array is freed as soon as it is used up
        block = tally_block(head, rows, counts, k_max=k_max).reshape(*head.shape[:2], -1)
        del head, rows, counts
        if tally is None:
            tally = np.empty((len(sizes), len(keys), block.shape[2]), dtype=block.dtype)
        tally[:, row:row + block.shape[1]] = block
        row += block.shape[1]
    return [StatisticsSnapshot.from_tally(m, part, k_max) for m, part in zip(sizes, tally)]


def sample_trajectory(law: PowerLaw, n: int, grid, seed,
                      k_max: int = DEFAULT_K_MAX) -> list[StatisticsSnapshot]:
    """Snapshots of one nested sample along ``grid``: the one-seed case of
    :func:`sample_trajectories`.  With the same seed, the snapshot of the
    grid (1.0,) matches ``sample_fixed`` exactly."""
    seed = _as_seed(seed)
    return [columns.sample(0) for columns in sample_trajectories(
        law, n, grid, seed.master, range(seed.stream, seed.stream + 1), k_max=k_max)]


def sample_poissonized(law: PowerLaw, t: float, seed) -> OccupancyCounts:
    """Independent Poisson(t * p_i) counts per urn over the retained support
    (realized by splitting a Poisson(t * retained mass) total)."""
    if not t > 0.0:
        raise DomainError(f"t must be positive, got {t!r}")
    stream = _stream(seed)
    total = int(stream.poisson(t * law.total_mass))
    if total:
        counts = _counts_dict(law, total, stream)
    else:
        counts = {}
    return OccupancyCounts(counts=counts, total=float(t))

