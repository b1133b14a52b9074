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
counted into run lengths.  A seed whose uniforms fall short tops up from its
own stream by exactly the balls still missing, so by the accepted-prefix
rule each prefix holds the balls that drawing one batch at a time gives.
``sample_trajectories`` tallies each block in one pass
(``occupancy.tally_block``) into ``occupancy.StatisticsSnapshot``s in their
array form; ``sample_trajectory`` is its one-stream case, and the urn ->
count maps of ``sample_fixed`` and ``sample_poissonized`` add the urn
indices to a one-seed block.  A poissonized sample draws a Poisson total
first.

Streams: a master seed and a range of stream indices name one Philox
counter-based generator (period 2^256) per stream, so replications can run
in parallel and still reproduce bit-for-bit, however they are cut into
blocks.  Philox is counter-based (Salmon et al., SC 2011), so a stream is
just its 128-bit key: the key numpy's ``SeedSequence(master,
spawn_key=(stream,))`` would generate, derived for the whole range in one
numpy pass of that hash (``_keys``).  ``sample_trajectories`` draws every
stream of its range from one generator, re-keyed per stream (``_Stream``);
``SeedSpec.generator`` keys the one-stream range.
"""

from __future__ import annotations

import functools
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
    """(master seed, stream index), each a non-negative integer of any size;
    distinct streams are independent."""

    master: int
    stream: int = 0

    def __post_init__(self):
        for name in ("master", "stream"):
            object.__setattr__(self, name, _seed_int(name, getattr(self, name)))

    def generator(self) -> np.random.Generator:
        return _generator(_keys(self.master, range(self.stream, self.stream + 1))[0])


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


# ----------------------------------------------------------------------
# stream keys: SeedSequence's hash (numpy/random/bit_generator.pyx), on
# 32-bit words held in Python ints or int64 arrays, whose products wrap
# without a warning; the masks keep the low 32 bits
# ----------------------------------------------------------------------

_MASK = 0xFFFFFFFF
_POOL = 4  # SeedSequence's default pool size, in words
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _words(value: int) -> list[int]:
    """The 32-bit words of a non-negative int, lowest first; 0 is one word."""
    if value <= _MASK:
        return [value]
    return [value >> shift & _MASK for shift in range(0, value.bit_length(), 32)]


def _hashmix(value, const: int, mult: int = _MULT_A):
    """``value`` hashed, and the hash constant after it."""
    after = const * mult & _MASK
    value = (value ^ const) * after & _MASK
    return value ^ value >> 16, after


def _mix(x, y):
    # each product is masked, so a Python int never meets an array above 2^32
    mixed = ((_MIX_L * x & _MASK) - (_MIX_R * y & _MASK)) & _MASK
    return mixed ^ mixed >> 16


def _absorb(pool: list, const: int, words) -> tuple[list, int]:
    """Mix each of ``words`` into every pool word."""
    for word in words:
        for dst in range(_POOL):
            value, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], value)
    return pool, const


@functools.lru_cache(maxsize=64)
def _master_pool(master: int) -> tuple[tuple[int, ...], int]:
    """The pool once the master's words are mixed in, and the hash constant
    then: the part of a key that no stream changes.  A spawn key pads the
    master with zero words to the pool size."""
    words = _words(master)
    words += [0] * (_POOL - len(words))
    pool, const = [], _INIT_A
    for word in words[:_POOL]:
        value, const = _hashmix(word, const)
        pool.append(value)
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                value, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], value)
    pool, const = _absorb(pool, const, words[_POOL:])
    return tuple(pool), const


def _philox_key(master: int, words) -> np.ndarray:
    """``SeedSequence(master, spawn_key=(stream,)).generate_state(2, np.uint64)``
    for streams given by their 32-bit ``words``, lowest first: an int64
    array with one entry per stream, then the Python ints they share; one
    key per row."""
    pool, const = _master_pool(master)
    pool, _ = _absorb(list(pool), const, words)
    state, const = [], _INIT_B
    for value in pool:
        value, const = _hashmix(value, const, _MULT_B)
        state.append(value)
    return np.ascontiguousarray(np.array(state, dtype="<u4").T).view("<u8")


def _keys(master, streams: range) -> np.ndarray:
    """The Philox key of each stream of ``streams``, a range of step 1, under
    ``master``, one row per stream.  The streams that share their words
    above the lowest share a key pass, so a range crossing a multiple of
    2^32 splits there."""
    master = _seed_int("master", master)
    if not isinstance(streams, range) or streams.start < 0 or streams.step != 1:
        raise DomainError(f"seed streams must be a range of step 1 from 0, got {streams!r}")
    keys = np.empty((len(streams), 2), dtype=np.uint64)
    first = streams.start
    while first < streams.stop:
        last = min(streams.stop, ((first >> 32) + 1) << 32)
        low, *high = _words(first)
        keys[first - streams.start:last - streams.start] = _philox_key(
            master, [np.arange(low, low + last - first, dtype=np.int64), *high])
        first = last
    return keys


def _generator(key) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=key))


_SPARES = 4  # uniforms a stream draws beyond those asked for, for its top-ups


class _Stream:
    """One stream's draws from the one generator of a ``sample_trajectories``
    call, bit for bit those of a generator of its own.  Each ``random`` draws
    ``_SPARES`` uniforms more, which the next call serves first; a top-up
    beyond them, once a later stream has been keyed, keys the generator
    again and replays the log (the binomial cache depends on (n, p) alone)."""

    def __init__(self, shared: list, key: list):
        self._shared, self._key, self._log, self._spares = shared, key, [], np.empty(0)

    def _draw(self, size: int, probs=None) -> np.ndarray:
        """``size`` uniforms, or a multinomial of ``size`` balls over ``probs``."""
        rng, keyed, state = self._shared
        if keyed is not self._key:
            state["state"]["key"] = self._key
            rng.bit_generator.state = state
            self._shared[1], log, self._log = self._key, self._log, []
            for draw in log:  # none at a stream's first draw
                self._draw(*draw)
        self._log.append((size, probs))
        return rng.random(size) if probs is None else rng.multinomial(size, probs)

    multinomial = _draw

    def random(self, size: int) -> np.ndarray:
        if size > self._spares.size:
            drawn = self._draw(size - self._spares.size + _SPARES)
            self._spares = np.concatenate([self._spares, drawn]) if self._spares.size else drawn
        out, self._spares = self._spares[:size], self._spares[size:]
        return out


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


def check_grid(grid) -> list[float]:
    """``grid`` as floats, if it is a non-empty, strictly increasing list of
    times in (0, 1]; else a usage error."""
    grid = [float(t) for t in grid]
    if not grid:
        raise UsageError("grid must be non-empty")
    if any(not 0.0 < t <= 1.0 for t in grid) or any(b <= a for a, b in zip(grid, grid[1:])):
        raise UsageError(f"grid must be strictly increasing within (0, 1], got {grid!r}")
    return grid


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
    rng = _as_seed(seed).generator()
    total = int(rng.poisson(t * law.total_mass))
    if total:
        counts = _counts_dict(law, total, rng)
    else:
        counts = {}
    return OccupancyCounts(counts=counts, total=float(t))

