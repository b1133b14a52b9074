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
own stream by exactly the balls still missing, so by the accepted-prefix
rule each prefix holds the balls that drawing one batch at a time gives.
``sample_trajectories`` tallies each block in one pass
(``occupancy.tally_block``) into ``occupancy.StatisticsSnapshot``s in their
array form; ``sample_trajectory`` is its one-seed case, and the urn -> count
maps of ``sample_fixed`` and ``sample_poissonized`` add the urn indices to
a one-seed block.  A poissonized sample draws a Poisson total
first.

Streams: any (master seed, stream index) pair yields an independent Philox
counter-based generator (period 2^256), so replications can run in parallel
and still reproduce bit-for-bit, however they are cut into blocks.  Philox
is counter-based (Salmon et al., SC 2011), so a stream is just its 128-bit
key: the key numpy's ``SeedSequence(master, spawn_key=(stream,))`` would
generate.  ``sample_trajectories`` derives the keys of all its seeds in one
numpy pass of that hash, with the master's part taken once, and re-keys one
generator for each (``_Stream``: about 1 us, where a new one took 5); a
study chunk passes its master and range of streams, whose keys come from the
range with no ``SeedSpec`` per stream.  ``SeedSpec.generator`` is the
one-stream case.
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
        return _generator(_philox_key(self.master, _words(self.stream)))


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
    for streams given by their 32-bit ``words``, lowest first: Python ints
    for one stream (a key of shape (2,)), or for many, each word an int64
    array with one entry per stream or a Python int they share (keys of
    shape (streams, 2)); both wrap to the same low 32 bits."""
    pool, const = _master_pool(master)
    pool, _ = _absorb(list(pool), const, words)
    state, const = [], _INIT_B
    for value in pool:
        value, const = _hashmix(value, const, _MULT_B)
        state.append(value)
    return np.ascontiguousarray(np.array(state, dtype="<u4").T).view("<u8")


def _keys(seeds) -> np.ndarray:
    """The Philox key of each seed of ``seeds``, one row per seed: a list of
    seeds, or a (master, range of step 1) pair for the streams of the range
    under one master, which builds no seed per stream.  The streams of one
    master that differ only in their lowest 32-bit word share a key pass."""
    groups, size = {}, 0  # (master, stream >> 32) -> (rows, the streams' lowest words)
    if isinstance(seeds, tuple) and len(seeds) == 2 and isinstance(seeds[1], range):
        master, streams = _seed_int("master", seeds[0]), seeds[1]
        if streams.start < 0 or streams.step != 1:
            raise DomainError(f"seed streams must be a range of step 1 from 0, got {streams!r}")
        first = streams.start
        while first < streams.stop:  # a range crossing a multiple of 2^32 splits there
            last = min(streams.stop, ((first >> 32) + 1) << 32)
            low = first & _MASK
            groups[master, first >> 32] = (slice(size, size + last - first),
                                           np.arange(low, low + last - first, dtype=np.int64))
            size, first = size + last - first, last
    else:
        for size, seed in enumerate(seeds, 1):
            seed = _as_seed(seed)
            rows, low = groups.setdefault((seed.master, seed.stream >> 32), ([], []))
            rows.append(size - 1)
            low.append(seed.stream & _MASK)
    keys = np.empty((size, 2), dtype=np.uint64)
    for (master, high), (rows, low) in groups.items():
        keys[rows] = _philox_key(master, [np.asarray(low, dtype=np.int64),
                                          *(_words(high) if high else ())])
    return keys


@functools.cache
def _key_type() -> type:
    """A seed sequence type that hands Philox its key, already derived.  It
    is built on first use, so importing the package leaves ``numpy.random``
    unloaded: loaded at import, it raised a study's peak memory 0.6 MiB."""
    from numpy.random.bit_generator import ISeedSequence

    class Key(ISeedSequence):
        __slots__ = ("key",)

        def __init__(self, key):
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32):
            return self.key  # Philox asks for its key only: 2 words of uint64

    return Key


def _generator(key) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(_key_type()(key)))


_SPARES = 4  # uniforms a stream draws beyond those asked for, for its top-ups


class _Stream:
    """One seed's draws from the one generator of a ``sample_trajectories``
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
    a new Philox's state, counter 0 and a buffer of 4 words all used]."""
    shared = [_generator(keys[0]), None, {"bit_generator": "Philox", "buffer": (0,) * 4,
              "buffer_pos": 4, "has_uint32": 0, "uinteger": 0, "state": {"counter": (0,) * 4}}]
    return (_Stream(shared, key.tolist()) for key in keys)


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
                        k_max: int = DEFAULT_K_MAX) -> list[StatisticsSnapshot]:
    """The snapshots along ``grid`` of one nested sample per seed of
    ``seeds``, as one :class:`StatisticsSnapshot` per grid time in its
    array form, with one entry per seed.  ``seeds`` is a list of seeds, or
    a (master, range(lo, hi)) pair: the streams lo..hi - 1 of one master.

    The first floor(n*t) balls of one draw of n form the sample at time t,
    so earlier snapshots are prefixes of later ones by construction.  The
    seeds' Philox keys come from one key pass, one generator re-keyed per
    seed draws them (:class:`_Stream`) in blocks (``PowerLaw.draw_prefixes``),
    and each block is tallied in one pass (``occupancy.tally_block``) into
    one array allocated for all seeds.  What grows with the number of seeds:
    that array, one int64 row of k_max + 3 or k_max + 4 entries per seed and
    grid time, and the seeds' 16-byte keys (a range of streams builds no
    object per seed, and a stream lives as long as its block); tracemalloc
    read about 160 bytes per seed at theta = 0.7, n = 2e4, three grid times
    and k_max = 2.
    """
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise DomainError(f"n must be a positive integer, got {n!r}")
    grid = [float(t) for t in grid]
    if not grid:
        raise UsageError("grid must be non-empty")
    if any(not 0.0 < t <= 1.0 for t in grid) or any(b <= a for a, b in zip(grid, grid[1:])):
        raise UsageError(f"grid must be strictly increasing within (0, 1], got {grid!r}")
    sizes = [math.floor(n * t) for t in grid]
    keys = _keys(seeds)
    if not len(keys):
        raise UsageError("seeds must be non-empty")
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
    :func:`sample_trajectories`.  With the same seed, the snapshot at t = 1
    matches ``sample_fixed`` exactly."""
    return [columns.sample(0)
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

