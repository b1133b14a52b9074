"""Every file format of the package, read into or written from the one
count table, ``occupancy.OccupancyCounts``.

Three inputs: UTF-8 text (``tokenize_text``, ``tokenize_file``), keyed by
token; a ``token,count`` CSV (``load_counts``); and a ``urn_index,count``
CSV (``read_counts_csv``), keyed by urn, whose text ``counts_csv`` makes.
Both CSV formats go through one reader and differ only in how a key is
parsed and in what a repeated key means.  The estimators read only the
count-of-count profile, so a key's spelling or label never reaches them;
``to_occupancy`` checks that a table holds a ball and returns it as it is.

Tokenization is deliberately minimal: tokens are maximal runs of token
characters, case-folded, where a token character is a regex word character
other than a decimal digit or the underscore (``_TOKEN_RE``): the Unicode
letters plus a few non-decimal numerals such as ``²`` and ``½``.  Decimal
digits, punctuation and whitespace separate.  No stemming or stop-word
handling, since none of it changes the count-of-count profile in a way the
estimators could use.

Counting works on the UTF-8 bytes, in chunks of ``_CHUNK_SIZE`` bytes (a str
is encoded piece by piece, ``_CHUNK_SIZE`` characters at a time), so memory
holds one chunk's arrays and the distinct words, not the text.  Each chunk
is cut into byte words at the ten ASCII bytes that ``str.split`` splits on
(``_SEPARATORS``; ``bytes.split`` misses four of them); the word that a
chunk ends inside is carried over and joined to the start of the next
chunk, so a chunk edge never cuts a word.  numpy counts the byte words of
a chunk with no Python work per word (``_Words``): a word of at most 7
bytes is its own 64-bit key, a longer one is keyed by a 64-bit hash and
checked byte for byte against the word first stored under that hash.  Only
the distinct words are decoded and tokenized, at the end: a word with
``str.isalpha`` true is one token as it stands, and only the other words
are matched with ``_TOKEN_RE``.

This gives exactly the tokens of ``_TOKEN_RE`` over the whole text:
- no byte of a multi-byte UTF-8 sequence is ASCII, so a cut at an ASCII
  byte never falls inside a character, and each byte word decodes alone;
- no whitespace character is a token character, so cutting at whitespace
  never cuts a token, and the non-ASCII whitespace left inside a byte word
  (U+0085, U+00A0, U+3000, ...) separates tokens in its regex match;
- every alphabetic character is a token character and no whitespace is
  alphabetic, so a word with ``str.isalpha`` true is a single token.
The distinct words are decoded in order of their first occurrence, so the
table's keys keep the order of their first occurrence in the text.  The
same decoding checks the UTF-8: for the first fact above, the text is
valid exactly when each of its words is, and the first distinct word that
fails holds, at its first occurrence, the text's first invalid byte, whose
offset the error reports.
"""

from __future__ import annotations

import csv
import re
import warnings
from functools import partial

import numpy as np

from .errors import InputFormatError, InsufficientDataError
from .occupancy import OccupancyCounts

__all__ = ["tokenize_text", "tokenize_file", "load_counts", "read_counts_csv",
           "counts_csv", "to_occupancy"]

# maximal runs of Unicode letters: word characters minus digits/underscore
_TOKEN_RE = re.compile(r"[^\W\d_]+", re.UNICODE)
# bytes (characters, for str) per chunk of text counted at once
_CHUNK_SIZE = 1 << 16
# the ASCII bytes that str.split splits on; bytes.split knows only the first six
_SEPARATORS = b"\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f "
# the bytes of a word's last 8-byte limb, by its length mod 8, as a uint64 mask
_MASK = np.array([(1 << 8 * (i or 8)) - 1 for i in range(8)], dtype=np.uint64)
# zero bytes after a chunk, so that 8 bytes can be read from any offset in it
_PAD = bytes(8)
# Keys of byte words.  A word of at most 7 bytes is its bytes, little-endian,
# with its length in the top byte: below _ALIAS.  A longer word is a 64-bit
# hash with the top bit set: at least _HASHED.  A longer word whose hash
# another word holds gets a serial number from _ALIAS up.
_ALIAS = 8 << 56
_HASHED = np.uint64(1 << 63)
# odd multipliers that spread a limb's bits (those of MurmurHash3's finalizer)
_MIX = (np.uint64(0xFF51AFD7ED558CCD), np.uint64(0xC4CEB9FE1A85EC53))


def tokenize_text(data) -> OccupancyCounts:
    """Count tokens in UTF-8 text (str, or bytes that must decode cleanly).

    Invalid UTF-8 raises InputFormatError carrying the byte offset.
    """
    if isinstance(data, bytes):
        view = memoryview(data)
        return _count(view[i:i + _CHUNK_SIZE] for i in range(0, len(view), _CHUNK_SIZE))
    if isinstance(data, str):
        # a lone surrogate is kept as its 3 bytes; it is no token character
        return _count((data[i:i + _CHUNK_SIZE].encode("utf-8", "surrogatepass")
                       for i in range(0, len(data), _CHUNK_SIZE)), errors="surrogatepass")
    raise InputFormatError(f"expected str or bytes, got {type(data).__name__}")


def tokenize_file(path) -> OccupancyCounts:
    """Count tokens in a UTF-8 text file, as ``tokenize_text`` does its bytes.

    The file is read one chunk at a time, so memory holds one chunk and the
    distinct words, not the file.
    """
    with open(path, "rb") as fh:
        return _count(iter(partial(fh.read, _CHUNK_SIZE), b""))


def _count(chunks, errors: str = "strict") -> OccupancyCounts:
    """Count the tokens of UTF-8 text given as consecutive byte chunks.

    Keys keep the order in which their first occurrence appears in the text.
    With ``errors="strict"``, invalid UTF-8, or a character cut short by the
    end of the text, raises InputFormatError carrying the byte offset of the
    first invalid byte.
    """
    words = _Words()
    carry = []  # the chunks, or chunk ends, that the word being read spans
    read = 0  # bytes of the text read so far
    for chunk in chunks:
        if not chunk:
            continue
        # flags[i + 2]: whether byte i of the chunk is a word byte, between
        # two flags that make a word start at -1 if one is carried, and one
        # end at the chunk's end
        flags = np.empty(len(chunk) + 3, dtype=bool)
        flags[0], flags[1], flags[-1] = False, bool(carry), False
        _in_word(chunk, out=flags[2:-1])
        held = sum(map(len, carry))
        base = read - held  # the offset in the text of carry + chunk
        read += len(chunk)
        if flags[2:-1].all():  # the whole chunk lies inside one word
            carry.append(chunk)
            continue
        bounds = np.flatnonzero(flags[1:] != flags[:-1])  # word starts and ends
        bounds += held - 1  # as offsets in carry + chunk
        if carry:
            bounds[0] = 0
        data = b"".join([*carry, chunk, _PAD])
        carry = []
        if flags[-2]:  # the last word goes on into the next chunk
            carry.append(data[bounds[-2]:-len(_PAD)])
            bounds = bounds[:-2]
        words.add(data, bounds[0::2], bounds[1::2], base)
    if carry:
        held = sum(map(len, carry))
        words.add(b"".join([*carry, _PAD]), np.array([0]), np.array([held]), read - held)
    # the first distinct word that is no UTF-8 holds the text's first invalid
    # byte (see above); an all-letter word is one token (every letter is a
    # token character), and only the other distinct words go through the regex
    counts: dict = {}
    for word, count, place in words.items():
        try:
            word = word.decode("utf-8", errors)
        except UnicodeDecodeError as exc:
            offset = place + exc.start
            raise InputFormatError(f"invalid UTF-8 at byte offset {offset}", location=offset)
        for token in (word,) if word.isalpha() else _TOKEN_RE.findall(word):
            folded = token.casefold()
            counts[folded] = counts.get(folded, 0) + count
    return OccupancyCounts(counts=counts, total=sum(counts.values()))


def _in_word(chunk, out):
    """Write to ``out``, per byte of ``chunk``, whether it is no separator
    (``_SEPARATORS``): 9-13 and 28-32 are the two runs of five separators."""
    octets = np.frombuffer(chunk, dtype=np.uint8)
    np.greater(octets - 9, 4, out=out)  # uint8 wraps below 9 and 28
    out &= (octets - 28) > 4


class _Words:
    """The distinct byte words of a text and their counts, added one chunk of
    words at a time.

    Each distinct word has an id, given in order of its first occurrence, and
    its bytes are kept as 8-byte limbs in ``limbs``.  ``keys`` is sorted, and
    ``ids`` holds the id of each key.
    """

    def __init__(self):
        self.keys = np.empty(0, dtype=np.uint64)
        self.ids = np.empty(0, dtype=np.intp)
        # per id: its count, the index of its first limb, its length in bytes
        # and the byte offset of its first occurrence in the text
        self.counts = np.zeros(0, dtype=np.int64)
        self.offset = np.zeros(0, dtype=np.intp)
        self.length = np.zeros(0, dtype=np.intp)
        self.place = np.zeros(0, dtype=np.int64)
        self.limbs = np.zeros(0, dtype=np.uint64)
        self.used = 0  # limbs in use
        self.aliases: dict = {}  # bytes -> key, for words whose hash another word holds

    def add(self, data: bytes, starts, ends, base: int) -> None:
        """Count the words ``data[starts[i]:ends[i]]``, where ``data`` ends in
        ``_PAD`` and starts at byte ``base`` of the text."""
        if not len(starts):
            return
        octets = np.ndarray((len(data) - 7,), dtype="<u8", buffer=data, strides=(1,))
        lengths = ends - starts
        keys = octets[starts]  # 8 bytes from each word's start
        keys &= _MASK.take(lengths & 7)
        keys |= (lengths << 56).view(np.uint64)
        long = np.flatnonzero(lengths > 7)
        if len(long):
            long_lengths = lengths[long]
            limbs, index, first_limb = _limbs(octets, starts[long], long_lengths)
            keys[long] = _hash(limbs, index, first_limb, long_lengths)
        # Group the keys, look each up in the table and store the new ones
        # after it; then check each long word byte for byte against the word
        # stored under its id.  Words that fail take alias keys, which makes
        # every check pass on the second round.
        while True:
            order = keys.argsort()
            ordered = keys.take(order)
            runs = np.concatenate(([0], np.flatnonzero(ordered[1:] != ordered[:-1]) + 1,
                                   [len(keys)]))
            counts = runs[1:] - runs[:-1]
            runs = runs[:-1]
            group_keys = ordered.take(runs)
            at = self.keys.searchsorted(group_keys)
            if len(self.keys):
                ids = self.ids.take(at, mode="clip")
                new = np.flatnonzero(self.keys.take(at, mode="clip") != group_keys)
            else:
                ids, new = np.empty(len(runs), dtype=np.intp), np.arange(len(runs))
            if len(new):  # new ids, in order of each key's first word
                first = np.minimum.reduceat(order, runs).take(new)  # first words
                by_first = first.argsort()
                ids[new.take(by_first)] = np.arange(len(self.keys), len(self.keys) + len(new))
                used = self._store(octets, starts.take(first.take(by_first)),
                                   lengths.take(first.take(by_first)), base)
            if not len(long):
                break
            word_ids = np.empty(len(keys), dtype=np.intp)
            word_ids[order] = ids.repeat(counts)
            clash = self._differs(word_ids.take(long), limbs, index, first_limb, long_lengths)
            if not clash.any():
                break
            # a hash that another word holds: the word's own serial key
            for i in long[clash].tolist():
                word = data[starts[i]:ends[i]]
                keys[i] = self.aliases.setdefault(word, _ALIAS + len(self.aliases))
        if len(new):
            self.keys = np.insert(self.keys, at.take(new), group_keys.take(new))
            self.ids = np.insert(self.ids, at.take(new), ids.take(new))
            self.used = used
        self.counts[ids] += counts

    def _store(self, octets, starts, lengths, base: int) -> int:
        """Write the new words ``starts``/``lengths`` under the next ids, their
        limbs after the ones in use, and return the limbs then in use."""
        n, count = len(self.keys), len(starts)
        if len(self.counts) < n + count:
            size = max(n + count, 2 * len(self.counts))
            self.counts = _grown(self.counts, size)
            self.offset = _grown(self.offset, size)
            self.length = _grown(self.length, size)
            self.place = _grown(self.place, size)
        limbs, _, first_limb = _limbs(octets, starts, lengths)
        end = self.used + len(limbs)
        if len(self.limbs) < end:
            self.limbs = _grown(self.limbs, max(end, 2 * len(self.limbs)))
        self.limbs[self.used:end] = limbs
        self.offset[n:n + count] = first_limb + self.used
        self.length[n:n + count] = lengths
        self.place[n:n + count] = starts + base
        return end

    def _differs(self, ids, limbs, index, first_limb, lengths):
        """Per word, given as :func:`_limbs` gives it, whether its bytes
        differ from those stored under its id in ``ids``."""
        differs = self.length.take(ids) != lengths
        stored = self.offset.take(ids).repeat((lengths + 7) >> 3)
        stored += index
        unequal = np.flatnonzero(self.limbs.take(stored, mode="clip") != limbs)
        differs[first_limb.searchsorted(unequal, side="right") - 1] = True
        return differs

    def items(self):
        """Each distinct word's bytes, count and first byte offset, in order
        of first occurrence."""
        data = self.limbs[:self.used].tobytes()
        n = len(self.keys)
        for offset, length, count, place in zip(
                self.offset[:n].tolist(), self.length[:n].tolist(), self.counts[:n].tolist(),
                self.place[:n].tolist()):
            yield data[8 * offset:8 * offset + length], count, place


def _limbs(octets, starts, lengths):
    """The bytes of the words ``starts``/``lengths`` as 8-byte limbs, the
    last limb of a word padded with zero bytes; the index of each limb in
    its word; and the first limb of each word."""
    nlimbs = (lengths + 7) >> 3
    first_limb = nlimbs.cumsum()
    first_limb -= nlimbs
    index = np.arange(first_limb[-1] + nlimbs[-1])
    index -= first_limb.repeat(nlimbs)
    at = starts.repeat(nlimbs)
    at += index << 3
    limbs = octets[at]
    last = first_limb + nlimbs - 1
    limbs[last] &= _MASK.take(lengths & 7)
    return limbs, index, first_limb


def _hash(limbs, index, first_limb, lengths):
    """A 64-bit hash, top bit set, of each word given as :func:`_limbs`
    gives it: the sum of its limbs, each mixed with its index, and its
    length."""
    mixed = index.view(np.uint64) * _MIX[0]
    mixed ^= limbs
    mixed ^= mixed >> np.uint64(32)
    mixed *= _MIX[1]
    mixed ^= mixed >> np.uint64(29)
    hashes = np.add.reduceat(mixed, first_limb)
    hashes ^= lengths.view(np.uint64)
    hashes |= _HASHED
    return hashes


def _grown(array, size: int):
    """``array`` extended with zeros to ``size`` entries."""
    out = np.zeros(size, dtype=array.dtype)
    out[:len(array)] = array
    return out


def load_counts(path) -> OccupancyCounts:
    """Read a token count CSV with header ``token,count``; a repeated token
    is summed with a warning."""
    return _read_table(path, "token", str, sum_duplicates=True)


def read_counts_csv(path) -> OccupancyCounts:
    """Read the urn count CSV of :func:`counts_csv`, with total the sum
    of the counts; a repeated urn index is an error."""
    return _read_table(path, "urn_index", int, sum_duplicates=False)


def counts_csv(counts: OccupancyCounts) -> str:
    """The CSV text (urn_index, count) of ``counts``, sorted by index."""
    return "urn_index,count\n" + "".join(f"{urn},{counts.counts[urn]}\n"
                                          for urn in sorted(counts.counts))


def _read_table(path, column: str, key, sum_duplicates: bool) -> OccupancyCounts:
    """The UTF-8 CSV with header ``column,count`` at ``path``, after a byte
    order mark if the file starts with one: one key, parsed by ``key``, and a
    positive integer count per row; blank rows are skipped, and an empty
    file is an empty table.  A repeated key is summed
    with a warning if ``sum_duplicates``, else an error.  Every other fault
    raises InputFormatError carrying its line number or, for invalid UTF-8,
    its byte offset in the file.
    """
    counts: dict = {}
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is not None and [h.strip().lower() for h in header[:2]] != [column, "count"]:
                raise InputFormatError(f"expected header '{column},count'", location=1)
            for row in reader:
                line = reader.line_num
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if len(row) < 2:
                    raise InputFormatError(f"malformed row {row!r:.80} at line {line}",
                                           location=line)
                try:
                    name, count = key(row[0]), int(row[1])
                except ValueError as exc:
                    raise InputFormatError(
                        f"malformed row {row!r:.80} at line {line}: {exc!s:.160}", location=line)
                if count < 1:
                    raise InputFormatError(f"count must be >= 1, got {count} at line {line}",
                                           location=line)
                if name in counts:
                    message = f"duplicate {column} {name!r:.80} at line {line}"
                    if not sum_duplicates:
                        raise InputFormatError(message, location=line)
                    warnings.warn(message + "; counts summed")
                counts[name] = counts.get(name, 0) + count
    except csv.Error as exc:  # e.g. a field over the csv module's size limit
        raise InputFormatError(f"{exc} at line {reader.line_num}", location=reader.line_num)
    except UnicodeDecodeError:
        tokenize_file(path)  # raises with the offset in the whole file
        raise
    return OccupancyCounts(counts=counts, total=sum(counts.values()))


def to_occupancy(counts: OccupancyCounts) -> OccupancyCounts:
    """``counts`` itself, once it is known to hold a ball.  Keys stay as they
    are: no estimator reads them."""
    if not counts.counts:
        raise InsufficientDataError("empty corpus")
    return counts
