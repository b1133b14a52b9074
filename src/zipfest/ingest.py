"""Turn raw text or token-count tables into occupancy configurations.

Two inputs: UTF-8 text (``tokenize_text``, ``tokenize_file``) and a
``token,count`` CSV (``load_counts``).  The module reads and writes no other
format.  Tokens play the role of urns: the estimators only consume the
count-of-count profile, so `to_occupancy` drops token identities and keeps
the multiset of counts.

Tokenization is deliberately minimal: tokens are maximal runs of token
characters, case-folded, where a token character is a regex word character
other than a decimal digit or the underscore (``_TOKEN_RE``): the Unicode
letters plus a few non-decimal numerals such as ``²`` and ``½``.  Decimal
digits, punctuation and whitespace separate.  No stemming or stop-word
handling, since none of it changes the count-of-count profile in a way the
estimators could use.

Counting streams the text in chunks of ``_CHUNK_SIZE`` bytes (characters,
for a str), so memory holds one chunk and the distinct words, not the text.
A strict incremental UTF-8 decoder holds back the bytes of a character cut
by a chunk edge until the next chunk completes it.  ``str.split`` cuts each
decoded piece into whitespace words; where a piece ends inside a word, that
part is carried over and joined to the start of the next piece, up to its
first whitespace, so a chunk edge never cuts a word.  One ``Counter``
counts the whole words of all chunks; then a distinct word with
``str.isalpha`` true is one token as it stands, and only the other distinct
words are matched with ``_TOKEN_RE``.  Two facts about every code point
make this exact: each alphabetic character is a token character, so an
all-letter word is a single token, and no whitespace character is a token
character, so cutting at whitespace alone never cuts a token.
"""

from __future__ import annotations

import codecs
import csv
import re
import warnings
from collections import Counter
from dataclasses import dataclass
from functools import partial

from .errors import InputFormatError, InsufficientDataError
from .sampler import OccupancyCounts

__all__ = ["CorpusCounts", "tokenize_text", "tokenize_file", "load_counts",
           "to_occupancy"]

# maximal runs of Unicode letters: word characters minus digits/underscore
_TOKEN_RE = re.compile(r"[^\W\d_]+", re.UNICODE)
# bytes (characters, for str input) per chunk of text counted at once
_CHUNK_SIZE = 1 << 16


@dataclass(frozen=True)
class CorpusCounts:
    """Token frequency table."""

    counts: dict
    total: int


def tokenize_text(data) -> CorpusCounts:
    """Count tokens in UTF-8 text (str, or bytes that must decode cleanly).

    Invalid UTF-8 raises InputFormatError carrying the byte offset.
    """
    if isinstance(data, bytes):
        view = memoryview(data)
        return _count(_decoded(view[i:i + _CHUNK_SIZE]
                               for i in range(0, len(view), _CHUNK_SIZE)))
    if isinstance(data, str):
        return _count(data[i:i + _CHUNK_SIZE] for i in range(0, len(data), _CHUNK_SIZE))
    raise InputFormatError(f"expected str or bytes, got {type(data).__name__}")


def tokenize_file(path) -> CorpusCounts:
    """Count tokens in a UTF-8 text file, as ``tokenize_text`` does its bytes.

    The file is read one chunk at a time, so memory holds one chunk and the
    distinct words, not the file.
    """
    with open(path, "rb") as fh:
        return _count(_decoded(iter(partial(fh.read, _CHUNK_SIZE), b"")))


def _decoded(chunks):
    """The text of UTF-8 byte chunks, one decoded piece per chunk.

    Invalid UTF-8, or a character cut short by the end of the input, raises
    InputFormatError carrying its byte offset in the whole input.
    """
    decoder = codecs.getincrementaldecoder("utf-8")()
    consumed = 0  # bytes fed to the decoder before this chunk
    for chunk in chunks:
        yield _decode(decoder, chunk, consumed)
        consumed += len(chunk)
    yield _decode(decoder, b"", consumed, final=True)


def _decode(decoder, chunk, consumed: int, final: bool = False) -> str:
    pending = len(decoder.getstate()[0])  # bytes of a character cut by the last edge
    try:
        return decoder.decode(chunk, final)
    except UnicodeDecodeError as exc:
        offset = consumed - pending + exc.start
        raise InputFormatError(f"invalid UTF-8 at byte offset {offset}", location=offset)


def _count(pieces) -> CorpusCounts:
    """Count the tokens of text given as consecutive pieces.

    Keys keep the order in which their first occurrence appears in the text.
    """
    words = Counter()
    carry = []  # the parts of a word that the pieces so far end inside
    for piece in pieces:
        if not piece:
            continue
        parts = piece.split()
        if carry:
            if piece[0].isspace():
                words["".join(carry)] += 1
            else:
                carry.append(parts[0])
                if len(parts) == 1 and not piece[-1].isspace():
                    continue  # the whole piece lies inside the carried word
                parts[0] = "".join(carry)
            carry = []
        if not piece[-1].isspace():
            carry.append(parts.pop())
        words.update(parts)
    if carry:
        words["".join(carry)] += 1
    # an all-letter word is one token (every letter is a token character);
    # only the other distinct words go through the regex
    counts: dict = {}
    for word, count in words.items():
        for token in (word,) if word.isalpha() else _TOKEN_RE.findall(word):
            folded = token.casefold()
            counts[folded] = counts.get(folded, 0) + count
    return CorpusCounts(counts=counts, total=sum(counts.values()))


def load_counts(path) -> CorpusCounts:
    """Read a token count CSV with header ``token,count``.

    Duplicate tokens are summed with a warning; non-positive or non-integer
    counts are rejected with their line number.
    """
    counts: dict = {}
    total = 0
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header[:2]] != ["token", "count"]:
            raise InputFormatError("expected header 'token,count'", location=1)
        for line_no, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) < 2:
                raise InputFormatError(f"malformed row {row!r}", location=line_no)
            token = row[0]
            try:
                cnt = int(row[1])
            except ValueError as exc:
                raise InputFormatError(f"malformed count {row[1]!r}: {exc}",
                                       location=line_no)
            if cnt < 1:
                raise InputFormatError(f"count must be >= 1, got {cnt}", location=line_no)
            if token in counts:
                warnings.warn(f"duplicate token {token!r} at line {line_no}; counts summed")
            counts[token] = counts.get(token, 0) + cnt
            total += cnt
    return CorpusCounts(counts=counts, total=total)


def to_occupancy(corpus: CorpusCounts) -> OccupancyCounts:
    """Drop token identities, keep counts: tokens become urns 1..V ranked by
    descending count, preserving the count-of-count profile exactly.

    Ties need no tie-break: tied tokens carry equal counts, so any order
    among them gives the same rank -> count map.
    """
    if corpus.total < 1:
        raise InsufficientDataError("empty corpus")
    counts = dict(enumerate(sorted(corpus.counts.values(), reverse=True), start=1))
    return OccupancyCounts(counts=counts, total=corpus.total)
