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

Counting goes word first.  ``str.split`` cuts the text into whitespace
words; a word with ``str.isalpha`` true is one token as it stands, and only
the other distinct words are matched with ``_TOKEN_RE``.  Two facts about
every code point make this exact: each alphabetic character is a token
character, so an all-letter word is a single token, and no whitespace
character is a token character, so ``split`` never cuts a token.
"""

from __future__ import annotations

import csv
import re
import warnings
from collections import Counter
from dataclasses import dataclass

from .errors import InputFormatError, InsufficientDataError
from .sampler import OccupancyCounts

__all__ = ["CorpusCounts", "tokenize_text", "tokenize_file", "load_counts",
           "to_occupancy"]

# maximal runs of Unicode letters: word characters minus digits/underscore
_TOKEN_RE = re.compile(r"[^\W\d_]+", re.UNICODE)
# any other character, where a block of text may end without cutting a token
_SEPARATOR_RE = re.compile(r"[\W\d_]", re.UNICODE)
# characters per block that ``tokenize_text`` splits at once
_BLOCK_CHARS = 1 << 16


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
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise InputFormatError(
                f"invalid UTF-8 at byte offset {exc.start}", location=exc.start)
        del data  # frees the bytes during counting when no caller keeps them
    elif isinstance(data, str):
        text = data
    else:
        raise InputFormatError(f"expected str or bytes, got {type(data).__name__}")
    # count the whitespace words of one block at a time, so the list of
    # words stays small; blocks end at a separator, so no token straddles
    # two.  An all-letter word is one token (every letter is a token
    # character); only the other distinct words go through the regex, which
    # loses nothing because no whitespace character is a token character.
    # Keys keep the order in which their first occurrence appears in the text.
    counts: dict = {}
    start = 0
    while start < len(text):
        cut = _SEPARATOR_RE.search(text, start + _BLOCK_CHARS)
        stop = cut.start() if cut else len(text)
        for word, count in Counter(text[start:stop].split()).items():
            for token in (word,) if word.isalpha() else _TOKEN_RE.findall(word):
                folded = token.casefold()
                counts[folded] = counts.get(folded, 0) + count
        start = stop
    return CorpusCounts(counts=counts, total=sum(counts.values()))


def tokenize_file(path) -> CorpusCounts:
    with open(path, "rb") as fh:
        return tokenize_text(fh.read())


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
