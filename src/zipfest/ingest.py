"""Turn raw text or token-count tables into occupancy configurations.

Two inputs: UTF-8 text (``tokenize_text``, ``tokenize_file``) and a
``token,count`` CSV (``load_counts``).  The module reads and writes no other
format.  Tokens play the role of urns: the estimators only consume the
count-of-count profile, so `to_occupancy` drops token identities and keeps
the multiset of counts.

Tokenization is deliberately minimal and versioned: tokens are maximal runs
of Unicode letters, case-folded; digits, punctuation and whitespace
separate.  No stemming or stop-word handling, since none of it changes the
count-of-count profile in a way the estimators could use.
"""

from __future__ import annotations

import csv
import re
import warnings
from collections import Counter
from dataclasses import dataclass, field

from .errors import InputFormatError, InsufficientDataError
from .sampler import OccupancyCounts

__all__ = ["CorpusCounts", "tokenize_text", "tokenize_file", "load_counts",
           "to_occupancy", "TOKENIZER_VERSION"]

TOKENIZER_VERSION = "letters-casefold-1"

# maximal runs of Unicode letters: word characters minus digits/underscore
_TOKEN_RE = re.compile(r"[^\W\d_]+", re.UNICODE)
# any other character, where a block of text may end without cutting a token
_SEPARATOR_RE = re.compile(r"[\W\d_]", re.UNICODE)
# characters per block that ``tokenize_text`` matches at once
_BLOCK_CHARS = 1 << 13


@dataclass(frozen=True)
class CorpusCounts:
    """Token frequency table with provenance."""

    counts: dict
    total: int
    meta: dict = field(default_factory=dict)

    @property
    def vocabulary_size(self) -> int:
        return len(self.counts)


def tokenize_text(data, source: str = "<memory>") -> CorpusCounts:
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
    # count the raw tokens of one block at a time, so the list of matches
    # stays small, and case-fold each distinct one once per block; keys keep
    # the order in which their first occurrence appears in the text
    counts: dict = {}
    start = 0
    while start < len(text):
        cut = _SEPARATOR_RE.search(text, start + _BLOCK_CHARS)
        stop = cut.start() if cut else len(text)
        for token, count in Counter(_TOKEN_RE.findall(text, start, stop)).items():
            folded = token.casefold()
            counts[folded] = counts.get(folded, 0) + count
        start = stop
    return CorpusCounts(counts=counts, total=sum(counts.values()),
                        meta={"source": source, "tokenizer": TOKENIZER_VERSION})


def tokenize_file(path) -> CorpusCounts:
    with open(path, "rb") as fh:
        return tokenize_text(fh.read(), source=str(path))


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
    return CorpusCounts(counts=counts, total=total, meta={"source": str(path)})


def to_occupancy(corpus: CorpusCounts) -> OccupancyCounts:
    """Drop token identities, keep counts: tokens become urns 1..V ranked by
    descending count (ties broken by token), preserving the count-of-count
    profile exactly."""
    if corpus.total < 1:
        raise InsufficientDataError("empty corpus")
    ranked = sorted(corpus.counts, key=lambda t: (-corpus.counts[t], t))
    counts = {rank: corpus.counts[token] for rank, token in enumerate(ranked, start=1)}
    return OccupancyCounts(counts=counts, total=corpus.total, mode="fixed",
                           meta=dict(corpus.meta))
