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
from functools import partial

from .errors import InputFormatError, InsufficientDataError
from .occupancy import OccupancyCounts

__all__ = ["tokenize_text", "tokenize_file", "load_counts", "read_counts_csv",
           "counts_csv", "to_occupancy"]

# maximal runs of Unicode letters: word characters minus digits/underscore
_TOKEN_RE = re.compile(r"[^\W\d_]+", re.UNICODE)
# bytes (characters, for str input) per chunk of text counted at once
_CHUNK_SIZE = 1 << 16


def tokenize_text(data) -> OccupancyCounts:
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


def tokenize_file(path) -> OccupancyCounts:
    """Count tokens in a UTF-8 text file, as ``tokenize_text`` does its bytes.

    The file is read one chunk at a time, so memory holds one chunk and the
    distinct words, not the file.
    """
    return _count(_file_text(path))


def _file_text(path):
    """The text of a UTF-8 file, one decoded piece per chunk, as
    :func:`_decoded` gives it."""
    with open(path, "rb") as fh:
        yield from _decoded(iter(partial(fh.read, _CHUNK_SIZE), b""))


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


def _count(pieces) -> OccupancyCounts:
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
    return OccupancyCounts(counts=counts, total=sum(counts.values()))


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
    """The UTF-8 CSV with header ``column,count`` at ``path``: one key, parsed
    by ``key``, and a positive integer count per row; blank rows are
    skipped, and an empty file is an empty table.  A repeated key is summed
    with a warning if ``sum_duplicates``, else an error.  Every other fault
    raises InputFormatError carrying its line number or, for invalid UTF-8,
    its byte offset in the file.
    """
    counts: dict = {}
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
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
        for _ in _file_text(path):  # raises with the offset in the whole file
            pass
        raise
    return OccupancyCounts(counts=counts, total=sum(counts.values()))


def to_occupancy(counts: OccupancyCounts) -> OccupancyCounts:
    """``counts`` itself, once it is known to hold a ball.  Keys stay as they
    are: no estimator reads them."""
    if not counts.counts:
        raise InsufficientDataError("empty corpus")
    return counts
