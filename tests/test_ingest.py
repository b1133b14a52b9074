import csv
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from zipfest import ingest
from zipfest.errors import InputFormatError, InsufficientDataError
from zipfest.ingest import (load_counts, read_counts_csv, to_occupancy,
                            tokenize_file, tokenize_text)
from zipfest.occupancy import OccupancyCounts

# letters whose case folding changes their length or needs a combining mark;
# token characters that are not letters (so their words take the regex);
# a combining mark, digits, underscores, punctuation and NUL as separators
# inside a word; ASCII whitespace, some of which bytes.split does not split
# on; and non-ASCII whitespace, which stays inside a byte word
ALPHABET = ("aAbZßẞǰİıﬁÉé" + "²½" + "\u0301" + "09_-.,\x00"
            + " \n\t\x1c\x1d\x1f" + "\u3000\u00a0\x85\u2028")


def _reference_counts(text):
    """Tokenization as one match at a time, case-folded as it goes."""
    counts = {}
    for match in ingest._TOKEN_RE.finditer(text):
        token = match.group().casefold()
        counts[token] = counts.get(token, 0) + 1
    return counts


def test_invalid_utf8_reports_its_byte_offset(tmp_path):
    data = "héllo wörld ".encode("utf-8") + b"\xff tail"
    with pytest.raises(InputFormatError) as err:
        tokenize_text(data)
    assert err.value.location == len("héllo wörld ".encode("utf-8")) == 14
    path = tmp_path / "bad.txt"
    path.write_bytes(data)
    with pytest.raises(InputFormatError) as err:
        tokenize_file(path)
    assert err.value.location == 14


# invalid UTF-8 placed against the edges of chunks of c bytes
BAD_UTF8 = {
    "bad lead byte starting a chunk": lambda c: b"a " * c + b"\xff tail",
    "sequence cut by an edge, then broken":
        lambda c: "é".encode("utf-8") * c + b"x" * (c - 1) + b"\xe2\x82( tail",
    "encoded surrogate": lambda c: b"x" * (c - 1) + b"\xed\xa0\x80 tail",
    "sequence truncated at the end": lambda c: b"ab \xe2\x82",
}


@pytest.mark.parametrize("case", BAD_UTF8)
@pytest.mark.parametrize("chunk", [1, 2, 3, 4, 5, None])
def test_invalid_utf8_offset_at_chunk_edges(tmp_path, monkeypatch, case, chunk):
    if chunk is not None:
        monkeypatch.setattr(ingest, "_CHUNK_SIZE", chunk)
    data = BAD_UTF8[case](ingest._CHUNK_SIZE)
    with pytest.raises(UnicodeDecodeError) as expected:
        data.decode("utf-8")
    with pytest.raises(InputFormatError) as err:
        tokenize_text(data)
    assert err.value.location == expected.value.start
    path = tmp_path / "bad.txt"
    path.write_bytes(data)
    with pytest.raises(InputFormatError) as err:
        tokenize_file(path)
    assert err.value.location == expected.value.start


def test_tokenize_file_memory_is_one_chunk_not_the_file(tmp_path):
    rng = random.Random(3)
    # words of 12-28 letters, and words of 1-3 letters, where one chunk's
    # arrays are largest per byte of text
    for shortest, longest, words in [(12, 28, 60_000), (1, 3, 330_000)]:
        vocabulary = ["".join(rng.choice("abcdeé") for _ in range(rng.randint(shortest, longest)))
                      for _ in range(500)]
        block = " ".join(rng.choice(vocabulary) for _ in range(words)) + "\n"
        path = tmp_path / "large.txt"
        with open(path, "w", encoding="utf-8") as fh:
            for _ in range(8):
                fh.write(block)
        assert path.stat().st_size >= 8 << 20
        tracemalloc.start()
        try:
            corpus = tokenize_file(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert corpus.total == 8 * words
        assert peak < 4 << 20


def test_tokens_are_casefolded_letter_runs():
    corpus = tokenize_text("The cat, the CAT2dog_x; 42 straße")
    assert corpus.counts == {"the": 2, "cat": 2, "dog": 1, "x": 1, "strasse": 1}
    assert corpus.total == 7
    # words that are not all letters: non-letter token characters, a
    # combining mark, and whitespace that only str.split splits on
    corpus = tokenize_text("Ünïcode x²y a_b 12,3\tÉté\n\t½ e\u0301\u3000é")
    assert corpus.counts == {"ünïcode": 1, "x²y": 1, "a": 1, "b": 1, "été": 1,
                             "½": 1, "e": 1, "é": 1}


def test_letters_are_token_characters_and_whitespace_is_not():
    # the two facts the word-first count rests on, over every code point
    chars = [chr(cp) for cp in range(0x110000)]
    letters = "".join(c for c in chars if c.isalpha())
    spaces = "".join(c for c in chars if c.isspace())
    assert ingest._TOKEN_RE.fullmatch(letters)
    assert ingest._TOKEN_RE.search(spaces) is None


def test_the_separators_are_the_ascii_whitespace_and_no_other_byte():
    assert ingest._SEPARATORS == bytes(b for b in range(128) if chr(b).isspace())
    every_byte = bytes(range(256))
    in_word = np.empty(256, dtype=bool)
    ingest._in_word(every_byte, out=in_word)
    assert bytes(b for b in every_byte if not in_word[b]) == ingest._SEPARATORS


def _assert_matches_reference(text):
    corpus = tokenize_text(text)
    expected = _reference_counts(text)
    assert list(corpus.counts.items()) == list(expected.items())  # order too
    assert corpus.total == sum(expected.values())


def test_blocks_match_one_match_at_a_time():
    rng = random.Random(11)
    text = "".join(rng.choice(ALPHABET) for _ in range(3 * ingest._CHUNK_SIZE + 17))
    _assert_matches_reference(text)
    assert tokenize_text(text.encode("utf-8")) == tokenize_text(text)
    # one token longer than a block is never cut
    corpus = tokenize_text("ab" * ingest._CHUNK_SIZE + " ab")
    assert corpus.counts == {"ab" * ingest._CHUNK_SIZE: 1, "ab": 1}


# texts whose byte words fall on the edges of the 8-byte limbs of their keys
LIMB_EDGES = {
    "words of 7, 8, 15 and 16 bytes": "abcdefg abcdefgh abcdefghijklmno abcdefghijklmnop "
                                      "abcdefgh abcdefghijklmnop abcdefg abcdefghijklmno",
    "multi-byte letters across a limb edge": "abcdefgé abcdeféé abcdefgé abcdefghijklmnéé "
                                             "ééééééééé abcdefgé abcdefghijklmnéé",
    "a next to a and NUL": "a a\x00 a\x00\x00 \x00a a a\x00 abcdefgh abcdefgh\x00",
    "one word several chunks long": "é" * 40 + "abc " + "é" * 40 + "abc " + "é" * 40,
    "a lone surrogate": "ab\ud800cd ef\udfffgh \udc00 abcdefgh\ud800ijk ab\ud800cd",
}


@pytest.mark.parametrize("chunk", [3, 8, None])
@pytest.mark.parametrize("case", LIMB_EDGES)
def test_words_at_limb_edges_match_reference(monkeypatch, case, chunk):
    if chunk is not None:
        monkeypatch.setattr(ingest, "_CHUNK_SIZE", chunk)
    text = LIMB_EDGES[case]
    _assert_matches_reference(text)
    if case != "a lone surrogate":  # which is no UTF-8
        assert tokenize_text(text.encode("utf-8")) == tokenize_text(text)


def test_a_word_and_the_word_with_a_nul_are_two_byte_words():
    # both give the token "a", so only the byte words tell the keys apart
    words = ingest._Words()
    data = b"a a\x00 a \x00a" + ingest._PAD
    words.add(data, np.array([0, 2, 5, 7]), np.array([1, 4, 6, 9]), 0)
    assert list(words.items()) == [(b"a", 2, 0), (b"a\x00", 1, 2), (b"\x00a", 1, 7)]


@pytest.mark.parametrize("chunk", [5, 64, None])
def test_words_whose_hashes_collide_are_counted_apart(monkeypatch, chunk):
    # every word over 7 bytes takes one of two hashes, by the parity of its
    # length, so nearly every one goes to its own serial key
    if chunk is not None:
        monkeypatch.setattr(ingest, "_CHUNK_SIZE", chunk)
    monkeypatch.setattr(ingest, "_hash", lambda limbs, index, first_limb, lengths:
                        (lengths.view(np.uint64) & np.uint64(1)) | ingest._HASHED)
    rng = random.Random(5)
    vocabulary = ["".join(rng.choice("abcé²") for _ in range(rng.randint(1, 30)))
                  for _ in range(40)]
    _assert_matches_reference(" ".join(rng.choice(vocabulary) for _ in range(2000)))


# pieces of bytes, valid UTF-8 or not, around separators
UTF8_PIECES = [b"a", b"\xc3\xa9", b"\xe2\x82\xac", b"\xf0\x9f\x98\x80", b" ", b"\n", b"\x1f",
               b"\xff", b"\xc3", b"\xa9", b"\xe2\x82", b"\xed\xa0\x80", b"\xc0\xaf"]


@settings(max_examples=100, deadline=None)
@given(pieces=hst.lists(hst.sampled_from(UTF8_PIECES), max_size=30),
       block=hst.integers(1, 8))
def test_any_bytes_give_the_decoders_first_error_offset(text_path, pieces, block):
    data = b"".join(pieces)
    text_path.write_bytes(data)
    saved = ingest._CHUNK_SIZE
    ingest._CHUNK_SIZE = block
    try:
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            for count in (lambda: tokenize_text(data), lambda: tokenize_file(text_path)):
                with pytest.raises(InputFormatError) as err:
                    count()
                assert err.value.location == exc.start
        else:
            _assert_matches_reference(text)
            assert tokenize_text(data) == tokenize_file(text_path) == tokenize_text(text)
    finally:
        ingest._CHUNK_SIZE = saved


def test_a_byte_order_mark_before_the_first_word_changes_no_token(tmp_path):
    text = "Ünïcode café\tx²y a_b 12,3\nÉTÉ été naïve\n"
    path = tmp_path / "text.txt"
    path.write_text(text, encoding="utf-8-sig")
    assert path.read_bytes().startswith(b"\xef\xbb\xbf")
    assert tokenize_file(path) == tokenize_text(text)
    assert tokenize_text(path.read_bytes()) == tokenize_text("\ufeff" + text) == tokenize_text(text)


@pytest.fixture(scope="module")
def text_path(tmp_path_factory):
    return tmp_path_factory.mktemp("ingest") / "text.txt"


@settings(max_examples=100, deadline=None)
@given(text=hst.text(alphabet=ALPHABET, max_size=60), block=hst.integers(1, 8))
def test_any_block_size_matches_reference(text_path, text, block):
    # chunk edges fall inside words and, for the bytes, inside characters
    data = text.encode("utf-8")
    text_path.write_bytes(data)
    long = "aé" * 4 * block  # one token several chunks long
    saved = ingest._CHUNK_SIZE
    ingest._CHUNK_SIZE = block
    try:
        _assert_matches_reference(text)
        assert tokenize_text(data) == tokenize_text(text)
        assert tokenize_file(text_path) == tokenize_text(text)
        # one token longer than a block is never cut
        assert tokenize_text(long).counts == {long: 1}
        assert tokenize_text(long.encode("utf-8")).counts == {long: 1}
    finally:
        ingest._CHUNK_SIZE = saved


def test_load_counts_sums_duplicate_tokens(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text("token,count\na,3\nb,1\n\na,2\n", encoding="utf-8")
    with pytest.warns(UserWarning, match="duplicate token 'a' at line 5"):
        corpus = load_counts(path)
    assert corpus.counts == {"a": 5, "b": 1}
    assert corpus.total == 6


@pytest.mark.parametrize("bad_count", ["0", "x"])
def test_load_counts_rejects_a_bad_count_with_its_line(tmp_path, bad_count):
    path = tmp_path / "counts.csv"
    path.write_text(f"token,count\na,3\nb,{bad_count}\n", encoding="utf-8")
    with pytest.raises(InputFormatError) as err:
        load_counts(path)
    assert err.value.location == 3


def test_load_counts_rejects_a_wrong_header(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text("word,n\na,3\n", encoding="utf-8")
    with pytest.raises(InputFormatError) as err:
        load_counts(path)
    assert err.value.location == 1


def test_to_occupancy_rejects_an_empty_corpus():
    with pytest.raises(InsufficientDataError):
        to_occupancy(tokenize_text(""))


def test_to_occupancy_returns_its_table():
    # no estimator reads a key, so tokens keep their spelling and urns their label
    for table in (OccupancyCounts(counts={"b": 2, "c": 5, "a": 2, "d": 1}, total=10),
                  OccupancyCounts(counts={7: 2, 3: 5}, total=7)):
        assert to_occupancy(table) is table


# the two CSV formats: their reader, header and a well-formed key
CSV_FORMATS = {"tokens": (load_counts, "token,count", "ab"),
               "occupancy": (read_counts_csv, "urn_index,count", "12")}


@pytest.mark.parametrize("fmt, row", [("tokens", "a" * 100_000), ("tokens", "a," + "7" * 5000),
                                      ("tokens", "a" * 100_000 + ",x"),
                                      ("occupancy", "x" * 5000 + ",3")])
def test_a_malformed_row_message_shows_80_characters_of_it(tmp_path, fmt, row):
    read, header, _ = CSV_FORMATS[fmt]
    path = tmp_path / "counts.csv"
    path.write_text(f"{header}\n{row}\n", encoding="utf-8")
    with pytest.raises(InputFormatError, match=" at line 2") as err:
        read(path)
    shown = str(err.value).removeprefix("malformed row ").split(" at line 2")[0]
    assert err.value.location == 2 and shown == repr(next(csv.reader([row])))[:80]
    assert len(str(err.value)) < 300  # the reason too echoes at most 160 characters


@pytest.mark.parametrize("fmt", CSV_FORMATS)
@pytest.mark.parametrize("text", ["", "{header}\n", "{header}\n\n"])
def test_an_empty_or_header_only_csv_is_an_empty_table(tmp_path, fmt, text):
    read, header, _ = CSV_FORMATS[fmt]
    path = tmp_path / "counts.csv"
    path.write_text(text.format(header=header), encoding="utf-8")
    assert read(path) == OccupancyCounts(counts={}, total=0)
    with pytest.raises(InsufficientDataError, match="empty corpus"):
        to_occupancy(read(path))


@pytest.mark.parametrize("fmt", CSV_FORMATS)
@pytest.mark.parametrize("rows", [b"{key},3\nab\xff,3\n", b"{key},3\n\xe2\x82",
                                  b"\xed\xa0\x80,1\n", b"\n" * 70_000 + b"\xff,1\n"],
                         ids=["bad byte", "truncated at the end", "surrogate", "past a chunk"])
def test_invalid_utf8_in_a_csv_reports_its_byte_offset(tmp_path, fmt, rows):
    read, header, key = CSV_FORMATS[fmt]
    data = (header + "\n").encode() + rows.replace(b"{key}", key.encode())
    with pytest.raises(UnicodeDecodeError) as expected:
        data.decode("utf-8")
    path = tmp_path / "counts.csv"
    path.write_bytes(data)
    offset = expected.value.start
    with pytest.raises(InputFormatError, match=f"invalid UTF-8 at byte offset {offset}$") as err:
        read(path)
    assert err.value.location == offset


@pytest.mark.parametrize("fmt", CSV_FORMATS)
def test_a_csv_may_start_with_a_byte_order_mark(tmp_path, fmt):
    read, header, key = CSV_FORMATS[fmt]
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    text = f"{header}\n{key},3\n{key}1,2\n"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
    assert read(marked) == read(plain) and read(plain).total == 5
    # the other header checks stand, and byte offsets count the mark
    marked.write_bytes(b"\xef\xbb\xbfword,n\n" + f"{key},3\n".encode())
    with pytest.raises(InputFormatError, match="expected header") as err:
        read(marked)
    assert err.value.location == 1
    data = b"\xef\xbb\xbf" + f"{header}\n{key},3\n".encode() + b"\xff,1\n"
    marked.write_bytes(data)
    with pytest.raises(InputFormatError) as err:
        read(marked)
    assert err.value.location == data.index(b"\xff")


@pytest.mark.parametrize("fmt", CSV_FORMATS)
def test_a_csv_field_over_the_size_limit_reports_its_line(tmp_path, fmt):
    read, header, key = CSV_FORMATS[fmt]
    path = tmp_path / "counts.csv"
    path.write_text(f"{header}\n{key},3\n\n{key}7,{'1' * 200_000}\n", encoding="utf-8")
    with pytest.raises(InputFormatError, match="at line 4$") as err:
        read(path)
    assert err.value.location == 4


def test_a_duplicate_urn_index_is_an_error(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text("urn_index,count\n3,1\n4,2\n3,5\n", encoding="utf-8")
    with pytest.raises(InputFormatError, match="duplicate urn_index 3 at line 4") as err:
        read_counts_csv(path)
    assert err.value.location == 4
