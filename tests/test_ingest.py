import pytest

from zipfest.errors import InputFormatError, InsufficientDataError
from zipfest.ingest import (CorpusCounts, load_counts, to_occupancy,
                            tokenize_file, tokenize_text)


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


def test_tokens_are_casefolded_letter_runs():
    corpus = tokenize_text("The cat, the CAT2dog_x; 42 straße")
    assert corpus.counts == {"the": 2, "cat": 2, "dog": 1, "x": 1, "strasse": 1}
    assert corpus.total == 7


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


def test_to_occupancy_ranks_by_count_then_token():
    corpus = CorpusCounts(counts={"b": 2, "c": 5, "a": 2, "d": 1}, total=10)
    occupancy = to_occupancy(corpus)
    assert occupancy.counts == {1: 5, 2: 2, 3: 2, 4: 1}
    assert list(occupancy.counts) == [1, 2, 3, 4]
    assert occupancy.total == 10
    assert occupancy.snapshot().exact_count(2) == 2
