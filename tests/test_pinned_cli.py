"""Recorded stdout of ``zipfest estimate``: any change to an estimate, its
standard error, its interval or flags, or to how they are printed, changes
one of them.

The expected outputs live in ``pinned_cli.json``, one per run of
:data:`RUNS` on the corpus of ``test_cli.py``.  After a deliberate change of
the output, rewrite them from the current code with

    PYTHONPATH=src python3 tests/test_pinned_cli.py
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from zipfest.cli import main

from test_cli import write_corpus

PINS = Path(__file__).resolve().parent / "pinned_cli.json"
ALL = ["--estimators", "all", "--k", "1,2,3"]
RUNS = {f"zeta/{fmt}/{level}": ALL + ["--c-model", "zeta", "--format", fmt, "--level", level]
        for fmt in ("json", "csv") for level in ("0.95", "0.9")}
RUNS["const:0.3/json/0.95"] = ALL + ["--c-model", "const:0.3"]


def _stdout(corpus: Path, run: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["estimate", "--input", str(corpus)] + RUNS[run])
    assert code == 0, run
    return out.getvalue()


def _record(corpus: Path) -> dict:
    return {run: _stdout(corpus, run) for run in RUNS}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("pinned-cli") / "corpus.txt"
    write_corpus(path)
    return path


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS.read_text())


@pytest.mark.parametrize("run", RUNS)
def test_estimate_stdout_is_pinned(pins, corpus, run):
    assert _stdout(corpus, run) == pins[run]  # byte for byte


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.txt"
        write_corpus(path)
        PINS.write_text(json.dumps(_record(path), indent=1) + "\n")
