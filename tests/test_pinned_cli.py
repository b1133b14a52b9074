"""Recorded stdout of ``zipfest estimate`` and of the two studies: any change
to an estimate, its standard error, its interval or flags, to a study row,
or to how they are printed, changes one of them.

The expected outputs live in ``pinned_cli.json``, one per run of
:data:`RUNS`: the ``estimate`` runs read the corpus of ``test_cli.py``, the
study runs draw their own samples.  After a deliberate change of
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
STUDIES = {
    "study-normality": ["--theta", "0.5", "--n", "2000", "--m", "100", "--k", "1,2"],
    "study-covariance": ["--theta", "0.7", "--n", "20000", "--m", "100",
                         "--grid", "0.25,0.5,1.0", "--nu", "2"],
}
STUDY_RUNS = {f"{command}/{fmt}": [command] + flags + ["--format", fmt]
              for command, flags in STUDIES.items() for fmt in ("json", "csv")}


def _stdout(corpus: Path, run: str) -> str:
    if run in STUDY_RUNS:
        argv = STUDY_RUNS[run]
    else:
        argv = ["estimate", "--input", str(corpus)] + RUNS[run]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, run
    return out.getvalue()


def _record(corpus: Path) -> dict:
    return {run: _stdout(corpus, run) for run in [*RUNS, *STUDY_RUNS]}


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


@pytest.mark.parametrize("run", STUDY_RUNS)
def test_study_stdout_is_pinned(pins, run):
    assert _stdout(None, run) == pins[run]  # byte for byte


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.txt"
        write_corpus(path)
        PINS.write_text(json.dumps(_record(path), indent=1) + "\n")
