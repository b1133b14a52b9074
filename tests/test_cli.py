import argparse
import csv
import hashlib
import io
import json
import math
import os
import resource
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

from zipfest import asymptotics, cli, montecarlo
from zipfest import law as law_module
from zipfest.cli import _csv_text, _json_write, main
from zipfest.errors import UsageError, ZipfestError
from zipfest.estimators import ImplicitSolver
from zipfest.ingest import counts_csv, read_counts_csv
from zipfest.law import make_zipf_law, zeta_normalization
from zipfest.montecarlo import CovarianceRow, EstimatorReport, ExperimentConfig
from zipfest.sampler import SeedSpec, sample_fixed, sample_poissonized

ALL_ESTIMATES = ["implicit-r", "implicit-u", "implicit-rk(1)", "implicit-rk(2)",
                 "ratio-r1", "ratio-k(1)", "ratio-k(2)", "log-ratio"]
DIGITS_AS_LETTERS = str.maketrans("0123456789", "abcdefghij")


def write_corpus(path):
    """Write 20 000 tokens with Zipf-like frequencies (exponent 0.6) over
    5 000 words to ``path``; returns the count of each word."""
    rng = np.random.Generator(np.random.PCG64(2024))
    weights = np.arange(1, 5001, dtype=float) ** (-1.0 / 0.6)
    ranks = rng.choice(weights.size, size=20_000, p=weights / weights.sum())
    # tokens are runs of letters, so spell each rank's digits as letters
    words = [str(r).translate(DIGITS_AS_LETTERS) for r in ranks]
    lines = [" ".join(words[i:i + 20]) for i in range(0, len(words), 20)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return np.bincount(ranks)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """The file of :func:`write_corpus` and the count of each word."""
    path = tmp_path_factory.mktemp("cli") / "corpus.txt"
    return path, write_corpus(path)


def run(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def strict_json(text):
    """``json.loads``, failing on the NaN and Infinity that strict parsers reject."""
    def reject(constant):
        raise AssertionError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


def test_estimate_all_reruns_byte_identical(capsys, corpus):
    path, counts = corpus
    argv = ["estimate", "--input", str(path), "--estimators", "all",
            "--c-model", "zeta", "--k", "1,2"]
    first = run(capsys, argv)
    second = run(capsys, argv)
    assert first == second
    code, out, err = first
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["n"] == 20_000
    estimates = {e["estimator"]: e for e in payload["estimates"]}
    assert list(estimates) == ALL_ESTIMATES
    occupied = counts[counts > 0]
    r1_over_r = np.count_nonzero(occupied == 1) / occupied.size
    assert estimates["ratio-r1"]["theta_hat"] == float(f"{r1_over_r:.10g}")


def test_estimate_takes_the_lower_of_two_rk2_roots(capsys, corpus):
    path, counts = corpus
    solver = ImplicitSolver("rk", 20_000, zeta_normalization, k=2)
    r_2 = np.count_nonzero(counts == 2)
    # g_rk(2) rises above R_2 by theta = 0.9 and falls back below it, so R_2
    # has a root on each side of 0.9
    assert solver.growth(solver.THETA_HI) < r_2 < solver.growth(0.9)
    code, out, err = run(capsys, ["estimate", "--input", str(path), "--estimators",
                                  "implicit-rk", "--c-model", "zeta", "--k", "2"])
    assert (code, err) == (0, "")
    estimate, = json.loads(out)["estimates"]
    assert (estimate["estimator"], estimate["flags"]) == ("implicit-rk(2)", [])
    assert estimate["theta_hat"] == float(f"{solver.solve(float(r_2)).theta_hat:.10g}")
    assert estimate["theta_hat"] < 0.9


def test_text_and_both_csv_formats_give_identical_stdout(capsys, tmp_path, corpus):
    path, counts = corpus
    ranks = np.flatnonzero(counts)
    words = [str(r).translate(DIGITS_AS_LETTERS) for r in ranks]
    tokens, urns = tmp_path / "tokens.csv", tmp_path / "urns.csv"
    tokens.write_text("token,count\n" + "".join(
        f"{w},{counts[r]}\n" for w, r in zip(words, ranks)), encoding="utf-8")
    urns.write_text("urn_index,count\n" + "".join(
        f"{r + 1},{counts[r]}\n" for r in ranks), encoding="utf-8")
    flags = ["--estimators", "all", "--c-model", "zeta", "--k", "1,2"]
    outputs = [run(capsys, ["estimate", "--input", str(p), "--input-format", fmt, *flags])
               for p, fmt in ((path, "text"), (tokens, "tokens"), (urns, "occupancy"))]
    assert outputs[0][0] == 0 and outputs[0][2] == ""
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


# per --input-format: the header of an empty table, and a file with one
# invalid UTF-8 byte
INPUTS = {"text": ("", b"token count ab\xff 3\n"),
          "tokens": ("token,count\n", b"token,count\nab\xff,3\n"),
          "occupancy": ("urn_index,count\n", b"urn_index,count\n\xff,3\n")}


@pytest.mark.parametrize("fmt", INPUTS)
@pytest.mark.parametrize("header", [False, True])
@pytest.mark.parametrize("estimators", ["ratio-r1", "all"])
def test_an_empty_input_is_one_line_with_exit_1(capsys, tmp_path, fmt, header, estimators):
    path = tmp_path / "empty"
    path.write_text(INPUTS[fmt][0] if header else "", encoding="utf-8")
    assert run(capsys, ["estimate", "--input", str(path), "--input-format", fmt,
                        "--estimators", estimators, "--c-model", "zeta"]) == (
        1, "", "zipfest: error: empty corpus\n")


SHORT_TEXT = "the cat sat on the mat and the dog sat on the log while a bird sang\n"


@pytest.mark.parametrize("argv, no_value", [
    # R_3 = 0, so ratio-k(3) has no value; the other rows keep theirs
    ([], {"ratio-k(3)": "insufficient-data"}),
    # R_2 = 2 lies above the peak of g_rk(2), and implicit-rk(3) reads R_3 = 0
    (["--estimators", "all", "--c-model", "zeta"],
     {"implicit-rk(2)": "no-root", "implicit-rk(3)": "insufficient-data",
      "ratio-k(3)": "insufficient-data"}),
])
def test_a_row_without_a_value_is_flagged_with_exit_0(capsys, tmp_path, argv, no_value):
    path = tmp_path / "short.txt"
    path.write_text(SHORT_TEXT, encoding="utf-8")
    argv = ["estimate", "--input", str(path), "--k", "1,2,3", *argv]
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    estimates = strict_json(out)["estimates"]
    assert {e["estimator"]: e["flags"] for e in estimates
            if e["theta_hat"] is None} == {tag: [flag] for tag, flag in no_value.items()}
    for e in estimates:
        values = [e[name] for name in ("theta_hat", "stderr", "ci_lo", "ci_hi")]
        assert all((v is None) == (e["estimator"] in no_value) for v in values), e
    # 9 of the 12 occupied urns hold one ball
    assert next(e for e in estimates if e["estimator"] == "ratio-r1")["theta_hat"] == 0.75
    code, out, err = run(capsys, argv + ["--format", "csv"])
    assert (code, err) == (0, "")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [row["estimator"] for row in rows] == [e["estimator"] for e in estimates]
    for row in rows:
        if row["estimator"] in no_value:
            assert row["flags"] == no_value[row["estimator"]]
            assert row["theta_hat"] == row["stderr"] == row["ci_lo"] == row["ci_hi"] == ""
        else:
            assert row["theta_hat"] != ""


@pytest.mark.parametrize("c_model", ["zeta", "const:0.3"])
def test_implicit_rows_evaluate_c_as_often_as_one_row(capsys, tmp_path, monkeypatch, c_model):
    # all five implicit rows are solved in one batch: c(theta) once on the
    # solvers' grid and once per round of the joined solve, as for one row
    path = tmp_path / "urns.csv"
    path.write_text(counts_csv(sample_fixed(make_zipf_law(0.6), 20_000, SeedSpec(11))),
                    encoding="utf-8")
    build_c_model = cli._build_c_model

    def c_calls(estimators):
        calls = []

        def counted_model(spec):
            c_of_theta = build_c_model(spec)

            def counted(theta):  # a new function, so no c table is cached for it
                calls.append(np.size(theta))
                return c_of_theta(theta)

            return counted

        monkeypatch.setattr(cli, "_build_c_model", counted_model)
        code, out, err = run(capsys, ["estimate", "--input", str(path), "--input-format",
                                      "occupancy", "--estimators", estimators,
                                      "--c-model", c_model, "--k", "1,2,3"])
        assert (code, err) == (0, "")
        assert all(e["theta_hat"] is not None for e in json.loads(out)["estimates"])
        return len(calls)

    assert c_calls("all") <= c_calls("implicit-r")


def test_one_token_gives_rows_without_a_value_with_exit_0(capsys, tmp_path):
    # n = 1: log-ratio and every implicit row have no value, ratio-r1 and
    # ratio-k keep theirs
    path = tmp_path / "one.txt"
    path.write_text("hello\n", encoding="utf-8")
    for argv in ([], ["--estimators", "all", "--c-model", "zeta"]):
        code, out, err = run(capsys, ["estimate", "--input", str(path), *argv])
        assert (code, err) == (0, "")
        for e in strict_json(out)["estimates"]:
            no_value = e["estimator"] == "log-ratio" or e["estimator"].startswith("implicit")
            assert (e["theta_hat"] is None, e["flags"] == ["insufficient-data"]) == (
                no_value, no_value), e


def test_a_degenerate_estimate_has_an_ordered_interval(capsys, tmp_path):
    # R_1 = 5 and R_2 = 300: ratio-k(1) reads -119 and ratio-k(2) reads 2
    path = tmp_path / "tokens.csv"
    path.write_text("token,count\n" + "".join(f"w{i},2\n" for i in range(300))
                    + "".join(f"z{i},1\n" for i in range(5)), encoding="utf-8")
    code, out, err = run(capsys, ["estimate", "--input", str(path), "--input-format", "tokens",
                                  "--estimators", "ratio-k", "--k", "1,2"])
    assert (code, err) == (0, "")
    assert [(e["theta_hat"], e["ci_lo"], e["ci_hi"]) for e in json.loads(out)["estimates"]] == [
        (-119, 0, 0), (2, 1, 1)]


@pytest.mark.parametrize("fmt, text", [("text", SHORT_TEXT),
                                       ("tokens", "token,count\nthe,4\ncat,2\nsat,1\n"),
                                       ("occupancy", "urn_index,count\n3,4\n1,2\n2,1\n")])
def test_a_leading_byte_order_mark_changes_no_output(capsys, tmp_path, fmt, text):
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    flags = ["--input-format", fmt, "--estimators", "ratio-r1,log-ratio"]
    expected = run(capsys, ["estimate", "--input", str(plain), *flags])
    assert expected[0] == 0 and expected[2] == ""
    assert run(capsys, ["estimate", "--input", str(marked), *flags]) == expected


@pytest.mark.parametrize("fmt", INPUTS)
def test_invalid_utf8_is_one_line_with_exit_1(capsys, tmp_path, fmt):
    path = tmp_path / "bad"
    path.write_bytes(INPUTS[fmt][1])
    offset = INPUTS[fmt][1].index(b"\xff")
    assert run(capsys, ["estimate", "--input", str(path), "--input-format", fmt]) == (
        1, "", f"zipfest: error: invalid UTF-8 at byte offset {offset}\n")


@pytest.mark.parametrize("fmt", ["tokens", "occupancy"])
def test_an_over_long_csv_field_is_one_line_with_exit_1(capsys, tmp_path, fmt):
    path = tmp_path / "long.csv"
    path.write_text(INPUTS[fmt][0] + f"12,{'1' * 200_000}\n", encoding="utf-8")
    code, out, err = run(capsys, ["estimate", "--input", str(path), "--input-format", fmt])
    assert (code, out) == (1, "")
    assert err.startswith("zipfest: error: ") and err.endswith(" at line 2\n")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_a_repeated_token_is_one_warning_line(capsys, tmp_path):
    repeated, summed = tmp_path / "repeated.csv", tmp_path / "summed.csv"
    repeated.write_text("token,count\na,3\nb,1\na,2\n", encoding="utf-8")
    summed.write_text("token,count\na,5\nb,1\n", encoding="utf-8")
    flags = ["--input-format", "tokens", "--estimators", "ratio-r1,log-ratio"]
    code, out, err = run(capsys, ["estimate", "--input", str(repeated), *flags])
    assert (code, err) == (0, "zipfest: warning: duplicate token 'a' at line 4; counts summed\n")
    assert run(capsys, ["estimate", "--input", str(summed), *flags]) == (0, out, "")


def test_a_malformed_row_is_one_short_line(capsys, tmp_path):
    # 5000 digits exceed Python's int-parsing limit, not the csv field limit
    path = tmp_path / "long.csv"
    path.write_text("token,count\na," + "7" * 5000 + "\n", encoding="utf-8")
    code, out, err = run(capsys, ["estimate", "--input", str(path), "--input-format", "tokens"])
    assert (code, out) == (1, "")
    assert err.startswith("zipfest: error: malformed row ['a', '777") and " at line 2: " in err
    assert err.count("\n") == 1 and len(err.encode()) < 300


@pytest.mark.parametrize("argv", [
    ["estimate", "--estimators", "implicit-r", "--c-model", "const:x"],
    ["eval-asymptotics", "--theta", "0.5,x"],
    ["eval-asymptotics", "--theta", "0.5", "--tau-t", "0.5:x"],
    ["estimate", "--estimators", "implicit-r"],
    ["estimate", "--estimators", "ratio-x"],
    ["estimate", "--k", "0"],
    ["study-normality", "--theta", "0.5", "--n", "2000", "--m", "100",
     "--estimators", "log-ratio"],
    ["eval-asymptotics", "--theta", "1.5"],
    ["eval-asymptotics", "--theta", "0.5,0"],
    ["study-normality", "--theta", "0", "--n", "1000", "--m", "100"],
    ["study-covariance", "--theta", "1", "--n", "1000", "--m", "100"],
    ["simulate", "--theta", "-0.5", "--n", "100"],
    ["simulate", "--theta", "0.5", "--i0", "-1"],
    ["study-normality", "--theta", "0.5", "--n", "1000", "--m", "100",
     "--tail-epsilon", "1e-3"],
    ["study-normality", "--theta", "0.5", "--n", "0", "--m", "100"],
    ["study-covariance", "--theta", "0.5", "--n", "0", "--m", "100"],
    ["simulate", "--theta", "0.5", "--mode", "poisson", "--t", "-1"],
    ["estimate", "--estimators", "ratio-r1", "--level", "0"],
    ["study-normality", "--theta", "0.5", "--n", "2000", "--m", "100", "--level", "1.5"],
    ["estimate", "--estimators", "log-ratio", "--level", "1.5"],
    ["simulate", "--theta", "0.5", "--k-max", "0", "--snapshot", "{tmp}/snapshot.json"],
    ["study-normality", "--theta", "0.5", "--n", "1", "--m", "100"],
    ["study-covariance", "--theta", "0.5", "--n", "1", "--m", "100"],
    ["simulate", "--theta", "0.5", "--seed", "-1"],
    ["simulate", "--theta", "0.5", "--stream", "-1"],
    ["study-normality", "--theta", "0.5", "--n", "1000", "--m", "100", "--seed", "-3"],
    ["study-normality", "--theta", "0.5", "--n", "1000", "--m", "100", "--workers", "0"],
    ["study-covariance", "--theta", "0.5", "--n", "1000", "--m", "100", "--workers", "0"],
    ["eval-asymptotics", "--theta", "0.5", "--nu", "0", "--tau-t", "1:1"],
    ["eval-asymptotics", "--theta", "0.5", "--tau-t", "0:1"],
    ["eval-asymptotics", "--theta", "0.5", "--tau-t", "1:nan"],
    ["simulate", "--theta", "0.5", "--mode", "poisson", "--t", "1e19"],
    ["simulate", "--theta", "0.5", "--mode", "poisson", "--t", "1e300"],
    # without --t the horizon is --n, which the n rule keeps within the t rule
    ["simulate", "--theta", "0.5", "--mode", "poisson", "--n", "10000000000000000000"],
    # alpha(5) = 0 at theta = 0.9: no urn has n p >= 1, so no scale
    ["study-covariance", "--theta", "0.9", "--n", "5", "--m", "100", "--grid", "1.0"],
    # a normalization must be finite and positive
    ["estimate", "--estimators", "implicit-r", "--c-model", "const:nan"],
    ["estimate", "--estimators", "implicit-r", "--c-model", "const:inf"],
    # numpy's multinomial draw refuses an n above 2^63 - 1
    ["simulate", "--theta", "0.01", "--n", "10000000000000000000"],
    ["study-normality", "--theta", "0.01", "--n", "10000000000000000000", "--m", "100"],
    # R_k = 0 for every k above n, and a tally up to k would take memory in
    # proportion to k (the corpus has 20000 tokens)
    ["estimate", "--estimators", "ratio-k", "--k", "1000000000000"],
    ["study-normality", "--theta", "0.5", "--n", "2000", "--m", "100",
     "--k", "1000000000000"],
    # the same for a snapshot's --k-max above the sample size: --n, or the
    # horizon --t rounded up
    ["simulate", "--theta", "0.5", "--n", "100", "--k-max", "1000000000000",
     "--snapshot", "{tmp}/snapshot.json"],
    ["simulate", "--theta", "0.5", "--mode", "poisson", "--t", "99.5", "--k-max", "101"],
])
def test_usage_error_is_one_line_with_exit_2(capsys, corpus, tmp_path, argv):
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    if argv[0] == "estimate":
        argv = argv + ["--input", str(corpus[0])]
    if argv[0] == "simulate":
        argv = argv + ["--output", str(tmp_path / "counts.csv")]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("zipfest: usage error: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv, name", [
    (["simulate", "--theta", "0.9", "--n", "9000000000000000000"], "--n"),
    (["simulate", "--theta", "0.9", "--mode", "poisson", "--t", "9000000000000000000"], "--t"),
    (["study-normality", "--theta", "0.9", "--n", "9000000000000000000", "--m", "100"], "n"),
    (["study-covariance", "--theta", "0.9", "--n", "9000000000000000000", "--m", "100",
      "--grid", "1.0"], "n"),
])
@pytest.mark.parametrize("memory", [None, 1000])
def test_a_head_beyond_the_memory_is_one_usage_error_line(capsys, monkeypatch, tmp_path,
                                                           argv, name, memory):
    # at n = 9e18 and theta = 0.9 the head holds 1.5e16 urns, 106 PiB of
    # probabilities alone; under a 1000-byte memory, n = 1e4 at theta = 0.5
    # is refused too (77 urns, 1232 bytes).  Nothing is drawn or written,
    # and no worker starts.
    def refuse(*args, **kwargs):
        raise AssertionError("went on past the head check")

    for module, refused in ((cli, "sample_fixed"), (cli, "sample_poissonized"),
                            (montecarlo, "_run_chunked")):
        monkeypatch.setattr(module, refused, refuse)
    if memory is not None:
        monkeypatch.setattr(law_module, "USABLE_MEMORY", memory)
        argv = [a.replace("0.9", "0.5").replace("9000000000000000000", "10000") for a in argv]
    if argv[0] == "simulate":
        argv = argv + ["--output", str(tmp_path / "counts.csv")]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith(f"zipfest: usage error: {name} = ")
    assert "needs a head of" in err and err.count("\n") == 1
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv, name", [
    (["simulate", "--theta", "0.9", "--n", "2000"], "--n"),
    (["simulate", "--theta", "0.9", "--mode", "poisson", "--t", "2000"], "--t"),
    (["study-normality", "--theta", "0.9", "--n", "2000", "--m", "100"], "n"),
    (["study-covariance", "--theta", "0.9", "--n", "2000", "--m", "100", "--grid", "1.0"], "n"),
])
def test_a_tail_beyond_the_memory_is_one_usage_error_line(capsys, monkeypatch, tmp_path,
                                                           argv, name):
    # at n = 2000 and theta = 0.9 the head of 122 urns needs 1952 bytes, and
    # about 1100 balls fall beyond it: a memory just above the head's bytes
    # holds the head but not the tail.  Nothing is drawn or written, and no
    # worker starts.
    def refuse(*args, **kwargs):
        raise AssertionError("went on past the memory check")

    for module, refused in ((cli, "sample_fixed"), (cli, "sample_poissonized"),
                            (montecarlo, "_run_chunked")):
        monkeypatch.setattr(module, refused, refuse)
    monkeypatch.setattr(law_module, "USABLE_MEMORY", 1952 + 100)
    if argv[0] == "simulate":
        argv = argv + ["--output", str(tmp_path / "counts.csv")]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith(f"zipfest: usage error: {name} = 2000 needs a head of 122 urns")
    assert "tail balls" in err and err.count("\n") == 1
    assert not any(tmp_path.iterdir())


def _main_in_child(argv, address_space, cwd, script=None, stdin=None):
    """(exit code, stdout, stderr) of ``zipfest`` with ``argv``, or of the
    Python ``script`` with ``stdin``, run in a fresh interpreter in ``cwd``
    whose soft address-space limit is ``address_space`` bytes; the child
    sets it before it starts, so this process keeps its own."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    done = subprocess.run(
        [sys.executable, "-c",
         script or "import sys; from zipfest.cli import main; sys.exit(main())", *argv],
        env=env, cwd=cwd, input=stdin, capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (address_space, hard)))
    return done.returncode, done.stdout, done.stderr


def test_a_draw_beyond_the_address_space_limit_is_one_usage_error_line(tmp_path):
    # n = 3e8 at theta = 0.9 needs 3.7e9 bytes by the memory rule, which a
    # 1 GiB address space cannot hold: compared with the machine's memory
    # alone, the rule let the draw start, and numpy ran out mid-draw
    limit = 2 ** 30
    code, out, err = _main_in_child(["simulate", "--theta", "0.9", "--n", "300000000",
                                     "--output", "counts.csv"], limit, tmp_path)
    assert code == 2 and out == ""
    assert err.startswith("zipfest: usage error: --n = 300000000 needs a head of")
    assert f"the {limit} bytes of memory this process may use" in err
    assert err.count("\n") == 1
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv, module, name", [
    (["simulate", "--theta", "0.5", "--n", "1000"], cli, "sample_fixed"),
    (["study-covariance", "--theta", "0.5", "--n", "1000", "--m", "100"],
     montecarlo, "_run_chunked"),
])
def test_an_escaped_memory_error_is_one_error_line(capsys, monkeypatch, tmp_path,
                                                   argv, module, name):
    message = "Unable to allocate 383. MiB for an array with shape (1, 50139075)"

    def out_of_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(module, name, out_of_memory)
    code, out, err = run(capsys, argv + ["--output", str(tmp_path / "out")])
    assert (code, out, err) == (1, "", f"zipfest: error: out of memory: {message}\n")
    assert not any(tmp_path.iterdir())


def test_k_max_up_to_the_sample_size_or_the_default_is_accepted(capsys, tmp_path):
    for argv in (["--n", "5"], ["--n", "100", "--k-max", "100"],
                 ["--mode", "poisson", "--t", "99.5", "--k-max", "100"]):
        code, out, err = run(capsys, ["simulate", "--theta", "0.5", *argv, "--output", "-",
                                      "--snapshot", str(tmp_path / "snapshot.json")])
        assert (code, err) == (0, ""), argv


@pytest.mark.parametrize("command", [["study-normality"], ["study-covariance"]])
def test_workers_are_bounded_by_the_usable_cpus(command):
    # refused at parse time: a study with that many workers would fork them
    # all at once
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    parser = cli.build_parser()
    for workers, ok in ((1, True), (cpus, True), (cpus + 1, False), (10 ** 6, False)):
        argv = [*command, "--theta", "0.5", "--workers", str(workers)]
        if ok:
            assert parser.parse_args(argv).workers == workers
        else:
            with pytest.raises(UsageError, match="argument --workers: must lie in") as exc:
                parser.parse_args(argv)
            assert "\n" not in str(exc.value)


@pytest.mark.parametrize("argv", [
    # the cutoff of theta = 0.97 exceeds the float64 range, so it cannot be sampled
    ["simulate", "--theta", "0.97", "--n", "100"],
    # a study's draws meet the same refusal
    ["study-normality", "--theta", "0.97", "--n", "2000", "--m", "100"],
    # zeta(1/theta) would need an explicit sum of more than 5e7 terms
    ["simulate", "--theta", "2.5e-8", "--n", "10"],
])
def test_runtime_failure_is_one_line_with_exit_1(capsys, tmp_path, argv):
    if argv[0] == "simulate":
        argv = argv + ["--output", str(tmp_path / "counts.csv")]
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err.startswith("zipfest: error: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv, included", [
    # R_8 = 0 in 45 of the 100 replications at n = 2000
    (["--k", "8", "--estimators", "ratio-k"], 55),
    # no replication holds an urn of 200 balls
    (["--k", "200", "--estimators", "implicit-rk"], 0),
    (["--k", "1", "--estimators", "ratio-k"], 100),
])
def test_a_row_with_few_usable_replications_is_reported(capsys, argv, included):
    argv = ["study-normality", "--theta", "0.5", "--n", "2000", "--m", "100", *argv]
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    row, = strict_json(out)["rows"]
    assert (row["m_included"], row["m_excluded"]) == (included, 100 - included)
    assert all((row[name] is None) == (included < 100) for name in ("ks_distance", "ks_pvalue"))
    moments = [row[name] for name in ("mean", "variance", "skewness", "excess_kurtosis",
                                      "variance_ratio")]
    assert all((value is None) == (included < 2) for value in moments)
    code, out, err = run(capsys, argv + ["--format", "csv"])
    assert (code, err) == (0, "")
    csv_row, = csv.DictReader(io.StringIO(out))
    assert (csv_row["ks_distance"] == "") == (included < 100)
    assert (csv_row["mean"] == "") == (included < 2)


@pytest.mark.parametrize("args", [["--theta", "0.01"], ["--theta", "0.05"],
                                  ["--theta", "0.01", "--tail-epsilon", "1e-40"]])
def test_simulate_at_tiny_theta_is_silent(capsys, tmp_path, args):
    # the law's cutoff is 1 at theta = 0.01 (no tail to draw) and 3 at 0.05;
    # at tail_epsilon 1e-40 theta = 0.01 has a tail that no ball reaches
    path = tmp_path / "counts.csv"
    code, out, err = run(capsys, ["simulate", *args, "--n", "100",
                                  "--output", str(path)])
    assert (code, out, err) == (0, "", "")
    assert path.read_text().startswith("urn_index,count\n1,")


@pytest.mark.parametrize("argv, row_type", [
    (["study-normality", "--theta", "0.5", "--n", "2000", "--m", "100", "--k", "1,2"],
     EstimatorReport),
    (["study-covariance", "--theta", "0.7", "--n", "5000", "--m", "100", "--nu", "2"],
     CovarianceRow),
])
def test_study_csv_has_one_column_per_row_field(capsys, argv, row_type):
    columns = [f.name for f in fields(row_type)]
    code, out, err = run(capsys, argv + ["--format", "csv"])
    assert (code, err) == (0, "")
    header, *lines = out.splitlines()
    assert header.split(",") == columns
    code, out, err = run(capsys, argv)
    rows = json.loads(out)["rows"]
    assert len(rows) == len(lines) > 1
    assert all(sorted(row) == sorted(columns) for row in rows)


@pytest.mark.parametrize("command, study", [("study-normality", "normality_study"),
                                            ("study-covariance", "covariance_study")])
def test_study_flag_defaults_are_the_config_defaults(monkeypatch, capsys, command, study):
    configs = []

    def stop(config):
        configs.append(config)
        raise ZipfestError("stop")

    monkeypatch.setattr(cli, study, stop)
    assert main([command, "--theta", "0.5", "--n", "1000", "--m", "100"]) == 1
    assert configs == [ExperimentConfig(theta=0.5, n=1000, m=100)]


def test_csv_row_without_a_column_raises():
    with pytest.raises(KeyError):
        _csv_text(["estimator", "coverage"], [{"estimator": "ratio-r1"}])


def test_non_finite_floats_are_written_as_missing_values():
    values = [math.nan, math.inf, -math.inf]
    assert [_json_write(v) for v in values] == ["null"] * 3
    assert json.loads(_json_write({"v": values, "ok": 0.5})) == {"v": [None] * 3, "ok": 0.5}
    assert _csv_text(["a", "b", "c", "d"],
                     [{"a": math.nan, "b": math.inf, "c": -math.inf, "d": 0.5}]) == "a,b,c,d\n,,,0.5\n"


def test_an_overflowing_covariance_is_strict_json(capsys):
    # t^theta c_ij(1, 1) exceeds the float range at theta = 0.999, so some
    # covariance values are inf; at theta = 0.5 every value is finite
    code, out, err = run(capsys, ["eval-asymptotics", "--theta", "0.999",
                                  "--tau-t", "1e308:1e308"])
    assert (code, err) == (0, "")
    rows = strict_json(out)
    assert any(row["kind"] == "cov" and row["value"] is None for row in rows)
    code, out, err = run(capsys, ["eval-asymptotics", "--theta", "0.5",
                                  "--tau-t", "1e308:1e308"])
    assert (code, err) == (0, "")
    spec = asymptotics.CovarianceSpec(0.5)
    for row in (row for row in strict_json(out) if row["kind"] == "cov"):
        # the output keeps 10 significant digits
        expected = 1e154 * spec.cov(row["i"], row["j"], 1.0, 1.0)
        assert row["value"] == pytest.approx(float(f"{expected:.10g}"), rel=1e-12)


@pytest.mark.parametrize("pair", ["1e200:1e200", "1e-200:1e-200", "1e155:1", "1:1e-300"])
def test_a_covariance_at_extreme_times_is_finite(capsys, pair):
    # c_ij(a tau, a t) = a^theta c_ij(tau, t) is finite at every such pair
    code, out, err = run(capsys, ["eval-asymptotics", "--theta", "0.3,0.5,0.9", "--nu", "8",
                                  "--tau-t", pair])
    assert (code, err) == (0, "")
    values = [row["value"] for row in strict_json(out) if row["kind"] == "cov"]
    assert len(values) == 3 * 9 ** 2
    # a value that underflows to 0 is written as the JSON int 0
    assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def test_estimate_output_file_holds_stdout_and_a_manifest(capsys, tmp_path, corpus):
    path, _ = corpus
    argv = ["estimate", "--input", str(path), "--estimators", "all",
            "--c-model", "zeta", "--k", "1,2"]
    _, stdout, _ = run(capsys, argv)
    output = tmp_path / "est.json"
    assert run(capsys, argv + ["--output", str(output)]) == (0, "", "")
    assert output.read_text(encoding="utf-8") == stdout
    manifest = json.loads((tmp_path / "est.json.manifest.json").read_text())
    assert manifest["command"] == "estimate"
    assert manifest["config"]["output"] == str(output)
    assert manifest["inputs"] == {str(path): hashlib.sha256(path.read_bytes()).hexdigest()}
    config_text = json.dumps(manifest["config"], sort_keys=True)
    assert manifest["config_hash"] == hashlib.sha256(config_text.encode()).hexdigest()


def test_eval_asymptotics_csv_values_are_the_asymptotics_functions(capsys):
    code, out, err = run(capsys, ["eval-asymptotics", "--theta", "0.3,0.7", "--k", "1,2",
                                  "--tau-t", "0.5:1,1:1", "--nu", "2", "--format", "csv"])
    assert (code, err) == (0, "")
    rows = list(csv.DictReader(io.StringIO(out)))
    # per theta: ratio-r1, two ratio-k, r, u, two rk, and 3 x 3 x 2 covariances
    assert len(rows) == 2 * 25
    for row in rows:
        theta, kind = float(row["theta"]), row["kind"]
        k = int(row["k"]) if row["k"] else None
        if kind == "ratio-r1-variance":
            value = asymptotics.ratio_r1_variance(theta)
        elif kind == "ratio-k-variance":
            value = asymptotics.ratio_k_variance(theta, k)
        elif kind.startswith("implicit-variance-"):
            value = asymptotics.implicit_variance(theta, kind.rpartition("-")[2], k)
        else:
            assert kind == "cov"
            value = asymptotics.CovarianceSpec(theta, nu=2).cov(
                int(row["i"]), int(row["j"]), float(row["tau"]), float(row["t"]))
        assert row["value"] == f"{value:.10g}"


@pytest.mark.parametrize("nu", ["9", "1000"])
def test_eval_asymptotics_nu_beyond_the_tracked_counts_is_a_usage_error(capsys, nu):
    # at --nu 1000, cov overflowed math.exp; the bound is that of study-covariance
    code, out, err = run(capsys, ["eval-asymptotics", "--theta", "0.5", "--tau-t", "1:1",
                                  "--nu", nu])
    assert (code, out) == (2, "")
    assert err.startswith("zipfest: usage error: ") and err.count("\n") == 1
    assert "--nu" in err


def test_eval_asymptotics_nu_8_prints_every_covariance(capsys):
    code, out, err = run(capsys, ["eval-asymptotics", "--theta", "0.5", "--tau-t", "0.5:1,1:1",
                                  "--nu", "8", "--format", "csv"])
    assert (code, err) == (0, "")
    rows = [row for row in csv.DictReader(io.StringIO(out)) if row["kind"] == "cov"]
    assert len(rows) == 2 * (8 + 1) ** 2


def test_simulate_snapshot_is_that_of_the_counts_written(capsys, tmp_path):
    output, snapshot = tmp_path / "counts.csv", tmp_path / "snap.json"
    code, out, err = run(capsys, ["simulate", "--theta", "0.6", "--n", "3000", "--seed", "7",
                                  "--k-max", "5", "--output", str(output),
                                  "--snapshot", str(snapshot)])
    assert (code, out, err) == (0, "", "")
    assert json.loads(snapshot.read_text()) == read_counts_csv(output).snapshot(5).to_json_dict()


@pytest.mark.parametrize("mode", ["fixed", "poisson"])
def test_simulate_output_dash_is_stdout(capsys, tmp_path, monkeypatch, mode):
    monkeypatch.chdir(tmp_path)
    argv = ["simulate", "--theta", "0.6", "--n", "3000", "--seed", "7", "--mode", mode]
    code, out, err = run(capsys, argv + ["--output", "-"])
    assert (code, err) == (0, "") and out.startswith("urn_index,count\n")
    assert list(tmp_path.iterdir()) == []  # no file named '-', and no manifest
    assert run(capsys, argv + ["--output", "counts.csv"]) == (0, "", "")
    assert out.encode() == (tmp_path / "counts.csv").read_bytes()
    # the counts and the snapshot cannot share stdout
    code, out, err = run(capsys, argv + ["--output", "-", "--snapshot", "-"])
    assert (code, out) == (2, "") and err.startswith("zipfest: usage error: ")
    assert err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["counts.csv", "counts.csv.manifest.json"]


@pytest.mark.parametrize("seed, stream", [(2 ** 62, 2 ** 33), (10 ** 40 + 1, 3),
                                          (2 ** 62, 2 ** 64 + 5)])
def test_simulate_takes_seeds_of_any_size(capsys, tmp_path, seed, stream):
    # a master beyond 2^64, and streams below and above 2^64, which are keyed
    # from two blocks of 2^64 streams
    law = make_zipf_law(0.6)
    expected = {"fixed": sample_fixed(law, 2000, SeedSpec(seed, stream)),
                "poisson": sample_poissonized(law, 2000.0, SeedSpec(seed, stream))}
    for mode, counts in expected.items():
        path = tmp_path / f"{mode}.csv"
        code, out, err = run(capsys, ["simulate", "--theta", "0.6", "--n", "2000",
                                      "--mode", mode, "--seed", str(seed),
                                      "--stream", str(stream), "--output", str(path)])
        assert (code, out, err) == (0, "", "")
        assert read_counts_csv(path).counts == counts.counts, mode


@pytest.mark.parametrize("flag", [["--config", "study.cfg"],
                                  ["--variance-tolerance", "0.2"], ["--i0", "5"]])
def test_removed_flags_are_rejected(capsys, flag):
    code, out, err = run(capsys, ["study-normality", "--theta", "0.5", *flag])
    assert (code, out) == (2, "")
    assert err.startswith("zipfest: usage error: unrecognized arguments: ")
    assert flag[0] in err and err.count("\n") == 1


# the valid value of each flag that a subcommand requires
REQUIRED = {"--theta": "0.5", "--input": "x", "--output": "-"}
PROBES = ["nan", "inf", "-inf", "1e400", "-1", "0", "1.5", "9223372036854775808", "abc", ""]


def _subcommands(parser):
    action, = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_every_typed_flag_parses_or_is_one_usage_error_line():
    # the flags come from the parser itself, so a flag added later is probed
    # too; only the parser runs, no command
    parser = cli.build_parser()
    probed = set()
    for command, sub in _subcommands(parser).items():
        required = [a.option_strings[0] for a in sub._actions if a.required]
        assert set(required) <= set(REQUIRED), (command, required)
        for action in sub._actions:
            if action.type is None:
                continue
            flag = action.option_strings[0]
            base = [command]
            for name in required:
                if name != flag:
                    base += [name, REQUIRED[name]]
            probed.add(flag)
            for value in PROBES:
                try:
                    parser.parse_args([*base, flag, value])
                except UsageError as exc:
                    message = str(exc)
                    assert flag in message and "\n" not in message, (command, flag, value)
                else:
                    # no typed flag takes nan: each has a range, or reads ints
                    assert value != "nan", (command, flag)
    assert {"--theta", "--n", "--t", "--workers", "--level", "--nu", "--tau-t"} <= probed


# one small run of each subcommand, that the running probes vary one flag of
RUN_BASES = [
    ["estimate", "--input", "text.txt", "--estimators", "all", "--c-model", "zeta"],
    ["simulate", "--theta", "0.5", "--n", "100", "--output", "counts.csv"],
    ["simulate", "--theta", "0.5", "--n", "100", "--mode", "poisson", "--output", "counts.csv"],
    ["study-normality", "--theta", "0.5", "--n", "200", "--m", "100"],
    ["study-covariance", "--theta", "0.5", "--n", "200", "--m", "100", "--grid", "1.0"],
    ["eval-asymptotics", "--theta", "0.5"],
]
RUN_PROBES = ["0", "-1", str(2 ** 63), str(10 ** 19), str(10 ** 400), "1e308", "nan", "inf"]

# runs each argv of a JSON list on stdin with ``main``, in this one process,
# and writes [exit code, stderr] of each, with a traceback for an exception
# that escapes ``main``
_RUN_CASES = """
import contextlib, io, json, sys, traceback
from zipfest.cli import main
results = []
for argv in json.load(sys.stdin):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except (Exception, SystemExit):
            code = None
            traceback.print_exc()
    results.append([code, err.getvalue()])
json.dump(results, sys.stdout)
"""


def test_every_typed_flag_runs_to_an_exit_code_and_one_line(tmp_path):
    # each numeric flag of the parser at values at and beyond its range, on
    # a small run of its subcommand: the run ends in exit 0, 1 or 2, with one
    # stderr line if not 0 and never a traceback.  All cases share one child
    # under a 2 GiB address space, so a case that would page fails fast;
    # --workers is left out, since a pool starts all its workers at once
    (tmp_path / "text.txt").write_text("the cat sat on the mat and the dog sat on the log\n")
    parser = cli.build_parser()
    subcommands = _subcommands(parser)
    cases = []
    for base in RUN_BASES:
        for action in subcommands[base[0]]._actions:
            flag = action.option_strings[0] if action.option_strings else None
            if action.type is None or flag == "--workers":
                continue
            if flag in base:  # replace the base's own value
                at = base.index(flag)
                cases += [[*base[:at + 1], value, *base[at + 2:]] for value in RUN_PROBES]
            else:
                cases += [[*base, flag, value] for value in RUN_PROBES]
    assert len(cases) > 200
    code, out, err = _main_in_child([], 2 ** 31, tmp_path, script=_RUN_CASES,
                                    stdin=json.dumps(cases))
    assert (code, err) == (0, "")
    results = json.loads(out)
    assert len(results) == len(cases)
    codes = set()
    for argv, (code, err) in zip(cases, results):
        assert code in (0, 1, 2) and "Traceback" not in err, (argv, code, err)
        assert code == 0 or err.count("\n") == 1, (argv, code, err)
        codes.add(code)
    assert {0, 2} <= codes


@pytest.mark.parametrize("argv", [
    ["estimate"],
    ["simulate", "--theta", "abc", "--output", "{tmp}/counts.csv"],
    ["study-normality", "--theta", "0.5", "--format", "xml"],
    ["eval-asymptotics", "--theta", "0.5,nan"],
    ["eval-asymptotics", "--theta", "0.5", "--no-such-flag"],
])
def test_parser_errors_are_one_usage_error_line(capsys, tmp_path, argv):
    code, out, err = run(capsys, [a.replace("{tmp}", str(tmp_path)) for a in argv])
    assert (code, out) == (2, "")
    assert err.startswith("zipfest: usage error: ") and err.count("\n") == 1
    assert "usage:" not in err
    assert not any(tmp_path.iterdir())
