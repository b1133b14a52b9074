import json

import numpy as np
import pytest

from zipfest.cli import main

ALL_ESTIMATES = ["implicit-r", "implicit-u", "implicit-rk(1)", "implicit-rk(2)",
                 "ratio-r1", "ratio-k(1)", "ratio-k(2)", "log-ratio"]
DIGITS_AS_LETTERS = str.maketrans("0123456789", "abcdefghij")


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """20 000 tokens with Zipf-like frequencies (exponent 0.6) over 5 000 words;
    returns the file path and the count of each word."""
    rng = np.random.Generator(np.random.PCG64(2024))
    weights = np.arange(1, 5001, dtype=float) ** (-1.0 / 0.6)
    ranks = rng.choice(weights.size, size=20_000, p=weights / weights.sum())
    path = tmp_path_factory.mktemp("cli") / "corpus.txt"
    # tokens are runs of letters, so spell each rank's digits as letters
    words = [str(r).translate(DIGITS_AS_LETTERS) for r in ranks]
    lines = [" ".join(words[i:i + 20]) for i in range(0, len(words), 20)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path, np.bincount(ranks)


def run(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


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


@pytest.mark.parametrize("argv", [
    # the cutoff of theta = 0.97 exceeds the float64 range, so it cannot be sampled
    ["simulate", "--theta", "0.97", "--n", "100"],
    # R_8 = 0 in about half of the replications at n = 2000
    ["study-normality", "--theta", "0.5", "--n", "2000", "--m", "100", "--k", "8",
     "--estimators", "ratio-k"],
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


@pytest.mark.parametrize("flag", [["--config", "study.cfg"],
                                  ["--variance-tolerance", "0.2"]])
def test_removed_flags_are_rejected(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["study-normality", "--theta", "0.5", *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
