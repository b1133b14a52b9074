"""Command-line interface.

Subcommands:

    estimate          exponent estimates (with CIs) from a text or counts file
    simulate          draw an occupancy sample from a zeta law
    study-normality   Monte Carlo check of the estimators' normal limits
    study-covariance  Monte Carlo check of the limiting covariance function
    eval-asymptotics  tabulate limiting variances and covariance values

All numeric output is printed with 10 significant digits so runs with the
same seed are byte-identical; timestamps appear only in the sidecar
manifest written next to each output file.  Only a file output writes a
manifest, so only it loads ``hashlib`` (and with it OpenSSL).

``estimate`` computes every requested row in one call of
``estimators.estimate_rows``, given the c(theta) of ``--c-model`` (a
``const:<v>`` is a constant function), with one joined solve for all
implicit rows.  A row without a value (no root of g, no urns for its
statistic, or n < 2) has null estimate, stderr and interval and one flag
naming the reason, "no-root" or "insufficient-data"; it is not a failed
run.  A requested k above the input's n is a usage error, and so is a
``simulate --k-max`` above both the sample size and its default.  Each
numeric flag's range sits on its declaration, as its argparse ``type``, and
every parser error is one ``zipfest: usage error:`` line, with no usage block.

Exit codes: 0 success, 1 runtime failure (running out of memory too), 2 usage
error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import warnings
from datetime import datetime, timezone

from . import __version__
from .errors import UsageError, ZipfestError
from .estimators import ESTIMATORS, estimate_rows, expand_estimators, snapshot_k_max
from .ingest import counts_csv, load_counts, read_counts_csv, to_occupancy, tokenize_file
from .law import make_zipf_law, zeta_normalization
from .montecarlo import (NORMALITY_ESTIMATORS, USABLE_CPUS, ExperimentConfig,
                         covariance_study, normality_study)
from .occupancy import DEFAULT_K_MAX
from .sampler import SeedSpec, sample_fixed, sample_poissonized
from . import asymptotics


# ----------------------------------------------------------------------
# deterministic numeric formatting
# ----------------------------------------------------------------------

def _fmt(value: float) -> str | None:
    """10-significant-digit literal of a float; None for NaN and +-inf, which
    are written as a missing value is."""
    return f"{value:.10g}" if math.isfinite(value) else None


def _json_write(obj, indent=0) -> str:
    pad = "  " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        return _fmt(obj) or "null"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ",\n".join("  " * (indent + 1) + _json_write(v, indent + 1) for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key in sorted(obj):
            items.append("  " * (indent + 1) + json.dumps(str(key)) + ": "
                         + _json_write(obj[key], indent + 1))
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _emit(text: str, path: str | None) -> None:
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return _fmt(value) or ""
    return "" if value is None else str(value)


def _csv_text(fieldnames, rows) -> str:
    lines = [",".join(fieldnames)]
    lines += [",".join(_csv_cell(row[name]) for name in fieldnames) for row in rows]
    return "\n".join(lines) + "\n"


def _emit_result(args, payload, rows, fields, config, inputs=()) -> int:
    """Write ``payload`` (JSON) or ``rows`` (CSV) per ``--format``, then the manifest."""
    if args.format == "json":
        _emit(_json_write(payload) + "\n", args.output)
    else:
        _emit(_csv_text(fields, rows), args.output)
    _write_manifest(args.output, args.command, config, inputs=inputs)
    return 0


def _sha256_file(path) -> str:
    import hashlib
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _write_manifest(output_path, command: str, config: dict, inputs=()) -> None:
    if output_path in (None, "-"):
        return
    import hashlib  # here, not at the top: an output to stdout loads no OpenSSL
    manifest = {
        "command": command,
        "config": config,
        "config_hash": hashlib.sha256(
            json.dumps(config, sort_keys=True, default=str).encode()).hexdigest(),
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "inputs": {str(p): _sha256_file(p) for p in inputs},
        "package": f"zipfest {__version__}",
    }
    with open(str(output_path) + ".manifest.json", "w", encoding="utf-8") as fh:
        fh.write(_json_write(manifest) + "\n")


# ----------------------------------------------------------------------
# shared argument plumbing
# ----------------------------------------------------------------------

def _parse_estimators(spec: str) -> list[str]:
    tags = [t.strip() for t in spec.split(",") if t.strip()]
    if not tags:
        raise UsageError("empty estimator list")
    if tags == ["all"]:
        return list(ESTIMATORS)
    return tags


def _parse_float(text: str, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise UsageError(f"bad {what} {text!r}: not a number") from None


def _ranged(kind, ok, rule: str):
    """An argparse ``type``: the flag's text read as ``kind``, refused unless ``ok``."""
    def convert(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must {rule}, got {text!r}")
        return value
    return convert


_unit = _ranged(float, lambda v: 0.0 < v < 1.0, "lie in (0, 1)")
_time = _ranged(float, lambda v: 0.0 < v <= 1.0, "lie in (0, 1]")
_non_negative = _ranged(int, lambda v: v >= 0, "be >= 0")
_positive = _ranged(int, lambda v: v >= 1, "be >= 1")
# the covariance components a snapshot tracks; cov overflows far beyond them
_nu = _ranged(int, lambda v: 1 <= v <= DEFAULT_K_MAX, f"lie in 1..{DEFAULT_K_MAX}")
_tail_epsilon = _ranged(float, lambda v: 0.0 < v <= 1e-6, "lie in (0, 1e-6]")
# numpy's multinomial and Poisson draws refuse a count above about 9.2e18
_ball_count = _ranged(int, lambda v: 1 <= v <= 9.2e18, "lie in [1, 9.2e18]")
_horizon = _ranged(float, lambda v: 0.0 < v <= 9.2e18, "lie in (0, 9.2e18]")
_workers = _ranged(int, lambda v: 1 <= v <= USABLE_CPUS,
                   f"lie in [1, {USABLE_CPUS}], the usable CPU count")
_finite_positive = _ranged(float, lambda v: 0.0 < v < math.inf, "be finite and positive")


def _tau_t(text: str) -> list[float]:
    """An argparse ``type``: one tau:t pair of finite positive times."""
    tau, colon, t = text.partition(":")
    if not colon:
        raise argparse.ArgumentTypeError(f"must be tau:t pairs, got {text!r}")
    return [_finite_positive(tau), _finite_positive(t)]


def _list_of(convert):
    """An argparse ``type``: a non-empty comma list, each value read by ``convert``."""
    def convert_list(spec: str) -> list:
        values = [convert(t) for t in spec.split(",") if t.strip()]
        if not values:
            raise argparse.ArgumentTypeError(f"must hold at least one value, got {spec!r}")
        return values
    return convert_list


# no exact count k can exceed the ball limit
_k_list = _list_of(_ball_count)


def _build_c_model(spec: str | None):
    if spec is None:
        return None
    if spec == "zeta":
        return zeta_normalization
    if spec.startswith("const:"):
        value = _parse_float(spec.split(":", 1)[1], "const c model value")
        if not (math.isfinite(value) and value > 0):
            raise UsageError(f"const c model must be finite and positive, got {value!r}")
        return lambda theta: value
    raise UsageError(f"unknown c model {spec!r}; use 'zeta' or 'const:<value>'")


# ----------------------------------------------------------------------
# estimate
# ----------------------------------------------------------------------

# --input-format -> the reader of that format
_READERS = {"text": tokenize_file, "tokens": load_counts, "occupancy": read_counts_csv}


def _cmd_estimate(args) -> int:
    requested = expand_estimators(_parse_estimators(args.estimators), args.k)
    c_model = _build_c_model(args.c_model)
    if any(ESTIMATORS[tag].solver_kind for _, tag, _ in requested) and c_model is None:
        raise UsageError("implicit estimators need a known normalization: pass --c-model")
    occupancy = to_occupancy(_READERS[args.input_format](args.input))
    n = int(occupancy.total)
    snapshot = occupancy.snapshot(k_max=snapshot_k_max(requested, n))
    results = estimate_rows(snapshot, requested, args.level, c_model)
    payload = {"n": n, "estimates": [r.to_json_dict() for r in results]}
    rows = [{**r.to_json_dict(), "flags": ";".join(r.flags)} for r in results]
    return _emit_result(args, payload, rows, list(rows[0]), _echo_args(args),
                        inputs=[args.input])


# ----------------------------------------------------------------------
# simulate
# ----------------------------------------------------------------------

def _cmd_simulate(args) -> int:
    if args.output == "-" and args.snapshot == "-":
        raise UsageError("--output and --snapshot cannot both be '-' (stdout)")
    # the horizon defaults to --n, which the n rule keeps within the t rule
    horizon = args.t if args.t is not None else float(args.n)
    size = args.n if args.mode == "fixed" else math.ceil(horizon)
    if args.k_max > max(size, DEFAULT_K_MAX):
        # R_k = 0 above the sample size, and a tally up to k_max would take
        # memory in proportion to it
        raise UsageError(f"--k-max {args.k_max} exceeds the sample size {size}")
    law = make_zipf_law(args.theta, i0=args.i0, tail_epsilon=args.tail_epsilon)
    # before any draw, by the rule of a draw that maps its urns to counts
    law.head_width(size, name="--n" if args.mode == "fixed" else "--t", urn_map=True)
    seed = SeedSpec(args.seed, args.stream)
    if args.mode == "fixed":
        counts = sample_fixed(law, args.n, seed)
    else:
        counts = sample_poissonized(law, horizon, seed)
    _emit(counts_csv(counts), args.output)
    if args.snapshot:
        snap = counts.snapshot(k_max=args.k_max)
        _emit(_json_write(snap.to_json_dict()) + "\n", args.snapshot)
    _write_manifest(args.output, "simulate", _echo_args(args))
    return 0


# ----------------------------------------------------------------------
# studies
# ----------------------------------------------------------------------

def _study_config(args, **study_flags) -> ExperimentConfig:
    return ExperimentConfig(theta=args.theta, n=args.n, m=args.m, seed=args.seed,
                            tail_epsilon=args.tail_epsilon, workers=args.workers,
                            **study_flags)


def _emit_study(args, report) -> int:
    """Write a ``StudyReport`` per ``--format``: JSON as its ``to_json_dict``,
    CSV with one column per field of its row type, in field order."""
    payload = report.to_json_dict()
    columns = [f.name for f in dataclasses.fields(report.rows[0])]
    return _emit_result(args, payload, payload["rows"], columns, report.config)


def _cmd_study_normality(args) -> int:
    return _emit_study(args, normality_study(_study_config(
        args, estimators=tuple(_parse_estimators(args.estimators)),
        k_values=tuple(args.k), level=args.level)))


def _cmd_study_covariance(args) -> int:
    return _emit_study(args, covariance_study(_study_config(
        args, grid=tuple(args.grid), nu=args.nu)))


# ----------------------------------------------------------------------
# eval-asymptotics
# ----------------------------------------------------------------------

def _cmd_eval_asymptotics(args) -> int:
    fields = ["kind", "theta", "k", "i", "j", "tau", "t", "value"]
    rows = []

    def add(kind, theta, value, k=None, i=None, j=None, tau=None, t=None):
        rows.append(dict(zip(fields, (kind, theta, k, i, j, tau, t, value))))

    for theta in args.theta:
        add("ratio-r1-variance", theta, asymptotics.ratio_r1_variance(theta))
        for k in args.k:
            add("ratio-k-variance", theta, asymptotics.ratio_k_variance(theta, k), k=k)
        for which in ("r", "u"):
            add(f"implicit-variance-{which}", theta,
                asymptotics.implicit_variance(theta, which))
        for k in args.k:
            add("implicit-variance-rk", theta,
                asymptotics.implicit_variance(theta, "rk", k), k=k)
        if args.tau_t:
            spec = asymptotics.CovarianceSpec(theta, nu=args.nu)
            for i in range(args.nu + 1):
                for j in range(args.nu + 1):
                    for tau, t in args.tau_t:
                        add("cov", theta, spec.cov(i, j, tau, t), i=i, j=j, tau=tau, t=t)
    return _emit_result(args, rows, rows, fields, _echo_args(args))


def _echo_args(args) -> dict:
    return {k: v for k, v in sorted(vars(args).items())
            if k != "func" and not k.startswith("_")}


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """A parser whose every error is a ``UsageError``: one line and exit 2."""

    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="zipfest",
        description="Estimate power-law exponents from occupancy statistics "
                    "and verify the estimators' limit theorems by simulation.")
    parser.add_argument("--version", action="version", version=f"zipfest {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    def add_common_law(p):
        p.add_argument("--theta", type=_unit, required=True,
                       help="power-law exponent in (0,1) (dimensionless)")
        p.add_argument("--tail-epsilon", type=_tail_epsilon, default=1e-12,
                       help="probability mass allowed beyond the support cutoff")

    p = sub.add_parser("estimate", formatter_class=fmt,
                       help="estimate the exponent from a text or counts file")
    p.add_argument("--input", required=True, help="input file path")
    p.add_argument("--input-format", choices=tuple(_READERS),
                   default="text",
                   help="text: raw UTF-8; tokens: token,count CSV; "
                        "occupancy: urn_index,count CSV")
    p.add_argument("--estimators", default="ratio-r1,ratio-k,log-ratio",
                   help="comma list or 'all' "
                        f"(choices: {', '.join(ESTIMATORS)})")
    p.add_argument("--k", type=_k_list, default="1", help="comma list of k values (ball counts)")
    p.add_argument("--c-model", default=None,
                   help="normalization c(theta) for implicit estimators: "
                        "'zeta' or 'const:<value>'")
    p.add_argument("--level", type=_unit, default=0.95,
                   help="confidence level in (0,1)")
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="output format")
    p.add_argument("--output", default="-", help="output path ('-' = stdout)")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("simulate", formatter_class=fmt,
                       help="draw an occupancy sample from a zeta law")
    add_common_law(p)
    p.add_argument("--i0", type=_non_negative, default=0,
                   help="index shift of the zeta law (urns)")
    p.add_argument("--n", type=_ball_count, default=10000, help="number of balls")
    p.add_argument("--t", type=_horizon, default=None,
                   help="poissonized horizon (balls; defaults to --n)")
    p.add_argument("--mode", choices=("fixed", "poisson"), default="fixed",
                   help="fixed ball count or poissonized horizon")
    p.add_argument("--seed", type=_non_negative, default=0,
                   help="master seed, a non-negative integer of any size")
    p.add_argument("--stream", type=_non_negative, default=0,
                   help="stream index, a non-negative integer of any size")
    p.add_argument("--k-max", type=_positive, default=DEFAULT_K_MAX,
                   help="largest exact count tracked in the snapshot, at most the "
                        "sample size (--n, or --t rounded up) or the default")
    p.add_argument("--output", required=True, help="counts CSV path ('-' = stdout)")
    p.add_argument("--snapshot", default=None,
                   help="optional JSON snapshot path ('-' = stdout)")
    p.set_defaults(func=_cmd_simulate)

    def add_study_common(p):
        add_common_law(p)
        p.add_argument("--n", type=_ball_count, default=100000, help="balls per replication")
        p.add_argument("--m", type=int, default=2000, help="replications (>= 100)")
        p.add_argument("--seed", type=_non_negative, default=0,
                       help="master seed, a non-negative integer of any size")
        p.add_argument("--workers", type=_workers, default=1,
                       help="parallel worker processes")
        p.add_argument("--format", choices=("json", "csv"), default="json",
                       help="output format")
        p.add_argument("--output", default="-", help="output path ('-' = stdout)")

    p = sub.add_parser("study-normality", formatter_class=fmt,
                       help="Monte Carlo normality/variance check of the estimators")
    add_study_common(p)
    p.add_argument("--estimators", default=",".join(NORMALITY_ESTIMATORS),
                   help="comma list (log-ratio not allowed here)")
    p.add_argument("--k", type=_k_list, default="1", help="comma list of k values")
    p.add_argument("--level", type=_unit, default=0.95, help="CI level in (0,1)")
    p.set_defaults(func=_cmd_study_normality)

    p = sub.add_parser("study-covariance", formatter_class=fmt,
                       help="Monte Carlo check of the limiting covariance function")
    add_study_common(p)
    p.add_argument("--grid", type=_list_of(_time), default="0.5,1.0",
                   help="comma list of times in (0,1], strictly increasing")
    p.add_argument("--nu", type=_nu, default=1,
                   help="number of exact-count components (indices 1..nu)")
    p.set_defaults(func=_cmd_study_covariance)

    p = sub.add_parser("eval-asymptotics", formatter_class=fmt,
                       help="tabulate limiting variances and covariance values")
    p.add_argument("--theta", type=_list_of(_unit), required=True,
                   help="comma list of exponents in (0,1)")
    p.add_argument("--k", type=_k_list, default="1,2,3", help="comma list of k values")
    p.add_argument("--tau-t", type=_list_of(_tau_t), default=None,
                   help="comma list of tau:t pairs for covariance rows "
                        "(e.g. '0.5:1.0,1.0:1.0')")
    p.add_argument("--nu", type=_nu, default=1,
                   help="covariance components 0..nu")
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="output format")
    p.add_argument("--output", default="-", help="output path ('-' = stdout)")
    p.set_defaults(func=_cmd_eval_asymptotics)

    return parser


def main(argv=None) -> int:
    try:
        with warnings.catch_warnings():
            # one line, without the source line that the default prints
            warnings.showwarning = lambda message, *_: print(f"zipfest: warning: {message}",
                                                             file=sys.stderr)
            args = build_parser().parse_args(argv)
            return args.func(args)
    except UsageError as exc:
        print(f"zipfest: usage error: {exc}", file=sys.stderr)
        return 2
    except ZipfestError as exc:
        print(f"zipfest: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"zipfest: i/o error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # an allocation beyond what the memory rules foresee
        print(f"zipfest: error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
