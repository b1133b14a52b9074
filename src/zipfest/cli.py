"""Command-line interface.

Subcommands:

    estimate          exponent estimates (with CIs) from a text or counts file
    simulate          draw an occupancy sample from a zeta law
    study-normality   Monte Carlo check of the estimators' normal limits
    study-covariance  Monte Carlo check of the limiting covariance function
    eval-asymptotics  tabulate limiting variances and covariance values

All numeric output is printed with 10 significant digits so runs with the
same seed are byte-identical; timestamps appear only in the sidecar
manifest written next to each output file.

Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from datetime import datetime, timezone

from . import __version__
from .errors import AmbiguousRootError, UsageError, ZipfestError
from .estimators import (ESTIMATORS, expand_estimators, log_ratio_estimate,
                         snapshot_k_max)
from .ingest import load_counts, to_occupancy, tokenize_file
from .law import make_zipf_law, zeta_normalization
from .montecarlo import (NORMALITY_ESTIMATORS, ExperimentConfig,
                         covariance_study, normality_study)
from .occupancy import DEFAULT_K_MAX
from .sampler import (SeedSpec, read_counts_csv, sample_fixed,
                      sample_poissonized, write_counts_csv)
from . import asymptotics


# ----------------------------------------------------------------------
# deterministic numeric formatting
# ----------------------------------------------------------------------

def _fmt(value: float) -> str:
    """10-significant-digit literal of a float."""
    if value != value:
        return "NaN"
    return f"{value:.10g}"


def _json_write(obj, indent=0) -> str:
    pad = "  " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        return _fmt(obj)
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
        return _fmt(value)
    return "" if value is None else str(value)


def _csv_text(fieldnames, rows) -> str:
    lines = [",".join(fieldnames)]
    lines += [",".join(_csv_cell(row.get(name, "")) for name in fieldnames) for row in rows]
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
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _write_manifest(output_path, command: str, config: dict, inputs=()) -> None:
    if output_path in (None, "-"):
        return
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


def _parse_k_list(spec: str) -> list[int]:
    try:
        ks = [int(t) for t in spec.split(",") if t.strip()]
    except ValueError as exc:
        raise UsageError(f"bad k list {spec!r}: {exc}")
    if not ks or any(k < 1 for k in ks):
        raise UsageError(f"k list must contain positive integers, got {spec!r}")
    return ks


def _parse_float(text: str, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise UsageError(f"bad {what} {text!r}: not a number") from None


def _parse_floats(spec: str, what: str) -> tuple[float, ...]:
    return tuple(_parse_float(t, what) for t in spec.split(",") if t.strip())


def _check_theta(theta: float) -> float:
    if not 0.0 < theta < 1.0:
        raise UsageError(f"theta must lie in (0, 1), got {theta!r}")
    return theta


def _build_c_model(spec: str | None):
    if spec is None:
        return None
    if spec == "zeta":
        return zeta_normalization
    if spec.startswith("const:"):
        value = _parse_float(spec.split(":", 1)[1], "const c model value")
        if value <= 0:
            raise UsageError("const c model must be positive")
        return lambda theta: value
    raise UsageError(f"unknown c model {spec!r}; use 'zeta' or 'const:<value>'")


# ----------------------------------------------------------------------
# estimate
# ----------------------------------------------------------------------

def _cmd_estimate(args) -> int:
    requested = expand_estimators(_parse_estimators(args.estimators),
                                  _parse_k_list(args.k))
    c_model = _build_c_model(args.c_model)
    if any(ESTIMATORS[tag].solver_kind for _, tag, _ in requested) and c_model is None:
        raise UsageError("implicit estimators need a known normalization: pass --c-model")
    if args.input_format == "text":
        corpus = tokenize_file(args.input)
        occupancy = to_occupancy(corpus)
    elif args.input_format == "tokens":
        occupancy = to_occupancy(load_counts(args.input))
    elif args.input_format == "occupancy":
        occupancy = read_counts_csv(args.input)
    else:
        raise UsageError(f"unknown input format {args.input_format!r}")

    snapshot = occupancy.snapshot(k_max=snapshot_k_max(requested))
    n = int(occupancy.total)

    results = []
    baseline = None
    for _, tag, k in requested:
        spec = ESTIMATORS[tag]
        solver = spec.solver(n, c_model, k)
        try:
            results.append(spec.estimate(snapshot, k, args.level, solver))
        except AmbiguousRootError as exc:
            # several roots: take the one nearest the log-ratio baseline
            if baseline is None:
                baseline = log_ratio_estimate(snapshot).theta_hat
            root = min(exc.roots, key=lambda r: abs(r - baseline))
            results.append(solver.result_for_root(root, exc.target, level=args.level))

    payload = {"n": n, "estimates": [r.to_json_dict() for r in results]}
    rows = [{**r.to_json_dict(), "flags": ";".join(r.flags)} for r in results]
    return _emit_result(args, payload, rows, ["estimator", "theta_hat", "stderr", "ci_lo",
                                              "ci_hi", "level", "flags"],
                        _echo_args(args), inputs=[args.input])


# ----------------------------------------------------------------------
# simulate
# ----------------------------------------------------------------------

def _cmd_simulate(args) -> int:
    law = make_zipf_law(_check_theta(args.theta), i0=args.i0,
                        tail_epsilon=args.tail_epsilon)
    seed = SeedSpec(args.seed, args.stream)
    if args.mode == "fixed":
        if args.n < 1:
            raise UsageError("--n must be >= 1 for fixed mode")
        counts = sample_fixed(law, args.n, seed)
    else:
        horizon = args.t if args.t is not None else float(args.n)
        counts = sample_poissonized(law, horizon, seed)
    write_counts_csv(counts, args.output)
    if args.snapshot:
        snap = counts.snapshot(k_max=args.k_max)
        _emit(_json_write(snap.to_json_dict()) + "\n", args.snapshot)
    _write_manifest(args.output, "simulate", _echo_args(args))
    return 0


# ----------------------------------------------------------------------
# studies
# ----------------------------------------------------------------------

def _study_config(args, estimators=NORMALITY_ESTIMATORS) -> ExperimentConfig:
    return ExperimentConfig(
        theta=_check_theta(args.theta), n=args.n, m=args.m, i0=args.i0,
        estimators=tuple(estimators),
        k_values=tuple(_parse_k_list(args.k)) if hasattr(args, "k") else (1,),
        grid=_parse_floats(args.grid, "grid value") if hasattr(args, "grid") else (0.5, 1.0),
        nu=getattr(args, "nu", 1), seed=args.seed, level=getattr(args, "level", 0.95),
        tail_epsilon=args.tail_epsilon,
        workers=args.workers)


def _emit_study(args, report, fields) -> int:
    return _emit_result(args, report.to_json_dict(),
                        [r.to_json_dict() for r in report.rows], fields, report.config)


def _cmd_study_normality(args) -> int:
    config = _study_config(args, estimators=_parse_estimators(args.estimators))
    return _emit_study(args, normality_study(config), [
        "estimator", "m_included", "m_excluded", "mean", "variance", "skewness",
        "excess_kurtosis", "ks_distance", "ks_pvalue", "target_variance",
        "variance_ratio", "coverage"])


def _cmd_study_covariance(args) -> int:
    return _emit_study(args, covariance_study(_study_config(args)), [
        "i", "j", "tau", "t", "empirical", "theoretical", "std_error", "z_score"])


# ----------------------------------------------------------------------
# eval-asymptotics
# ----------------------------------------------------------------------

def _parse_tau_t(spec: str) -> list[tuple[float, float]]:
    pairs = []
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" not in chunk:
            raise UsageError(f"bad tau:t pair {chunk!r}")
        tau, _, t = chunk.partition(":")
        pairs.append((_parse_float(tau, "tau"), _parse_float(t, "t")))
    return pairs


def _cmd_eval_asymptotics(args) -> int:
    thetas = [_check_theta(t) for t in _parse_floats(args.theta, "theta")]
    k_values = _parse_k_list(args.k)
    pairs = _parse_tau_t(args.tau_t) if args.tau_t else []
    fields = ["kind", "theta", "k", "i", "j", "tau", "t", "value"]
    rows = []

    def add(kind, theta, value, k=None, i=None, j=None, tau=None, t=None):
        rows.append(dict(zip(fields, (kind, theta, k, i, j, tau, t, value))))

    for theta in thetas:
        add("ratio-r1-variance", theta, asymptotics.ratio_r1_variance(theta))
        for k in k_values:
            add("ratio-k-variance", theta, asymptotics.ratio_k_variance(theta, k), k=k)
        for which in ("r", "u"):
            add(f"implicit-variance-{which}", theta,
                asymptotics.implicit_variance(theta, which))
        for k in k_values:
            add("implicit-variance-rk", theta,
                asymptotics.implicit_variance(theta, "rk", k), k=k)
        if pairs:
            spec = asymptotics.CovarianceSpec(theta, nu=args.nu)
            for i in range(args.nu + 1):
                for j in range(args.nu + 1):
                    for tau, t in pairs:
                        add("cov", theta, spec.cov(i, j, tau, t), i=i, j=j, tau=tau, t=t)
    return _emit_result(args, rows, rows, fields, _echo_args(args))


def _echo_args(args) -> dict:
    return {k: v for k, v in sorted(vars(args).items())
            if k != "func" and not k.startswith("_")}


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zipfest",
        description="Estimate power-law exponents from occupancy statistics "
                    "and verify the estimators' limit theorems by simulation.")
    parser.add_argument("--version", action="version", version=f"zipfest {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    def add_common_law(p):
        p.add_argument("--theta", type=float, required=True,
                       help="power-law exponent in (0,1) (dimensionless)")
        p.add_argument("--i0", type=int, default=0,
                       help="index shift of the zeta law (urns)")
        p.add_argument("--tail-epsilon", type=float, default=1e-12,
                       help="probability mass allowed beyond the support cutoff")

    p = sub.add_parser("estimate", formatter_class=fmt,
                       help="estimate the exponent from a text or counts file")
    p.add_argument("--input", required=True, help="input file path")
    p.add_argument("--input-format", choices=("text", "tokens", "occupancy"),
                   default="text",
                   help="text: raw UTF-8; tokens: token,count CSV; "
                        "occupancy: urn_index,count CSV")
    p.add_argument("--estimators", default="ratio-r1,ratio-k,log-ratio",
                   help="comma list or 'all' "
                        f"(choices: {', '.join(ESTIMATORS)})")
    p.add_argument("--k", default="1", help="comma list of k values (ball counts)")
    p.add_argument("--c-model", default=None,
                   help="normalization c(theta) for implicit estimators: "
                        "'zeta' or 'const:<value>'")
    p.add_argument("--level", type=float, default=0.95,
                   help="confidence level in (0,1)")
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="output format")
    p.add_argument("--output", default="-", help="output path ('-' = stdout)")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("simulate", formatter_class=fmt,
                       help="draw an occupancy sample from a zeta law")
    add_common_law(p)
    p.add_argument("--n", type=int, default=10000, help="number of balls")
    p.add_argument("--t", type=float, default=None,
                   help="poissonized horizon (balls; defaults to --n)")
    p.add_argument("--mode", choices=("fixed", "poisson"), default="fixed",
                   help="fixed ball count or poissonized horizon")
    p.add_argument("--seed", type=int, default=0, help="master seed (64-bit)")
    p.add_argument("--stream", type=int, default=0, help="stream index")
    p.add_argument("--k-max", type=int, default=DEFAULT_K_MAX,
                   help="largest exact count tracked in the snapshot")
    p.add_argument("--output", required=True, help="counts CSV path")
    p.add_argument("--snapshot", default=None,
                   help="optional JSON snapshot path")
    p.set_defaults(func=_cmd_simulate)

    def add_study_common(p):
        add_common_law(p)
        p.add_argument("--n", type=int, default=100000, help="balls per replication")
        p.add_argument("--m", type=int, default=2000, help="replications (>= 100)")
        p.add_argument("--seed", type=int, default=0, help="master seed (64-bit)")
        p.add_argument("--workers", type=int, default=1,
                       help="parallel worker processes")
        p.add_argument("--format", choices=("json", "csv"), default="json",
                       help="output format")
        p.add_argument("--output", default="-", help="output path ('-' = stdout)")

    p = sub.add_parser("study-normality", formatter_class=fmt,
                       help="Monte Carlo normality/variance check of the estimators")
    add_study_common(p)
    p.add_argument("--estimators", default=",".join(NORMALITY_ESTIMATORS),
                   help="comma list (log-ratio not allowed here)")
    p.add_argument("--k", default="1", help="comma list of k values")
    p.add_argument("--level", type=float, default=0.95, help="CI level in (0,1)")
    p.set_defaults(func=_cmd_study_normality)

    p = sub.add_parser("study-covariance", formatter_class=fmt,
                       help="Monte Carlo check of the limiting covariance function")
    add_study_common(p)
    p.add_argument("--grid", default="0.5,1.0",
                   help="comma list of times in (0,1], strictly increasing")
    p.add_argument("--nu", type=int, default=1,
                   help="number of exact-count components (indices 1..nu)")
    p.set_defaults(func=_cmd_study_covariance)

    p = sub.add_parser("eval-asymptotics", formatter_class=fmt,
                       help="tabulate limiting variances and covariance values")
    p.add_argument("--theta", required=True,
                   help="comma list of exponents in (0,1)")
    p.add_argument("--k", default="1,2,3", help="comma list of k values")
    p.add_argument("--tau-t", default="",
                   help="comma list of tau:t pairs for covariance rows "
                        "(e.g. '0.5:1.0,1.0:1.0')")
    p.add_argument("--nu", type=int, default=1,
                   help="covariance components 0..nu")
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="output format")
    p.add_argument("--output", default="-", help="output path ('-' = stdout)")
    p.set_defaults(func=_cmd_eval_asymptotics)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
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


if __name__ == "__main__":
    sys.exit(main())
