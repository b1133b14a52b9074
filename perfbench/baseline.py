"""Run every workload over several seeds and summarise each metric.

    python3 perfbench/baseline.py --runs 10 --first-seed 1 [--write]

It runs every workload of BENCHMARK.json untraced on each seed, and traced
on the first seed.  For each end-to-end metric it prints the median of the
runs and the spread, the distance between the first and third quartile as a
share of the median, next to the bound that BENCHMARK.json fixes.
``--write`` stores the runs and the summary in perfbench/baseline.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """-> (environment header, result line) of one run of run.py; the result
    also gets the wall time of each call, the unscaled medians and the
    elapsed time of the whole run."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed "
                         f"({proc.returncode}):\n{proc.stderr}")
    walls = next(line for line in lines if line.startswith("calls ")).split("call walls ")[1]
    result = json.loads(lines[-1])
    result["elapsed_s"] = time.perf_counter() - start
    result["call_walls"] = [float(w) for w in walls.split()]
    unscaled = [line.split() for line in lines if line.startswith("unscaled medians:")]
    if unscaled:
        result["unscaled"] = {"wall_s": float(unscaled[0][3]), "setup_s": float(unscaled[0][6])}
    return json.loads(lines[0][2:]), result


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="untraced runs per workload")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--write", action="store_true", help="write perfbench/baseline.json")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    seeds = range(args.first_seed, args.first_seed + args.runs)
    out = {"run_seconds": spec["run_seconds"], "seeds": list(seeds), "workloads": {}}
    for name in names:
        runs = []
        for seed in seeds:
            env, result = run_once(name, seed, spec["run_seconds"], 0)
            runs.append(result)
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()), flush=True)
        traced = run_once(name, seeds[0], spec["run_seconds"], 1)[1]
        end_to_end = {k: summarise([r["metrics"][k]["value"] for r in runs]) for k in bounds}
        unscaled = {k: summarise([r["unscaled"][k] for r in runs]) for k in ("wall_s", "setup_s")}
        for metric, s in unscaled.items():
            print(f"  {name} unscaled {metric}: median {s['median']:.6g}, spread "
                  f"{s.get('spread', float('nan')):.4f}")
        for metric, s in end_to_end.items():
            spread = s.get("spread", 0.0)
            verdict = ("" if metric == "setup_s"
                       else "OVER THE BOUND" if spread > bounds[metric]
                       else "within a third of the bound" if spread <= bounds[metric] / 3
                       else "within the bound")
            print(f"  {name} {metric}: median {s['median']:.6g}, spread "
                  f"{s.get('spread', float('nan')):.4f} (bound {bounds[metric]}) {verdict}")
        out["environment"] = {k: env[k] for k in ("python", "numpy", "nproc", "cpu")}
        out["workloads"][name] = {
            "end_to_end": end_to_end,
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
            "unscaled": unscaled,
            "runs": [{"seed": seed, "elapsed_s": r["elapsed_s"], "call_walls": r["call_walls"],
                      "unscaled": r["unscaled"],
                      **{k: m["value"] for k, m in r["metrics"].items()}}
                     for seed, r in zip(seeds, runs)],
            "all_correct": all(r["correct"] for r in runs + [traced]),
        }
    if args.write:
        (HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
