"""Fixed-seed benchmark of zipfest: four workloads, each a closed loop with
one caller in one process.

    python3 perfbench/run.py --workload normality-z05 --seed 1 --seconds 18 --trace 0

With ``--trace 0`` it times the workload's entry point and prints the
end-to-end metrics; with ``--trace 1`` it alternates untraced calls with a
traced replay (see replay.py) and prints the per-layer metrics.  Every run
checks the outputs; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every check passed.  ``--smoke`` runs at tiny sizes.

``wall_s`` and ``setup_s`` are scaled to a reference machine speed by a
calibration loop timed around each call (see ``Gauge`` and README.md).
``peak_rss_mb`` comes from one more call in a fresh process (rss_probe.py)
with huge pages off and glibc's mmap threshold pinned, so that it does not
depend on how the kernel and the allocator happen to place large arrays.

The package is imported from ``src/`` of the checkout that holds this file;
without it the run fails before printing a result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import sys
import tempfile
import subprocess
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
MIN_CALLS = 3

# name -> unit; the end_to_end list of BENCHMARK.json
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
# Environment of the memory probe: numpy asks for no transparent huge pages,
# and glibc's mmap threshold is pinned at its initial 128 KiB, which turns
# off its dynamic threshold.
PROBE_ENV = {"NUMPY_MADVISE_HUGEPAGE": "0", "MALLOC_MMAP_THRESHOLD_": str(128 * 1024)}


def import_program():
    """Put the checkout's ``src/`` first on the path and import zipfest from it."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import zipfest
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import zipfest from {src}: {exc}")
    if Path(zipfest.__file__).resolve().parent != src / "zipfest":
        raise SystemExit(f"perfbench: zipfest was imported from {zipfest.__file__}, "
                         f"not from {src}")


def environment(seed: int) -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"seed": seed, "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


# A fixed pure-Python loop, timed between the calls, gauges how fast the
# machine runs at that moment.  On a shared host other tenants slow every
# call by up to 1.7x for seconds at a time; scaling each time by the loop's
# time next to it takes most of that drift out of the reported medians.
KERNEL_LOOPS = 1_000_000
KERNEL_REF_S = 0.040  # the loop's time on an idle machine of this type


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def kernel() -> float:
    t0 = time.perf_counter()
    total = 0
    for i in range(KERNEL_LOOPS):
        total += i
    return time.perf_counter() - t0


class Gauge:
    """Times work with the kernel run before and after it; each time is also
    scaled to the reference speed by the mean of those two kernel times."""

    def __init__(self):
        self.last = kernel()
        self.kernels = [self.last]

    def time(self, fn):
        """-> (wall time, scaled time, output)"""
        wall, out = timed(fn)
        after = kernel()
        scaled = wall * 2.0 * KERNEL_REF_S / (self.last + after)
        self.last = after
        self.kernels.append(after)
        return wall, scaled, out


def closed_loop(fn, seconds: float, min_calls: int, gauge: Gauge, setup):
    """Call ``fn`` back to back until the next call would end after
    ``seconds``; -> ((wall, scaled) per call, outputs, (wall, scaled) per set-up).

    A timed ``setup`` precedes each call, so that the set-up samples spread
    over the whole run as the calls do.
    """
    calls, outputs, setups = [], [], []
    start = time.perf_counter()
    while (len(calls) < min_calls or time.perf_counter() - start
           + statistics.median(wall for wall, _ in calls) <= seconds):
        setups.append(gauge.time(setup)[:2])
        wall, scaled, out = gauge.time(fn)
        calls.append((wall, scaled))
        outputs.append(out)
    return calls, outputs, setups


def peak_rss_mb(args, corpus) -> float:
    """Peak resident set of a fresh process that makes one call of the workload.

    In that process every large array is a fresh mapping of small pages,
    resident only where it is written.  By default, whether an array becomes
    resident in 2 MiB huge pages depends on the kernel's free memory at that
    moment, and whether it reuses heap memory, resident in full, depends on
    the draws (see README.md).
    """
    cmd = [sys.executable, str(Path(__file__).with_name("rss_probe.py")),
           "--workload", args.workload, "--seed", str(args.seed)]
    if corpus is not None:
        cmd += ["--corpus", str(corpus.path)]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120,
                          env={**os.environ, **PROBE_ENV})
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: the memory probe failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


def validate(result: dict, trace: bool) -> list[str]:
    """The result line against the metric names and units of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    problems = []
    if got != declared:
        problems.append(f"metrics {sorted(got.items())} differ from BENCHMARK.json "
                        f"{sorted(declared.items())}")
    for name, m in result["metrics"].items():
        if not (isinstance(m["value"], (int, float)) and math.isfinite(m["value"])):
            problems.append(f"metric {name} is not a finite number: {m['value']!r}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)):
        problems.append(f"bad attempted/failed counts {result['attempted']}, {result['failed']}")
    return problems


def run(args, workloads, replay) -> int:
    workload = workloads.WORKLOADS[args.workload]
    if args.smoke:
        workload = workloads.smoke(workload)
    print("# " + json.dumps({"workload": workload.name, "n": workload.n, "m": workload.m,
                             "seconds": args.seconds, "trace": args.trace,
                             **environment(args.seed)}), flush=True)
    min_calls = 2 if args.smoke else MIN_CALLS

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        corpus = None
        if workload.kind == "estimate":
            corpus = workloads.make_corpus(workload, args.seed, Path(workdir) / "corpus.txt")
        call = lambda: workloads.call(workload, args.seed, corpus)  # noqa: E731

        reference = call()  # warm-up, and the output every later call must repeat
        problems, attempted, failed = workloads.check_output(workload, reference, corpus)
        expected = workloads.fingerprint(reference)
        if args.trace:
            walls, replays, outputs = [], [], []
            start = time.perf_counter()
            # stop when one more (call, replay) pair would end after --seconds
            while not outputs or (time.perf_counter() - start) * (len(outputs) + 1) \
                    <= args.seconds * len(outputs):
                wall, output = timed(call)
                walls.append(wall)
                replays.append(timed(lambda: replay.replay(workload, args.seed, output, corpus)))
                outputs.append(output)
            wall = statistics.median(walls)
            per_replay = [replay.layer_metrics(workload, trace, replay_wall, wall)
                          for replay_wall, trace in replays]
            values = {name: statistics.median(m[name] for m in per_replay)
                      for name in replay.PER_LAYER}
            units = replay.PER_LAYER
            for _, trace in replays:
                problems.extend(trace.problems)
        else:
            setup = lambda: workloads.setup(workload)  # noqa: E731
            gauge = Gauge()
            setups = [gauge.time(setup)[:2] for _ in range(SETUP_REPEATS)]
            calls, outputs, more_setups = closed_loop(call, args.seconds, min_calls,
                                                      gauge, setup)
            setups += more_setups
            walls = [wall for wall, _ in calls]
            values = {"wall_s": statistics.median(scaled for _, scaled in calls),
                      "setup_s": statistics.median(scaled for _, scaled in setups),
                      "peak_rss_mb": peak_rss_mb(args, corpus)}
            units = END_TO_END
            print(f"unscaled medians: wall_s {statistics.median(walls)} s, setup_s "
                  f"{statistics.median(wall for wall, _ in setups)} s; kernel median "
                  f"{statistics.median(gauge.kernels) * 1e3:.2f} ms "
                  f"(reference {KERNEL_REF_S * 1e3:.0f} ms)")

    for output in outputs:
        if workloads.fingerprint(output) != expected:
            problems.append("two calls with the same seed gave different outputs")
            break
    n_calls = len(outputs) + 1
    attempted *= n_calls
    failed *= n_calls
    for name, value in values.items():
        print(f"{name} {value} {units[name]}")
    print(f"calls {n_calls} (one warm-up); failed_frac {failed / attempted} "
          f"({failed} of {attempted} operations); call walls "
          + " ".join(f"{w:.3f}" for w in walls))
    result = {"correct": False, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": values[name], "unit": units[name]}
                          for name in values}}
    problems.extend(validate(result, args.trace))
    result["correct"] = not problems
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def main(argv=None) -> int:
    import_program()
    import replay
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the closed loop runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny input sizes")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return run(args, workloads, replay)


if __name__ == "__main__":
    sys.exit(main())
