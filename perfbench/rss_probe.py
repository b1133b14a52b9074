"""One call of a workload's entry point in a fresh process; prints the
process's peak resident set in MiB as the last word of stdout.

    NUMPY_MADVISE_HUGEPAGE=0 MALLOC_MMAP_THRESHOLD_=131072 \
        python3 perfbench/rss_probe.py --workload covariance-z07 --seed 1

run.py starts it with this environment (``run.PROBE_ENV``) after its timed
calls, for ``peak_rss_mb``.  The peak is ``VmHWM`` of /proc/self/status,
not ``ru_maxrss``: Linux carries ``ru_maxrss`` over an exec, so in a child
it would include the resident set of the parent that started it.  The
``estimate-corpus`` workload needs the corpus that run.py wrote (``--corpus``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from run import import_program


def vm_hwm_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024  # the line is in kB
    raise SystemExit("perfbench: no VmHWM line in /proc/self/status")


def main(argv=None) -> int:
    import_program()
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--corpus", type=Path, default=None)
    parser.add_argument("--smoke", action="store_true", help="tiny input sizes")
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    if args.smoke:
        workload = workloads.smoke(workload)
    corpus = None
    if workload.kind == "estimate":
        if args.corpus is None:
            parser.error(f"{workload.name} needs --corpus")
        corpus = workloads.Corpus(path=args.corpus, counts=None)
    workloads.call(workload, args.seed, corpus)
    print(f"peak_rss_mb {vm_hwm_mb()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
