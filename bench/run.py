"""cframe benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository; the package is
loaded from its `src` directory, nothing needs to be installed. With
--trace 0 the last line of stdout carries the end-to-end metrics, with
--trace 1 the per-layer metrics. Problems found by the output checks go
to stderr. Results and traces are also written under bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REQUIRED = ("src/cframe/__init__.py", "docs/golden/identity_system.json",
            "docs/golden/identity_certify.json")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def single_blas_thread() -> None:
    """One BLAS thread, set before numpy loads; child processes inherit it.

    One client on one core: on a shared 2-CPU machine a second BLAS
    thread made certify-large-fibers slower and less steady.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"benchmark: not a cframe checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    single_blas_thread()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("benchmark: --seconds must be positive", file=sys.stderr)
        return 2
    result = workloads.run(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
