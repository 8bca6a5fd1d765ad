"""One round of a workload in a fresh process; prints one JSON line.

Usage (from the checkout root, with src on PYTHONPATH):
    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1
    python3 perfbench/worker.py --workload setup

The package is imported first, before anything else of size, so the
import time is the set-up a command-line user pays and the module caches
start cold.  ``--workload setup`` stops after the import.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import polya_verify
    import polya_verify.cli  # noqa: F401  (the command-line entry point)

    setup_s = time.perf_counter() - t0
    if args.workload == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    tracer = spans.Tracer(polya_verify) if args.trace else None
    if tracer is not None:
        tracer.install()
    try:
        t0 = time.perf_counter()
        state = workload.run_pass(polya_verify)
        wall_s = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.remove()
    outcome = workload.finish(polya_verify, state)
    record = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "traced": bool(args.trace),
        **outcome,
    }
    if tracer is not None:
        record["layers"] = tracer.metrics(wall_s, workload.base_level)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
