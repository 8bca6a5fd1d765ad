"""Benchmark of polya-verify: run one workload and print its metrics.

Usage, from the root of a checkout:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: chart-survey, reference-solves, analytic-replay (see README.md).
Each round of the workload runs in a fresh process (perfbench/worker.py),
so the package's module caches start cold as they do for a command-line
user.  Rounds repeat while the next one is likely to end within
``--seconds``, and every figure is a median over the run's rounds.  Before the rounds, a few processes only
import the package, for ``setup_s``; the first of them is not counted, as it
may also compile the sources to bytecode.

With ``--trace 0`` the last line of output holds the end-to-end metrics.
With ``--trace 1`` rounds alternate untraced and traced, and the last line
holds the per-layer metrics of the traced rounds, with the tracing overhead
against the untraced ones.  Human-readable lines come first.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("chart-survey", "reference-solves", "analytic-replay")
SETUP_SAMPLES = 5
# a run must end within 180 s; no process is started past this point
RUN_BUDGET_S = 170.0

# per-layer counts that repeat exactly from round to round
EXACT_COUNTS = (
    "pde_oracle.factorizations",
    "pde_oracle.lu_solves",
    "pde_oracle.lu_nnz",
    "pde_oracle.elements",
    "closed_forms.terms",
    "polycert.intervals",
)
# figures only some workloads have; 0 elsewhere
WORKLOAD_FIGURES = (
    "ref.equilateral_s",
    "ref.square_s",
    "ref.sector_s",
    "pde_oracle.level_reached.equilateral",
    "pde_oracle.level_reached.square",
    "pde_oracle.level_reached.sector",
)


class BenchmarkError(RuntimeError):
    """A worker failed or ran past the budget, or the metrics do not match their declaration."""


def declared_units(trace: bool) -> dict:
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def worker(args: list, deadline: float) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    # single-threaded throughout (see README.md, "BLAS threads")
    env["OPENBLAS_NUM_THREADS"] = "1"
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    try:
        done = subprocess.run(
            cmd,
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{' '.join(args)}: no result within the run's budget") from exc
    if done.returncode != 0:
        raise BenchmarkError(f"{' '.join(args)}: exit code {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    setups = [
        worker(["--workload", "setup"], deadline)["setup_s"]
        for _ in range(SETUP_SAMPLES + 1)
    ][1:]
    rounds = []
    start = time.monotonic()
    while True:
        traced = trace and len(rounds) % 2 == 1
        began = time.monotonic()
        rounds.append(
            worker(
                ["--workload", workload, "--seed", str(seed), "--trace", str(int(traced))],
                deadline,
            )
        )
        now = time.monotonic()
        # stop before a round that would likely end past the measuring time
        if now + (now - began) - start > seconds and len(rounds) >= (2 if trace else 1):
            break
    return {"setups": setups, "rounds": rounds}


def summarize(trace: bool, result: dict) -> dict:
    rounds = result["rounds"]
    plain = [r for r in rounds if not r["traced"]]
    median = lambda key, rs: statistics.median(r[key] for r in rs)
    if not trace:
        values = {
            "setup_s": statistics.median(result["setups"] + [r["setup_s"] for r in rounds]),
            "wall_s": median("wall_s", plain),
            "peak_rss_mib": median("peak_rss_mib", plain),
        }
    else:
        traced = [r for r in rounds if r["traced"]]
        values = {
            key: statistics.median(r["layers"][key] for r in traced)
            for key in traced[0]["layers"]
        }
        for key in EXACT_COUNTS:
            seen = {r["layers"][key] for r in traced}
            if len(seen) > 1:
                print(f"warning: {key} differs between traced rounds: {sorted(seen)}", file=sys.stderr)
        figures = median_figures([r["figures"] for r in plain])
        for key in WORKLOAD_FIGURES:
            values[key] = figures.get(key, 0)
        overhead = median("wall_s", traced) / median("wall_s", plain) - 1.0
        values["tracer.overhead_pct"] = 100.0 * overhead
    units = declared_units(trace)
    if set(values) != set(units):
        raise BenchmarkError(
            f"metrics {sorted(set(values) ^ set(units))} are measured or declared, not both"
        )
    metrics = {key: {"value": values[key], "unit": units[key]} for key in units}
    failures = [msg for r in rounds for msg in r["failures"]]
    problems = [msg for r in rounds for msg in r["problems"]]
    return {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
        "failures": failures,
        "problems": problems,
    }


def median_figures(figures: list) -> dict:
    """Median of each workload figure over rounds; lists are pooled first."""
    merged: dict = {}
    for fig in figures:
        for key, value in fig.items():
            merged.setdefault(key, []).extend(value if isinstance(value, list) else [value])
    return {key: statistics.median(values) for key, values in merged.items()}


def main(argv=None) -> int:
    # on SIGTERM, unwind through subprocess.run, which kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "polya_verify" / "__init__.py").is_file():
        print(f"no polya_verify sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
        summary = summarize(bool(args.trace), result)
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    rounds = result["rounds"]
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: {len(rounds)} rounds "
        f"({sum(r['traced'] for r in rounds)} traced), {len(result['setups'])} set-ups"
    )
    if not args.trace:
        for key, value in median_figures([r["figures"] for r in rounds]).items():
            if key.startswith("ref."):
                print(f"  {key:40s} {value:.6g} s")
    for name, metric in summary["metrics"].items():
        print(f"  {name:40s} {metric['value']:.6g} {metric['unit']}")
    print(f"  attempted {summary['attempted']}, failed {summary['failed']}")
    for msg in summary["failures"]:
        print(f"  failed: {msg}")
    for msg in summary["problems"]:
        print(f"  wrong output: {msg}")
    print(
        json.dumps(
            {key: summary[key] for key in ("correct", "attempted", "failed", "metrics")}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
