"""Steadiness check: run each workload repeatedly and report the spread.

Usage::

    python3 e2ebench/steady.py [--runs 10] [--first-seed 1] [WORKLOAD ...]

Runs ``run.py --trace 0`` once per seed (``--first-seed`` upwards) on each
workload, and prints for every end-to-end metric the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``), the spread
(Q3 - Q1) / median, and that spread as a share of the metric's bound in
``BENCHMARK.json``.  Beside each run it prints the run's unscaled
``run_s`` and its mean reference-piece time (see ``hostclock.py``), which
show how much the host's own speed moved.  A workload whose spread
exceeds a third of a bound is named as the one to drop, if none can be
made steadier.
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


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, Q1, Q3, (Q3 - Q1) / median)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, str]:
    """The run's result line and its last progress note (with the
    unscaled ``run_s`` and the host's reference-piece time)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} failed (exit {proc.returncode}):\n"
                 + proc.stderr[-3000:])
    notes = proc.stderr.strip().splitlines() or [""]
    return json.loads(proc.stdout.strip().splitlines()[-1]), notes[-1]


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*", help=f"default: {' '.join(names)}")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    unknown = set(args.workloads) - set(names)
    if unknown:
        parser.error(f"unknown workload(s): {sorted(unknown)}")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    worst: dict[str, float] = {}
    for workload in args.workloads or names:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        failed = 0
        for seed in range(args.first_seed, args.first_seed + args.runs):
            t0 = time.perf_counter()
            report, note = run_once(workload, seed, bench["run_seconds"])
            took = time.perf_counter() - t0
            failed += report["failed"]
            for name in bounds:
                values[name].append(report["metrics"][name]["value"])
            print(f"{workload} seed {seed} ({took:.0f} s): " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in report["metrics"].items()
            ) + f"\n  {note}", flush=True)
        print(f"\n{workload}: {args.runs} runs, {failed} failed operations")
        print(f"{'metric':22} {'median':>12} {'Q1':>12} {'Q3':>12} "
              f"{'spread':>8} {'/bound':>7}")
        for name, bound in bounds.items():
            med, q1, q3, s = spread(values[name])
            worst[workload] = max(worst.get(workload, 0.0), s / bound)
            print(f"{name:22} {med:12.5g} {q1:12.5g} {q3:12.5g} {s:8.4f} "
                  f"{s / bound:7.3f}")
        print()
    unsteady = {w: r for w, r in worst.items() if r > 1 / 3}
    if unsteady:
        drop = max(unsteady, key=unsteady.get)
        print(f"unsteady (spread > bound/3): {sorted(unsteady)}; "
              f"drop {drop} first ({unsteady[drop]:.2f} of its bound)")
    else:
        print("every spread is within a third of its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
