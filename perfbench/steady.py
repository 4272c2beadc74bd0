"""Steadiness check: run workloads repeatedly and report their spread.

Usage (from the repository root)::

    python3 perfbench/steady.py --runs 10 --seed 1
    python3 perfbench/steady.py --runs 10 --seed 1 --vary-seed
    python3 perfbench/steady.py --runs 5 --workloads l4lb-soak --seconds 10

Each run is a fresh interpreter (``perfbench/run.py``).  Every run uses
``--seed``, so the spread is run-to-run noise alone and every ``sim_*``
metric must repeat exactly; with ``--vary-seed`` run *i* uses
``--seed + i``, so the spread also holds how much the inputs move the
figures.  The workloads run one after another, in forward order on even
runs and reverse order on odd ones.  For every end-to-end metric the
command prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, which is the
interquartile distance as a share of the median, beside the metric's
bound from ``BENCHMARK.json``, and flags every spread over its bound.
With ``--runs 1`` it is the one command that runs every workload to its
end and prints every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_once(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        if line.startswith("perfbench "):
            print("  " + line)
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}")
    return json.loads(lines[-1])


def spread_table(results: dict, bounds: dict) -> bool:
    """Print per-metric statistics; True when every spread is in bound."""
    steady = True
    print(f"{'workload':14} {'metric':20} {'median':>14} {'q1':>14} "
          f"{'q3':>14} {'spread':>8} {'bound':>6}")
    for workload, runs in results.items():
        for metric in runs[0]["metrics"]:
            values = [run["metrics"][metric]["value"] for run in runs]
            median = statistics.median(values)
            if len(values) >= 2:
                q1, _q2, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = values[0]
            spread = (q3 - q1) / median if median else 0.0
            bound = bounds.get(metric)
            flag = ""
            if bound is not None and spread > bound:
                flag, steady = "  OVER", False
            print(f"{workload:14} {metric:20} {median:14.6g} {q1:14.6g} "
                  f"{q3:14.6g} {spread:8.4f} "
                  f"{'-' if bound is None else bound:>6}{flag}")
        shares = {run["failed"] / run["attempted"] for run in runs}
        print(f"{workload:14} failed share per run: {sorted(shares)}")
    return steady


def main(argv=None) -> int:
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=names,
                        choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--vary-seed", action="store_true",
                        help="run i uses seed + i instead of seed")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args(argv)

    results = {name: [] for name in args.workloads}
    for i in range(args.runs):
        order = args.workloads if i % 2 == 0 else args.workloads[::-1]
        seed = args.seed + i if args.vary_seed else args.seed
        for name in order:
            out = run_once(name, seed, args.seconds)
            if not out["correct"]:
                raise SystemExit(f"{name} seed {seed}: a check failed")
            results[name].append(out)
            if args.runs == 1:
                for metric, entry in out["metrics"].items():
                    print(f"  {name} {metric} = {entry['value']!r} "
                          f"{entry['unit']}")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    steady = spread_table(results, bounds)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
