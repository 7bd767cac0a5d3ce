"""Steadiness report: run one workload N times and summarize each metric.

    python3 perfbench/steadiness.py --workload mine-paper --runs 10 [--first-seed 1]

Each run is a separate ``perfbench/run.py`` process with the next seed.
Per metric it prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``), the spread ``(q3 - q1) /
median`` and the metric's bound from ``BENCHMARK.json``; then the share
of failed operations.  Run from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import figures  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    shares = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "0"]
        done = subprocess.run(cmd, capture_output=True, text=True, check=False)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            print(f"seed {seed}: exit {done.returncode}", file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: outputs incorrect", file=sys.stderr)
        shares.append(result["failed"] / result["attempted"])
        for name, metric in result["metrics"].items():
            units[name] = metric["unit"]
            if metric["value"] is not None:  # null: the run took no sample
                values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: attempted={result['attempted']} failed={result['failed']}",
              file=sys.stderr)

    print(f"workload {args.workload}: {args.runs} runs, seeds "
          f"{args.first_seed}..{args.first_seed + args.runs - 1}, {seconds} s each")
    print(f"{'metric':28s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>6s}")
    for name, series in values.items():
        if len(series) < 2:
            continue
        med, q1, q3, rel = figures.spread(series)
        bound = bounds.get(name)
        print(f"{name:28s} {units[name]:6s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{rel:8.4f} {bound if bound is not None else '':>6}")
    print(f"failed share per run: {sorted(set(shares))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
