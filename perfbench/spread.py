"""Run one workload over several seeds and report each metric's spread.

Usage, from the root of the repository::

    python3 perfbench/spread.py --workload paper-exact --seeds 1-10 --seconds 20

For every metric it prints the median of the runs and the distance between
the first and third quartiles (``statistics.quantiles(values, n=4)``) as a
share of that median, next to the metric's bound from ``BENCHMARK.json``.
Runs go one after another, never in parallel, so they do not disturb each
other.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def seeds_of(text: str):
    if "-" in text:
        first, last = (int(part) for part in text.split("-"))
        return list(range(first, last + 1))
    return [int(part) for part in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs = []
    for seed in seeds_of(args.seeds):
        out = subprocess.run(
            [*spec["command"], "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip().splitlines()
        result = json.loads(out[-1])
        calibration = next((line for line in out if line.startswith("calibration_s")), "")
        values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {calibration} {values}", flush=True)
        for line in out:
            if line.startswith(("CHECK FAILED", "KNOWN FAULT")):
                print(f"  {line}", flush=True)
        runs.append(result)
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(name)
        verdict = "" if bound is None else f" bound={bound} {'ok' if spread <= bound else 'OVER'}"
        print(f"{name:34s} median={median:12.4f} spread={spread:.4f}{verdict}")
    shares = {run["failed"] / run["attempted"] for run in runs}
    print(f"failed shares: {sorted(shares)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
