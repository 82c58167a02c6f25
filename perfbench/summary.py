"""Run every workload once, each in a fresh process, and print its metrics
by name with their units.

    python3 perfbench/summary.py [--seed N] [--seconds S] [--trace 0|1]

With --trace 0 each workload shows setup_s, wall_s, peak_rss_mb, ok_frac and
fail_frac = failed / attempted commands; with --trace 1 the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

RUN = Path(__file__).resolve().parent / "run.py"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    status = 0
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{workload}: run.py exited {proc.returncode}")
            status = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        metrics = dict(result["metrics"])
        if not args.trace:
            metrics["fail_frac"] = {
                "value": result["failed"] / result["attempted"],
                "unit": "ratio"}
        print(f"{workload}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for name, metric in metrics.items():
            print(f"  {name:38s} {metric['value']:>14.6g} {metric['unit']}")
        status |= not result["correct"]
    return status


if __name__ == "__main__":
    sys.exit(main())
