"""Run the benchmark on several seeds and report each metric's spread.

Usage (from the repository root):

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [WORKLOAD ...]

For every end-to-end metric of every named workload (default: all) it prints
the median of the runs and the interquartile distance as a share of the
median, next to a third of the metric's bound from BENCHMARK.json, and the
value of every run.  Runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(config: dict, workload: str, seed: int) -> dict:
    argv = [*config["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(config["run_seconds"]), "--trace", "0"]
    argv[0] = sys.executable if argv[0] == "python3" else argv[0]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args(argv)
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads or [w["name"] for w in config["workloads"]]
    steady = True
    for workload in names:
        runs = [run_once(config, workload, args.first_seed + i) for i in range(args.runs)]
        for metric in config["end_to_end"]:
            values = [r[metric["name"]] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / med
            ok = metric["name"] == "setup_s" or share < metric["bound"] / 3
            steady = steady and ok
            print(f"{workload:18s} {metric['name']:16s} median {med:12.4f} "
                  f"spread {share:7.4f} (bound/3 {metric['bound'] / 3:.4f}) "
                  f"{'ok' if ok else 'WIDE'}  runs: {' '.join(f'{v:.4g}' for v in values)}",
                  flush=True)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
