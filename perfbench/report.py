#!/usr/bin/env python3
"""Reference figures: per-layer metrics of every workload, and tracing cost.

    python3 perfbench/report.py [--seed N] [--seconds S]

Runs each workload once untraced and once traced with the same seed and
prints a Markdown table of the per-layer metrics (per round) together with
the tracing overhead, the untraced over the traced ``ops_per_s``, minus 1.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    full = json.loads((HERE.parent / ".perfbench_out"
                       / f"result_{workload}_{seed}_{trace}.json").read_text())
    return last, full


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36)
    args = parser.parse_args()
    layers = {}
    overhead = {}
    for name in WORKLOADS:
        _, plain = run(name, args.seed, args.seconds, 0)
        traced, full = run(name, args.seed, args.seconds, 1)
        layers[name] = traced["metrics"]
        overhead[name] = (plain["timed"]["ops_per_s"]
                          / full["timed"]["ops_per_s"] - 1.0)
    names = list(WORKLOADS)
    print("| per-layer metric (per round) | unit | " + " | ".join(names) + " |")
    print("|---|---|" + "---:|" * len(names))
    for metric, unit, _better in PER_LAYER:
        cells = [f"{layers[w][metric]['value']:.4g}" for w in names]
        print(f"| `{metric}` | {unit} | " + " | ".join(cells) + " |")
    print("| tracing overhead on `ops_per_s` | share | "
          + " | ".join(f"{overhead[w]:+.3f}" for w in names) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
