"""Run the benchmark over several seeds and keep every result line.

Usage (from the repository root)::

    python3 perfbench/sweep.py --out .perfbench/base --seeds 1-10
    python3 perfbench/sweep.py --out .perfbench/base --seeds 1-5 \\
        --workloads sim-table5

Runs are sequential, one process tree at a time, untraced and
``run_seconds`` long as ``BENCHMARK.json`` fixes them.  Each result is
saved as ``<out>/<workload>/seed<n>.json``; ``compare.py`` reads that
layout.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--seeds", default="1-10", type=parse_seeds)
    ap.add_argument("--workloads", default=None,
                    help="comma-separated names (default: all)")
    args = ap.parse_args(argv)
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    status = 0
    for name in names:
        os.makedirs(os.path.join(args.out, name), exist_ok=True)
        for seed in args.seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", name, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=REPO, stdout=subprocess.PIPE,
                                  text=True)
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}",
                      file=sys.stderr)
                status = 1
                continue
            last = proc.stdout.strip().splitlines()[-1]
            path = os.path.join(args.out, name, f"seed{seed}.json")
            with open(path, "w") as fh:
                fh.write(last + "\n")
            result = json.loads(last)
            summary = ", ".join(f"{k}={v['value']:.4g}"
                                for k, v in result["metrics"].items())
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"{summary}", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
