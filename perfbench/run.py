"""The repository benchmark: one workload, timed or traced.

Usage (from the repository root)::

    python3 perfbench/run.py --workload helr-step --seed 1 --seconds 36 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` makes a separate traced run and prints the per-layer
metrics.  Each workload runs in its own fresh processes (see
``worker.py``), sequentially, with one caller in a closed loop.
Human-readable lines come first; the last stdout line is the JSON
result.  Exits 1, printing no result, if a process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SPANS_DIR = os.path.join(REPO, ".perfbench")

# The timed run is split across this many fresh processes, one after
# another.  Each sets up (one set-up sample) and then runs its share of
# --seconds; their iterations are pooled.  Splitting also averages out
# per-process effects such as memory layout.
TIMED_PROCESSES = 3
# Every process this script starts must end within this budget.
DEADLINE_S = 170.0


def load_spec() -> dict:
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        return json.load(fh)


def spawn(args, mode: str, deadline: float, seconds: float,
          extra=()) -> dict:
    """Run ``worker.py`` in a fresh process and parse its result line."""
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds),
           "--mode", mode, *extra]
    started = time.monotonic()
    cmd += ["--spawned-at", repr(started)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - started))
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} run exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(walls: list[float], depth: int = 10) -> tuple[float, float]:
    """(wall, percentile) of the slowest iteration with ``depth`` beyond it."""
    ordered = sorted(walls)
    index = max(0, len(ordered) - depth - 1)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def end_to_end(args, deadline: float) -> tuple[dict, dict, list[str]]:
    runs = [spawn(args, "timed", deadline, args.seconds / TIMED_PROCESSES)
            for _ in range(TIMED_PROCESSES)]
    setups = [r["setup_s"] for r in runs]
    walls = [w for r in runs for w in r["walls"]]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    tail_s, tail_pct = tail(walls)
    values = {
        "setup_s": statistics.median(setups),
        "iter_tail_s": tail_s,
        "peak_rss_mib": max(r["peak_rss_mib"] for r in runs),
    }
    # Quantities that are 0, too noisy or do not apply on some
    # workloads, so they cannot carry a bound; correctness is enforced
    # through `failed`.
    notes = [
        f"iter_p50_s: {statistics.median(walls):.6g} s",
        f"iters_per_s: {len(walls) / sum(walls):.6g} 1/s",
        f"iter_tail_s is p{tail_pct:.1f} of {len(walls)} iterations",
        f"setup_s samples: {', '.join(f'{s:.3f}' for s in setups)}",
        f"failed_ratio: {failed / attempted:.4f} ({failed}/{attempted})",
    ]
    if "table5_error_pct" in runs[0]:
        notes.append(f"table5_error_pct: {runs[0]['table5_error_pct']:.3f} %")
    else:
        notes.append("max_abs_error: "
                     f"{max(r['max_abs_error'] for r in runs):.3e}")
    summary = {"attempted": attempted, "failed": failed,
               "warm_ok": all(r["warm_ok"] for r in runs)}
    return values, summary, notes


def per_layer(args, deadline: float) -> tuple[dict, dict, list[str]]:
    out = os.path.join(SPANS_DIR,
                       f"spans-{args.workload}-seed{args.seed}.json")
    run = spawn(args, "traced", deadline, args.seconds, ("--spans-out", out))
    return run["metrics"], run, [f"spans written to {out}"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    try:
        spec = load_spec()
        names = {w["name"] for w in spec["workloads"]}
        if args.workload not in names:
            raise ValueError(f"unknown workload {args.workload!r}; "
                             f"choose from {sorted(names)}")
        measure = per_layer if args.trace else end_to_end
        values, run, notes = measure(args, deadline)
        declared = spec["per_layer" if args.trace else "end_to_end"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in declared}
    except (OSError, ValueError, KeyError, RuntimeError,
            subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    width = max(len(name) for name in metrics)
    print(f"# {args.workload} seed {args.seed} trace {args.trace}")
    for name, m in metrics.items():
        print(f"{name:<{width}}  {m['value']:.6g} {m['unit']}")
    for line in notes:
        print("# " + line)
    correct = run["failed"] == 0 and run["warm_ok"]
    print(json.dumps({"correct": correct, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
