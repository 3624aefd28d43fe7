"""Compare two result sets of the benchmark, or check one for spread.

Usage (from the repository root)::

    python3 perfbench/compare.py .perfbench/base              # spread only
    python3 perfbench/compare.py .perfbench/base .perfbench/change

A result set is the directory ``sweep.py`` writes.  One row per
workload and end-to-end metric gives each side's median and quartiles
and, with two sets, a verdict:

* ``better``: the change wins at least 9 in 10 seed-paired runs and its
  median beats the base median by more than the base's quartile
  distance;
* ``unresolved``: a side's quartile distance, as a share of its median,
  exceeds the metric's bound, and not every change run beats every
  base run;
* ``worse``: the change's median is worse than the base's by more than
  the bound;
* ``within bound`` otherwise.

With one set, each row shows the spread as a share of the median and
whether it is below a third of the bound (``steady``), below the bound
(``within``) or wider (``too wide``).  Exits 1 if any row is ``worse``
or ``too wide``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)


def load_set(root: str) -> dict[str, dict[int, dict]]:
    """``{workload: {seed: metrics}}`` from a sweep directory."""
    out: dict[str, dict[int, dict]] = {}
    for workload in sorted(os.listdir(root)):
        folder = os.path.join(root, workload)
        if not os.path.isdir(folder):
            continue
        for name in sorted(os.listdir(folder)):
            if name.startswith("seed") and name.endswith(".json"):
                with open(os.path.join(folder, name)) as fh:
                    result = json.load(fh)
                seed = int(name[len("seed"):-len(".json")])
                out.setdefault(workload, {})[seed] = {
                    k: v["value"] for k, v in result["metrics"].items()}
    return out


def summary(values: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def spread(values: list[float]) -> float:
    med, q1, q3 = summary(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(base: dict[int, float], change: dict[int, float],
            bound: float, lower_is_better: bool) -> str:
    def beats(x, y):
        return x < y if lower_is_better else x > y

    a, b = list(base.values()), list(change.values())
    med_a, q1_a, q3_a = summary(a)
    med_b = statistics.median(b)
    paired = sorted(set(base) & set(change))
    wins = sum(beats(change[s], base[s]) for s in paired)
    if (paired and wins >= 0.9 * len(paired) and beats(med_b, med_a)
            and abs(med_b - med_a) > q3_a - q1_a):
        return "better"
    every_run_better = all(beats(x, y) for x in b for y in a)
    if max(spread(a), spread(b)) > bound and not every_run_better:
        return "unresolved"
    worse_by = (med_b - med_a) if lower_is_better else (med_a - med_b)
    if worse_by > bound * abs(med_a):
        return "worse"
    return "within bound"


def fmt(values: list[float]) -> str:
    med, q1, q3 = summary(values)
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("change", nargs="?")
    args = ap.parse_args(argv)
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    base = load_set(args.base)
    change = load_set(args.change) if args.change else None
    failing = 0
    header = (f"{'workload':<15} {'metric':<13} {'base median [q1, q3]':<30}"
              + (f" {'change median [q1, q3]':<30} verdict" if change
                 else " spread  bound  status"))
    print(header)
    for w in spec["workloads"]:
        name = w["name"]
        if name not in base or (change is not None and name not in change):
            print(f"{name:<15} (missing from a result set)")
            failing += 1
            continue
        for m in spec["end_to_end"]:
            metric, bound = m["name"], m["bound"]
            a = {s: r[metric] for s, r in base[name].items()}
            row = f"{name:<15} {metric:<13} {fmt(list(a.values())):<30}"
            if change is not None:
                b = {s: r[metric] for s, r in change[name].items()}
                v = verdict(a, b, bound, m["better"] == "lower")
                failing += v == "worse"
                print(f"{row} {fmt(list(b.values())):<30} {v}")
                continue
            s = spread(list(a.values()))
            status = ("steady" if s < bound / 3 else
                      "within" if s <= bound else "too wide")
            failing += status == "too wide"
            print(f"{row} {s:6.3f}  {bound:5.2f}  {status}"
                  f"  (n={len(a)})")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
