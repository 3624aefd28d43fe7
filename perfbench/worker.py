"""Run one workload in this process: set up, then time or trace it.

``run.py`` starts this script in a fresh process for every set-up
sample, because the program's plan caches and the encoder's
``lru_cache`` are process-global: a second set-up in the same process
would find them warm.

Modes:

* ``timed``  -- set up (including one warm-up iteration), then run
  iterations for ``--seconds`` with nothing installed;
* ``traced`` -- set up with spans on, then alternate untraced and
  traced iterations for ``--seconds`` and report per-layer metrics.

The last stdout line is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import spans  # noqa: E402
from workloads import WORKLOADS, plain_call  # noqa: E402

def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True, choices=("timed", "traced"))
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() when the parent started us")
    ap.add_argument("--spans-out", default=None,
                    help="write the traced run's spans to this JSON file")
    return ap.parse_args(argv)


class Tally:
    """Attempts, failures and the largest error over all iterations."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.max_abs_error = 0.0

    def run(self, workload, op, inp, timer):
        """One checked iteration; returns (wall, probes) or None."""
        self.attempted += 1
        try:
            start = perf_counter()
            out, probes = timer(workload.run, op, inp)
            wall = perf_counter() - start
            error, ok = workload.check(inp, out)
        except Exception:  # an iteration that raises counts as failed
            traceback.print_exc()
            self.failed += 1
            return None
        self.max_abs_error = max(self.max_abs_error, error)
        if not ok:
            print(f"wrong answer: error {error:.3e}", file=sys.stderr)
            self.failed += 1
        return wall, probes


def direct(fn, *args):
    return fn(*args)


def setup(args, op=plain_call):
    """Build the workload and run its warm-up iteration."""
    workload = WORKLOADS[args.workload](args.seed)
    inp = workload.next_input()
    out, _ = workload.run(op, inp)
    _, ok = workload.check(inp, out)
    return workload, ok


def timed(args) -> dict:
    workload, warm_ok = setup(args)
    setup_s = time.monotonic() - args.spawned_at
    tally = Tally()
    walls = []
    begin = perf_counter()
    while perf_counter() - begin < args.seconds or tally.attempted == 0:
        done = tally.run(workload, plain_call, workload.next_input(), direct)
        if done is not None:
            walls.append(done[0])
    result = {"setup_s": setup_s, "walls": walls, "warm_ok": warm_ok,
              "attempted": tally.attempted, "failed": tally.failed,
              "max_abs_error": tally.max_abs_error,
              "peak_rss_mib":
                  resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if workload.kind == "sim":
        result["table5_error_pct"] = workload.table5_error_pct()
    return result


def _hit_ratio(*infos) -> float:
    hits = sum(i.hits for i in infos)
    lookups = hits + sum(i.misses for i in infos)
    return hits / lookups if lookups else 0.0


def traced(args) -> dict:
    from repro import obs
    from repro.backend.arena import ledger_counters

    recorder = spans.Recorder()
    kernels = spans.Kernels(recorder)
    kind = WORKLOADS[args.workload].kind
    # The simulator emits one obs event per simulated kernel task, so
    # obs stays off there; the CKKS counters it would check are absent.
    use_obs = kind == "ckks"

    def trace_on(on: bool) -> None:
        (kernels.install if on else kernels.uninstall)()
        if use_obs:
            obs.configure(enabled=on)

    obs.configure(enabled=False, reset=True)
    trace_on(True)
    workload, warm_ok = setup(args, recorder.op)
    trace_on(False)
    allocs_before = sum(ledger_counters().values())

    tally = Tally()
    walls = {False: [], True: []}
    rot_errors = {"hybrid": [], "klss": []}
    begin = perf_counter()
    iteration = 0
    while perf_counter() - begin < args.seconds or iteration < 6:
        traced_now = iteration % 2 == 1
        recorder.iteration = iteration
        inp = workload.next_input()
        trace_on(traced_now)
        try:
            if traced_now:
                done = tally.run(workload, recorder.op, inp,
                                 lambda fn, *a: recorder.call(
                                     spans.ROOT, fn, *a))
            else:
                done = tally.run(workload, plain_call, inp, direct)
        finally:
            trace_on(False)
        if done is not None:
            walls[traced_now].append(done[0])
            if traced_now and done[1]:
                errors = workload.rotation_errors(done[1])
                for method, values in rot_errors.items():
                    values.append(errors.get(method, 0.0))
        iteration += 1

    if use_obs:
        tracer = obs.get_tracer()
        mismatches = spans.counter_mismatches(recorder.spans,
                                              tracer.counter_value)
        if mismatches:
            raise SystemExit("traced counts disagree with repro.obs "
                             "counters:\n  " + "\n  ".join(mismatches))
    metrics = spans.layer_metrics(recorder.spans)
    untraced_p50 = spans.median(walls[False])
    metrics["trace.overhead_frac"] = \
        spans.median(walls[True]) / untraced_p50 - 1.0
    for method, values in rot_errors.items():
        metrics[f"keyswitch.{method}_rot_err"] = spans.median(values)
    metrics["check.max_abs_error"] = tally.max_abs_error
    metrics["check.failed_ratio"] = tally.failed / tally.attempted
    metrics.update(_plan_metrics(kind, obs.get_tracer()))
    traced_iterations = max(1, len(walls[True]))
    metrics["arena.steady_allocs"] = (
        (sum(ledger_counters().values()) - allocs_before)
        / traced_iterations if use_obs else 0.0)
    metrics.update(_sim_metrics(workload, untraced_p50))
    if args.spans_out:
        os.makedirs(os.path.dirname(args.spans_out) or ".", exist_ok=True)
        with open(args.spans_out, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent",
                                  "iteration"],
                       "spans": recorder.spans}, fh)
    return {"metrics": metrics, "warm_ok": warm_ok,
            "attempted": tally.attempted, "failed": tally.failed}


def _plan_metrics(kind: str, tracer) -> dict:
    names = ("ntt", "bconv", "auto", "kmu")
    if kind != "ckks":
        return {f"plans.{n}_hit_ratio": 0.0 for n in names}
    from repro.ckks import ntt, rns
    hits = tracer.counter_value("keyswitch.kmu.plan_hit")
    misses = tracer.counter_value("keyswitch.kmu.plan_miss")
    return {
        "plans.ntt_hit_ratio": _hit_ratio(rns.plan_cache_info(),
                                          ntt.batch_plan_cache_info()),
        "plans.bconv_hit_ratio": _hit_ratio(rns.bconv_plan_cache_info()),
        "plans.auto_hit_ratio": _hit_ratio(rns.auto_plan_cache_info()),
        "plans.kmu_hit_ratio": hits / (hits + misses) if hits + misses
        else 0.0,
    }


SIM_TRACES = ("bootstrap", "helr256", "helr1024", "resnet20")
SIM_STATS = ("sim_ms", "key_hit_rate", "hbm_bytes", "klss_ops",
             "util.nttu", "util.bconvu", "util.kmu", "util.autou",
             "util.dsu", "util.hbm")


def _sim_metrics(workload, untraced_p50: float) -> dict:
    """The simulated model's statistics (all 0 on CKKS workloads)."""
    metrics = {f"sim.{t}.{s}": 0.0 for t in SIM_TRACES for s in SIM_STATS}
    metrics["sim.table5_error_pct"] = 0.0
    metrics["sim.host_us_per_op"] = 0.0
    if workload.kind != "sim":
        return metrics
    for t in SIM_TRACES:
        for s in SIM_STATS:
            metrics[f"sim.{t}.{s}"] = float(workload.first[t][s])
    metrics["sim.table5_error_pct"] = workload.table5_error_pct()
    ops = sum(workload.first[t]["num_ops"] for t in SIM_TRACES)
    metrics["sim.host_us_per_op"] = untraced_p50 / ops * 1e6
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    result = traced(args) if args.mode == "traced" else timed(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
