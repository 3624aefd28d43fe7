"""The traced run's instrument: spans, self time and the counter check.

Spans are recorded at three depths: one ``iteration`` root per timed
iteration, an op span around each of the benchmark's own calls into
``CkksContext`` (or the simulator), and kernel spans from timing
wrappers that :class:`Kernels` installs on the program's public kernel
entry points.  Spans live in memory as ``[name, start, end, parent,
iteration]`` lists and are written out when the run ends.

A span's self time is its duration minus the time its direct children
cover; the run is single-threaded, so children never overlap.
"""

from __future__ import annotations

import importlib
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, class or None, attribute, layer).  A function imported
# elsewhere with ``from ... import`` is wrapped under every name that
# is bound to it in any loaded ``repro`` module.
ENTRY_POINTS = (
    ("repro.ckks.ntt", "BatchNttPlan", "forward", "ntt.forward"),
    ("repro.ckks.ntt", "BatchNttPlan", "inverse", "ntt.inverse"),
    ("repro.ckks.ntt", "NttPlan", "forward", "ntt.forward"),
    ("repro.ckks.ntt", "NttPlan", "inverse", "ntt.inverse"),
    ("repro.ckks.rns", "BConvPlan", "convert", "rns.bconv"),
    ("repro.ckks.rns", "BConvPlan", "down_scale", "rns.bconv"),
    ("repro.ckks.rns", "RnsPoly", "automorphism", "rns.auto"),
    ("repro.ckks.rns", None, "exact_rescale", "rns.rescale"),
    ("repro.ckks.rns", None, "from_big_ints", "rns.crt"),
    ("repro.ckks.rns", None, "compose_crt", "rns.crt"),
    ("repro.ckks.encoding", None, "encode_to_coeffs", "encoding.encode"),
    ("repro.ckks.encoding", None, "decode_from_coeffs", "encoding.decode"),
    ("repro.ckks.keyswitch.hybrid", None, "hybrid_decompose",
     "keyswitch.decompose"),
    ("repro.ckks.keyswitch.klss", None, "klss_decompose",
     "keyswitch.decompose"),
    ("repro.ckks.keyswitch.hybrid", None, "key_mult_accumulate",
     "keyswitch.kmu"),
    ("repro.ckks.keyswitch.hybrid", None, "mod_down_pair",
     "keyswitch.moddown"),
    ("repro.ckks.keyswitch.hybrid", None, "mod_down_batch",
     "keyswitch.moddown"),
    ("repro.ckks.keyswitch.hybrid", None, "mod_down_rescale_pair",
     "keyswitch.moddown"),
    ("repro.ckks.keyswitch.klss", None, "klss_key_switch", "keyswitch.klss"),
    ("repro.ckks.keyswitch.hoisting", None, "hoisted_rotations",
     "keyswitch.hoisted"),
    ("repro.ckks.keys", None, "generate_hybrid_key", "keys.keygen"),
    ("repro.ckks.keys", None, "generate_klss_key", "keys.keygen"),
    ("repro.workloads.bootstrap", None, "bootstrap_trace",
     "workloads.trace_build"),
    ("repro.workloads.helr", None, "helr_trace", "workloads.trace_build"),
    ("repro.workloads.resnet", None, "resnet20_trace",
     "workloads.trace_build"),
    ("repro.sim.engine", "Engine", "make_policy", "aether.policy"),
    ("repro.sim.kernels", None, "lower_trace", "sim.lower"),
    ("repro.sim.engine", "Engine", "run_schedules", "sim.schedule"),
)

LAYER_OF = {(owner + "." if owner else "") + attr: layer
            for _, owner, attr, layer in ENTRY_POINTS}

ROOT = "iteration"
OP_PREFIX = "op."


class Recorder:
    """In-memory span store; ``iteration`` tags every span it opens."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.iteration = "setup"

    def call(self, name, fn, /, *args, **kwargs):
        record = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1,
                  self.iteration]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = perf_counter()
            self.stack.pop()

    def op(self, name, fn, /, *args, **kwargs):
        return self.call(OP_PREFIX + name, fn, *args, **kwargs)


class Kernels:
    """Timing wrappers on every entry point, installed on demand."""

    def __init__(self, recorder: Recorder):
        for module, *_ in ENTRY_POINTS:
            importlib.import_module(module)
        loaded = [m for name, m in list(sys.modules.items())
                  if m is not None and (name == "repro"
                                        or name.startswith("repro."))]
        self.patches = []   # (holder, attribute, original, wrapper)
        for module, owner, attr, _ in ENTRY_POINTS:
            holder = sys.modules[module]
            name = attr
            if owner is not None:
                holder = getattr(holder, owner)
                name = owner + "." + attr
            original = vars(holder)[attr]
            wrapper = _wrap(recorder, name, original)
            if owner is not None:
                self.patches.append((holder, attr, original, wrapper))
                continue
            for mod in loaded:
                for bound, value in list(vars(mod).items()):
                    if value is original:
                        self.patches.append((mod, bound, original, wrapper))

    def install(self) -> None:
        for holder, attr, _, wrapper in self.patches:
            setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original, _ in self.patches:
            setattr(holder, attr, original)


def _wrap(recorder: Recorder, name: str, fn):
    def wrapper(*args, **kwargs):
        return recorder.call(name, fn, *args, **kwargs)
    wrapper.__wrapped__ = fn
    return wrapper


def median(values) -> float:
    """Median of ``values``; 0 when a layer never ran."""
    return statistics.median(values) if values else 0.0


def iteration_breakdown(spans: list[list]) -> dict[object, dict]:
    """Per iteration: op totals, kernel self times and call counts."""
    child_time = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[object, dict] = defaultdict(
        lambda: {"wall": 0.0, "ops": defaultdict(float),
                 "self": defaultdict(float), "calls": Counter(),
                 "op_total": 0.0})
    for index, (name, start, end, parent, it) in enumerate(spans):
        row = out[it]
        duration = end - start
        if name == ROOT:
            row["wall"] += duration
        elif name.startswith(OP_PREFIX):
            row["ops"][name[len(OP_PREFIX):]] += duration
            row["op_total"] += duration
        else:
            row["self"][LAYER_OF[name]] += duration - child_time[index]
            row["calls"][name] += 1
    return out


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Median per traced iteration of every span-derived metric."""
    rows = iteration_breakdown(spans)
    setup = rows.pop("setup", None)
    iterations = [r for r in rows.values() if r["wall"] > 0]
    metrics: dict[str, float] = {}

    def med(fn):
        return median([fn(r) for r in iterations])

    for op in ("encrypt", "decrypt", "plain_for", "multiply_plain",
               "rescale", "add", "multiply_rescale_hybrid",
               "multiply_rescale_klss", "rotate_hybrid", "rotate_klss",
               "hoisted_rotate"):
        metrics[f"context.{op}_s"] = med(lambda r, op=op: r["ops"][op])
    for layer, metric in (
            ("encoding.encode", "encoding.encode_s"),
            ("encoding.decode", "encoding.decode_s"),
            ("rns.crt", "rns.crt_s"),
            ("rns.rescale", "rns.rescale_s"),
            ("ntt.forward", "ntt.forward_s"),
            ("ntt.inverse", "ntt.inverse_s"),
            ("rns.bconv", "rns.bconv_s"),
            ("rns.auto", "rns.auto_s"),
            ("keyswitch.decompose", "keyswitch.decompose_s"),
            ("keyswitch.kmu", "keyswitch.kmu_s"),
            ("keyswitch.moddown", "keyswitch.moddown_s"),
            ("keyswitch.klss", "keyswitch.klss_s"),
            ("keyswitch.hoisted", "keyswitch.hoisted_s"),
            ("aether.policy", "aether.policy_s"),
            ("sim.lower", "sim.lower_s"),
            ("sim.schedule", "sim.schedule_s")):
        metrics[metric] = med(lambda r, layer=layer: r["self"][layer])

    def calls(r, layer):
        return sum(n for name, n in r["calls"].items()
                   if LAYER_OF[name] == layer)

    metrics["ntt.calls"] = med(lambda r: calls(r, "ntt.forward")
                               + calls(r, "ntt.inverse"))
    metrics["rns.bconv_calls"] = med(lambda r: calls(r, "rns.bconv"))
    metrics["rns.auto_calls"] = med(lambda r: calls(r, "rns.auto"))
    metrics["trace.op_attributed_frac"] = med(
        lambda r: r["op_total"] / r["wall"])
    metrics["trace.kernel_attributed_frac"] = med(
        lambda r: sum(r["self"].values()) / r["wall"])
    setup_self = setup["self"] if setup else defaultdict(float)
    metrics["keys.keygen_s"] = setup_self["keys.keygen"]
    metrics["workloads.trace_build_s"] = setup_self["workloads.trace_build"]
    metrics["keys.evk_count"] = float(sum(
        n for name, n in total_calls(spans).items()
        if LAYER_OF[name] == "keys.keygen"))
    return metrics


def total_calls(spans: list[list]) -> Counter:
    return Counter(name for name, *_ in spans
                   if not name.startswith(OP_PREFIX) and name != ROOT)


def counter_mismatches(spans: list[list], counter) -> list[str]:
    """Wrapper call counts that disagree with the program's counters.

    ``counter(name)`` reads one ``repro.obs`` counter.  Both sides
    cover the same windows (set-up and traced iterations), so any
    difference means a wrapper missed a call path, typically a
    rebound ``from ... import`` name.
    """
    calls = total_calls(spans)
    rescale_converts = sum(
        1 for name, _, _, parent, _ in spans
        if name == "BConvPlan.convert" and parent >= 0
        and spans[parent][0] == "exact_rescale")
    pairs = (
        ("BatchNttPlan.forward", calls["BatchNttPlan.forward"],
         counter("ntt.batch_forward")),
        ("BatchNttPlan.inverse", calls["BatchNttPlan.inverse"],
         counter("ntt.batch_inverse")),
        ("NttPlan.forward", calls["NttPlan.forward"], counter("ntt.forward")),
        ("NttPlan.inverse", calls["NttPlan.inverse"], counter("ntt.inverse")),
        ("BConvPlan.convert outside exact_rescale",
         calls["BConvPlan.convert"] - rescale_converts,
         counter("rns.bconv.matrix")),
        ("RnsPoly.automorphism", calls["RnsPoly.automorphism"],
         counter("rns.auto.eval") + counter("rns.auto.eval_roundtrip")
         + counter("rns.auto.coeff")),
        ("key_mult_accumulate", calls["key_mult_accumulate"],
         counter("keyswitch.kmu.fused")
         + counter("keyswitch.kmu.object_fallback")),
        ("hoisted_rotations", calls["hoisted_rotations"],
         counter("keyswitch.hoisting.batch")),
        ("compose_crt", calls["compose_crt"], counter("rns.compose_crt")),
        ("klss_key_switch", calls["klss_key_switch"],
         counter("keyswitch.klss")),
        ("mod_down_batch", calls["mod_down_batch"],
         counter("keyswitch.moddown.eval_batch")),
        ("mod_down_rescale_pair", calls["mod_down_rescale_pair"],
         counter("keyswitch.moddown.fused_rescale")),
    )
    return [f"{name}: wrapper saw {seen}, counter says {int(count)}"
            for name, seen, count in pairs if seen != count]
