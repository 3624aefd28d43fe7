"""The benchmark's workloads.

Each workload is a closed loop with one caller: the next iteration
starts only when the previous one has returned.  A workload builds
everything it needs from its seed, runs one iteration through the
public API of ``repro.ckks`` or ``repro.sim``, and checks the result
against a reference the benchmark computes itself (numpy plaintext
arithmetic for CKKS, the first pass's statistics for the simulator).

Every call into ``CkksContext`` goes through ``op(name, fn, ...)`` so
the traced run can wrap it in an op span; in the timed run ``op`` is
a plain call.
"""

from __future__ import annotations

import numpy as np

# Wrong-answer bound: an iteration fails when its largest slot error
# exceeds this share of the reference's largest magnitude.  A wrong
# result (a lost rotation, a bad key, a dropped limb) errs by about the
# message magnitude itself; CKKS noise, including the known hybrid
# precision loss at high levels, stays orders of magnitude below it.
WRONG_ANSWER_SHARE = 0.05


def plain_call(name, fn, /, *args, **kwargs):
    """The timed run's ``op``: call straight through, record nothing."""
    return fn(*args, **kwargs)


def random_message(rng: np.random.Generator, slots: int) -> np.ndarray:
    """Slots drawn uniformly from the complex unit square [-1, 1]^2."""
    return rng.uniform(-1.0, 1.0, slots) + 1j * rng.uniform(-1.0, 1.0, slots)


def slot_error(got: np.ndarray, expected: np.ndarray) -> float:
    return float(np.max(np.abs(got - expected)))


class CkksWorkload:
    """Shared plumbing: context, message stream, check and probes."""

    kind = "ckks"
    ring_degree = 4096
    max_level = 6

    def __init__(self, seed: int):
        from repro.ckks import CkksContext, set_ii_mini
        self.rng = np.random.default_rng(seed)
        self.ctx = CkksContext(set_ii_mini(self.ring_degree, self.max_level),
                               seed=seed)
        self.slots = self.ctx.params.num_slots

    def check(self, inp, out) -> tuple[float, bool]:
        """(max |decrypted - reference|, whether it is a right answer)."""
        expected = self.reference(inp)
        error = slot_error(out, expected)
        limit = WRONG_ANSWER_SHARE * max(1.0, float(np.max(np.abs(expected))))
        return error, bool(np.isfinite(error) and error <= limit)

    def rotation_errors(self, probes) -> dict[str, float]:
        """Largest error each key-switching method's rotations added.

        A probe is ``(method, input_ct, rotated_ct, steps)``; its error
        is measured against the decrypted input rotated in the clear,
        so upstream noise does not count against the rotation.
        """
        errors: dict[str, float] = {}
        for method, before, after, steps in probes:
            expected = np.roll(self.ctx.decrypt(before), -steps)
            err = slot_error(self.ctx.decrypt(after), expected)
            errors[method] = max(errors.get(method, 0.0), err)
        return errors


class HelrStep(CkksWorkload):
    """The HELR-mini step at Set-II-mini (N=4096, L=6)."""

    name = "helr-step"

    def next_input(self):
        return (random_message(self.rng, self.slots),
                self.rng.uniform(-1.0, 1.0, self.slots))

    def run(self, op, inp):
        from repro.ckks.keys import HYBRID, KLSS
        ctx = self.ctx
        message, weights = inp
        ct = op("encrypt", ctx.encrypt, message)
        ct = op("multiply_rescale_hybrid", ctx.multiply_rescale, ct, ct,
                method=HYBRID)
        pt = op("plain_for", ctx.plain_for, ct, weights)
        ct = op("multiply_plain", ctx.multiply_plain, ct, pt)
        ct = op("rescale", ctx.rescale, ct)
        ct = op("multiply_rescale_klss", ctx.multiply_rescale, ct, ct,
                method=KLSS)
        rotated = op("rotate_hybrid", ctx.rotate, ct, 1, method=HYBRID)
        out = op("decrypt", ctx.decrypt, rotated)
        return out, [("hybrid", ct, rotated, 1)]

    def reference(self, inp):
        message, weights = inp
        return np.roll((message ** 2 * weights) ** 2, -1)


class KeyswitchDeep(CkksWorkload):
    """Hoisted and single key-switches of both methods at level 10.

    The hybrid rotations stay at level 10 on purpose: there the first
    hybrid digit (q0 plus four 36-bit primes, 188 bits) outgrows the
    180-bit special modulus P, and the precision it loses must show in
    ``keyswitch.hybrid_rot_err``.
    """

    name = "keyswitch-deep"
    max_level = 10
    pool_size = 4
    hoisted_steps = tuple(range(1, 8))

    def __init__(self, seed: int):
        super().__init__(seed)
        self.pool = []
        for _ in range(self.pool_size):
            message = random_message(self.rng, self.slots)
            self.pool.append((message, self.ctx.encrypt(message)))
        self.turn = 0

    def next_input(self):
        entry = self.pool[self.turn % self.pool_size]
        self.turn += 1
        return entry

    def run(self, op, inp):
        from repro.ckks.keys import HYBRID, KLSS
        ctx = self.ctx
        _, ct = inp
        rotations = op("hoisted_rotate", ctx.hoisted_rotate, ct,
                       self.hoisted_steps, method=HYBRID)
        total = rotations[0]
        for rotated in rotations[1:]:
            total = op("add", ctx.add, total, rotated)
        shifted = op("rotate_hybrid", ctx.rotate, total, 8, method=HYBRID)
        product = op("multiply_rescale_hybrid", ctx.multiply_rescale,
                     shifted, ct, method=HYBRID)
        squared = op("multiply_rescale_klss", ctx.multiply_rescale,
                     product, product, method=KLSS)
        final = op("rotate_klss", ctx.rotate, squared, 1, method=KLSS)
        out = op("decrypt", ctx.decrypt, final)
        probes = [("hybrid", ct, r, s)
                  for r, s in zip(rotations, self.hoisted_steps)]
        probes.append(("hybrid", total, shifted, 8))
        probes.append(("klss", squared, final, 1))
        return out, probes

    def reference(self, inp):
        message, _ = inp
        total = sum(np.roll(message, -s) for s in self.hoisted_steps)
        product = np.roll(total, -8) * message
        return np.roll(product ** 2, -1)


class SimTable5:
    """One cycle-simulator pass over the four Table 5 workloads."""

    kind = "sim"
    name = "sim-table5"
    # Table 5's FAST column, in the order the traces are simulated.
    paper_fields = (("bootstrap", "bootstrap_ms"), ("helr256", "helr256_ms"),
                    ("helr1024", "helr1024_ms"), ("resnet20", "resnet20_ms"))

    def __init__(self, seed: int):
        # The simulator is deterministic; the seed only names the run.
        from repro.workloads import bootstrap_trace, helr_trace, resnet20_trace
        self.traces = {
            "bootstrap": bootstrap_trace(),
            "helr256": helr_trace(batch=256),
            "helr1024": helr_trace(batch=1024),
            "resnet20": resnet20_trace(),
        }
        self.first = None

    def next_input(self):
        return None

    def run(self, op, inp):
        from repro.hw.config import FAST_CONFIG
        from repro.sim import Engine
        results = {}
        for name, trace in self.traces.items():
            engine = op("engine", Engine, FAST_CONFIG)
            results[name] = op("simulate_" + name, engine.run, trace)
        return results, []

    @staticmethod
    def statistics(results) -> dict:
        """Every simulated statistic the benchmark reports, per trace."""
        from repro.sim.engine import UNIT_NAMES
        stats = {}
        for name, r in results.items():
            util = r.utilisation()
            stats[name] = {
                "sim_ms": r.total_s * 1e3,
                "key_hit_rate": r.key_cache_hit_rate,
                "hbm_bytes": r.hbm_bytes,
                "klss_ops": r.method_ops.get("klss", 0),
                "num_ops": r.num_ops,
                **{"util." + u: util[u] for u in UNIT_NAMES},
            }
        return stats

    def check(self, inp, out) -> tuple[float, bool]:
        """Each pass must reproduce the first pass's statistics exactly."""
        stats = self.statistics(out)
        if self.first is None:
            self.first = stats
        return 0.0, stats == self.first

    def table5_error_pct(self) -> float:
        """Mean |simulated - paper| / paper over FAST's four latencies."""
        from repro.sim.baselines import PAPER_FAST
        errors = [abs(self.first[name]["sim_ms"]
                      - getattr(PAPER_FAST, field))
                  / getattr(PAPER_FAST, field)
                  for name, field in self.paper_fields]
        return 100.0 * sum(errors) / len(errors)


WORKLOADS = {w.name: w for w in (HelrStep, KeyswitchDeep, SimTable5)}
