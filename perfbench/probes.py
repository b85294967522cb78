"""Probes: single-shot in-process timings at the sizes of the ROADMAP
item-1 hand measurements.

    PYTHONPATH=src python3 perfbench/probes.py

Prints one JSON object of probe readings.  These are per-layer readings,
not end-to-end metrics.
"""

import json
import random
import sys
import time

import gen
from cnotcalc.circuit import Circuit, Gate, clause_circuit, fanout, plus_map
from cnotcalc.rewrite import apply_at, axiom

APPLY_AT_REPEATS = 20


def _timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


def _circuit(n, gates) -> Circuit:
    return Circuit(n, [Gate(g[0], tuple(g[1:])) for g in gates])


def main() -> None:
    rng = random.Random("probes")
    out = {}

    # semantics at 256 wires, ~180k gates, ~50k post-selections
    gates, _ = gen.steered_circuit(rng, 256, 180_000, post_rate=0.25)
    c = _circuit(256, gates)
    out["probe.semantics_256_s"], _ = _timed(c.semantics)
    out["probe.semantics_256_posts"] = sum(g[0] == "post1" for g in gates)

    out["probe.fanout_256_s"], f = _timed(lambda: fanout(256))
    out["probe.fanout_256_gates"] = len(f.gates)
    out["probe.plus_map_256_s"], p = _timed(lambda: plus_map(256))
    out["probe.plus_map_256_gates"] = len(p.gates)
    out["probe.clause_128_64_s"], k = _timed(lambda: clause_circuit(range(0, 128, 2), 1, 128))
    out["probe.clause_128_64_gates"] = len(k.gates)

    # apply_at on a 20k-gate circuit, CNT2 instance in the middle
    n = 32
    half = gen.total_circuit(rng, n, 10_000)
    a, b = rng.sample(range(n), 2)
    big = _circuit(n, half + [("cnot", a, b), ("cnot", a, b)] + gen.total_circuit(rng, n, 10_000))
    rule = axiom("CNT2")
    t, results = _timed(lambda: [apply_at(big, rule, len(half)) for _ in range(APPLY_AT_REPEATS)])
    if any(r is None for r in results):
        sys.exit("apply_at probe: the planted CNT2 instance did not match")
    out["probe.apply_at_20k_ms"] = 1000 * t / APPLY_AT_REPEATS
    print(json.dumps(out))


if __name__ == "__main__":
    main()
