"""Independent answer oracle for the benchmark.

A gate-by-gate bit simulator that shares no code with ``cnotcalc``.  Wires
are bit-sliced: wire ``i`` holds an int whose bit ``j`` is the value of that
wire on sample input ``j``, so one pass over a gate list evaluates every
sampled input at once.

A sample result is the output as an int (bit ``i`` = output wire ``i``), or
``None`` where a post-selection fails.
"""

from __future__ import annotations

import random

ARITY = {"cnot": 2, "swap": 2, "init1": 1, "post1": 1}


class OracleError(ValueError):
    pass


def parse_circuits(text: str) -> list[tuple[str, int, int, list[tuple]]]:
    """Every ``circuit <name> : <n> -> <m> ... end`` block in ``text``; the
    CLI prints primitive gates only."""
    blocks = []
    current = None
    for raw in text.splitlines():
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        if current is None:
            if tokens[0] != "circuit" or len(tokens) != 6:
                raise OracleError(f"expected a circuit header, got {raw!r}")
            current = (tokens[1], int(tokens[3]), int(tokens[5]), [])
        elif tokens == ["end"]:
            blocks.append(current)
            current = None
        else:
            kind, args = tokens[0], [int(t) for t in tokens[1:]]
            if ARITY.get(kind) != len(args):
                raise OracleError(f"bad gate line {raw!r}")
            current[3].append((kind, *args))
    if current is not None:
        raise OracleError("unterminated circuit block")
    return blocks


def slice_inputs(inputs: list[int], n: int) -> list[int]:
    """Bit-slice sample inputs: wire i gets bit j = bit i of inputs[j]."""
    wires = [0] * n
    for j, x in enumerate(inputs):
        i = 0
        while x:
            if x & 1:
                wires[i] |= 1 << j
            x >>= 1
            i += 1
    return wires


def unslice(wires: list[int], defined: int, count: int) -> list:
    out = []
    for j in range(count):
        if not (defined >> j) & 1:
            out.append(None)
            continue
        v = 0
        for i, w in enumerate(wires):
            v |= ((w >> j) & 1) << i
        out.append(v)
    return out


def run_sliced(n_in: int, gates, wires: list[int], ones: int) -> tuple[list[int], int]:
    """Apply a primitive gate list to bit-sliced wires; returns (wires, defined)."""
    if len(wires) != n_in:
        raise OracleError(f"{len(wires)} wires for arity {n_in}")
    w = list(wires)
    defined = ones
    for g in gates:
        k = g[0]
        width = len(w)
        if k == "cnot":
            c, t = g[1], g[2]
            if c == t or not (0 <= c < width and 0 <= t < width):
                raise OracleError(f"invalid gate {g} at width {width}")
            w[t] ^= w[c]
        elif k == "swap":
            a, b = g[1], g[2]
            if a == b or not (0 <= a < width and 0 <= b < width):
                raise OracleError(f"invalid gate {g} at width {width}")
            w[a], w[b] = w[b], w[a]
        elif k == "init1":
            if not 0 <= g[1] <= width:
                raise OracleError(f"invalid gate {g} at width {width}")
            w.insert(g[1], ones)
        elif k == "post1":
            if not 0 <= g[1] < width:
                raise OracleError(f"invalid gate {g} at width {width}")
            defined &= w.pop(g[1])
        else:
            raise OracleError(f"unknown gate {g}")
    return w, defined


def simulate(n_in: int, gates, inputs: list[int]) -> list:
    """Results of the circuit on each sample input."""
    ones = (1 << len(inputs)) - 1
    wires, defined = run_sliced(n_in, gates, slice_inputs(inputs, n_in), ones)
    return unslice(wires, defined, len(inputs))


def sample_inputs(n: int, witnesses: list[int], count: int, seed: str) -> list[int]:
    """The witnesses followed by seeded random inputs, ``count`` in all."""
    rng = random.Random(seed)
    extra = [rng.getrandbits(n) if n else 0 for _ in range(max(0, count - len(witnesses)))]
    return list(witnesses) + extra


def first_difference(a: list, b: list):
    """Index of the first sample on which two result lists differ, or None."""
    for j, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return j
    return None


# -- reference maps for the named constructions ----------------------------------


def _parity(x: int) -> int:
    return bin(x).count("1") & 1


def fanout_ref(n: int):
    return n, 2 * n, lambda x: x | (x << n)


def plus_ref(n: int):
    m = (1 << n) - 1

    def f(x):
        a, b, c = x & m, (x >> n) & m, (x >> (2 * n)) & m
        return a | (b << n) | ((a ^ b ^ c) << (2 * n))

    return 3 * n, 3 * n, f


def clause_ref(n: int, rhs: int, support: list[int]):
    mask = sum(1 << i for i in set(support))
    return n, n, lambda x: x if _parity(x & mask) == rhs else None


def affine_ref(rows: list[int], shift: int, n: int):
    """x -> (x, T x + s) for an ``affine`` synthesis input; rows are masks."""

    def f(x):
        y = 0
        for i, r in enumerate(rows):
            y |= (_parity(r & x) ^ ((shift >> i) & 1)) << i
        return x | (y << n)

    return n, n + len(rows), f


def check_against(block, n_in: int, n_out: int, expected: list, inputs: list[int]):
    """None when ``block`` (a parsed circuit) matches ``expected`` on the
    sample inputs, else a message naming the first disagreement."""
    _, bn, bm, gates = block
    if (bn, bm) != (n_in, n_out):
        return f"arity {bn}->{bm}, expected {n_in}->{n_out}"
    ones = (1 << len(inputs)) - 1
    try:
        wires, defined = run_sliced(bn, gates, slice_inputs(inputs, bn), ones)
    except OracleError as e:
        return f"emitted circuit is invalid: {e}"
    if len(wires) != bm:
        return f"gates yield {len(wires)} outputs, header says {bm}"
    got = unslice(wires, defined, len(inputs))
    j = first_difference(got, expected)
    if j is not None:
        return f"sample {j}: got {got[j]}, expected {expected[j]}"
    return None
