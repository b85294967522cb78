"""Seeded, class-aware circuit generators for the benchmark inputs.

Circuits are lists of primitive gates: ``("cnot", c, t)``, ``("swap", a, b)``,
``("init1", p)`` and ``("post1", p)``.  Nothing here imports ``cnotcalc``.

Random circuits with post-selection are almost always nowhere defined, so
the partial generator is witness-steered: it tracks concrete inputs (the
witnesses, bit-sliced into one int per wire) and post-selects each wire on
the value the witnesses agree on, so the witnesses stay in the domain.
"""

from __future__ import annotations

import oracle


def format_circuit(name: str, n_in: int, gates) -> str:
    width = n_in + sum(1 if g[0] == "init1" else -1 if g[0] == "post1" else 0 for g in gates)
    lines = [f"circuit {name} : {n_in} -> {width}"]
    lines += [" ".join(map(str, g)) for g in gates]
    lines.append("end")
    return "\n".join(lines) + "\n"


def widths(n_in: int, gates) -> list[int]:
    """Width before each gate, then the final width."""
    out = [n_in]
    w = n_in
    for g in gates:
        w += 1 if g[0] == "init1" else -1 if g[0] == "post1" else 0
        out.append(w)
    return out


def _two(rng, width: int) -> tuple[int, int]:
    a = rng.randrange(width)
    b = rng.randrange(width - 1)
    return a, b + (b >= a)


def total_circuit(rng, n: int, ngates: int, swap_share: float = 0.2) -> list[tuple]:
    """A post-free circuit on n wires: a total affine bijection."""
    gates = []
    for _ in range(ngates):
        kind = "swap" if rng.random() < swap_share else "cnot"
        gates.append((kind, *_two(rng, n)))
    return gates


def steered_circuit(
    rng, n: int, ngates: int, post_rate: float, witnesses: int = 1, band: int = 16
) -> tuple[list[tuple], list[int]]:
    """A partial circuit on n input wires whose witnesses stay in its domain.

    Each step posts a wire with probability ``post_rate``, inserts an
    ancilla with the same probability, and otherwise applies a cnot or swap.
    The width stays within ``n +- band``.  A post on a wire the witnesses
    hold at 0 is written as the ``post0`` expansion, an ancilla at 0 as the
    ``init0`` expansion.  Returns (gates, witnesses as input masks).
    """
    wit = [rng.getrandbits(n) for _ in range(witnesses)]
    full = (1 << witnesses) - 1
    vals = [sum(((w >> i) & 1) << j for j, w in enumerate(wit)) for i in range(n)]
    gates: list[tuple] = []
    while len(gates) < ngates:
        width = len(vals)
        r = rng.random()
        if r < post_rate and width > max(1, n - band):
            for _ in range(8):
                p = rng.randrange(width)
                if vals[p] in (0, full):
                    break
            else:
                continue
            if vals[p] == full:
                gates.append(("post1", p))
            else:
                gates += [("init1", p), ("cnot", p, p + 1), ("post1", p), ("post1", p)]
            del vals[p]
        elif r < 2 * post_rate and width < n + band:
            p = rng.randrange(width + 1)
            if rng.random() < 0.5:
                gates.append(("init1", p))
                vals.insert(p, full)
            else:
                gates += [("init1", p), ("init1", p), ("cnot", p, p + 1), ("post1", p)]
                vals.insert(p, 0)
        elif width >= 2:
            a, b = _two(rng, width)
            if rng.random() < 0.2:
                gates.append(("swap", a, b))
                vals[a], vals[b] = vals[b], vals[a]
            else:
                gates.append(("cnot", a, b))
                vals[b] ^= vals[a]
    return gates, wit


def _insert_all(gates, inserts: dict[int, list[tuple]]) -> list[tuple]:
    out: list[tuple] = []
    for i, g in enumerate(gates):
        out += inserts.get(i, ())
        out.append(g)
    out += inserts.get(len(gates), ())
    return out


def equal_edits(rng, n_in: int, gates, count: int, cnt6: bool = True) -> list[tuple]:
    """Semantics-preserving edits: ``count`` inserted CNT2 pairs (cnot a b
    twice) or, with ``cnt6``, CNT6 pairs (init1 p; post1 p); and half of the
    swaps rewritten as three cnots (CNT1)."""
    ws = widths(n_in, gates)
    inserts: dict[int, list[tuple]] = {}
    for pos in rng.sample(range(len(gates) + 1), min(count, len(gates) + 1)):
        w = ws[pos]
        if w >= 2 and not (cnt6 and rng.random() < 0.3):
            a, b = _two(rng, w)
            inserts[pos] = [("cnot", a, b), ("cnot", a, b)]
        elif cnt6:
            p = rng.randrange(w + 1)
            inserts[pos] = [("init1", p), ("post1", p)]
    out = []
    for g in _insert_all(gates, inserts):
        if g[0] == "swap" and rng.random() < 0.5:
            a, b = g[1], g[2]
            out += [("cnot", a, b), ("cnot", b, a), ("cnot", a, b)]
        else:
            out.append(g)
    return out


def flip(rng, n_in: int, gates, witness: int) -> list[tuple]:
    """Insert one cnot whose control holds 1 under the witness.

    On a total circuit any extra cnot changes the bijection.  On a partial
    one the witness's state then differs, so its output differs or the
    witness leaves the domain: either way the semantics changes.
    """
    i = rng.randrange(len(gates) + 1)
    wires, _ = oracle.run_sliced(n_in, gates[:i], oracle.slice_inputs([witness], n_in), 1)
    ones = [p for p, v in enumerate(wires) if v]
    if not ones or len(wires) < 2:
        raise ValueError("no wire holds 1 under the witness at the chosen offset")
    c = rng.choice(ones)
    t = rng.choice([p for p in range(len(wires)) if p != c])
    return gates[:i] + [("cnot", c, t)] + gates[i:]


def make_empty(rng, n_in: int, gates) -> list[tuple]:
    """Insert a copy of some wire and post-select the wire and its copy on
    opposite values (e = 1 and e = 0): the domain becomes empty."""
    ws = widths(n_in, gates)
    pos = rng.randrange(len(gates) + 1)
    while ws[pos] < 1:
        pos = (pos + 1) % (len(gates) + 1)
    p = rng.randrange(ws[pos])
    block = [
        ("init1", p + 1), ("init1", p + 1), ("cnot", p + 1, p + 2), ("post1", p + 1),
        ("cnot", p, p + 1),
        ("post1", p),
        ("init1", p), ("cnot", p, p + 1), ("post1", p), ("post1", p),
        ("init1", p),
    ]
    return gates[:pos] + block + gates[pos:]


def dagger(gates) -> list[tuple]:
    swap_kind = {"init1": "post1", "post1": "init1"}
    return [(swap_kind.get(g[0], g[0]), *g[1:]) for g in reversed(gates)]


def symbolic(n_in: int, gates) -> tuple[list[int], list[int]]:
    """Symbolic execution over the inputs.

    Returns (domain rows, output expressions).  An expression is a mask with
    bit ``i < n_in`` for input ``i`` and bit ``n_in`` for the constant; a
    domain row is a mask with the right-hand side at bit ``n_in``.
    """
    one = 1 << n_in
    wires = [1 << i for i in range(n_in)]
    dom = []
    for g in gates:
        k = g[0]
        if k == "cnot":
            wires[g[2]] ^= wires[g[1]]
        elif k == "swap":
            wires[g[1]], wires[g[2]] = wires[g[2]], wires[g[1]]
        elif k == "init1":
            wires.insert(g[1], one)
        else:
            dom.append(wires.pop(g[1]) ^ one)  # lin . x = 1 xor constant
    return dom, wires


def rank(rows, limit: int) -> int:
    """Rank of bitmask rows over GF(2); stops early once ``limit`` is reached."""
    basis: dict[int, int] = {}
    for r in rows:
        if len(basis) >= limit:
            break
        while r:
            top = r.bit_length() - 1
            b = basis.get(top)
            if b is None:
                basis[top] = r
                break
            r ^= b
    return len(basis)


def domain_codim(n_in: int, gates, witnesses: list[int]) -> int:
    """Codimension of the domain of a circuit whose witnesses lie in it."""
    dom, _ = symbolic(n_in, gates)
    span = rank([w ^ witnesses[0] for w in witnesses[1:]], n_in)
    return rank([r & ((1 << n_in) - 1) for r in dom], n_in - span)


def relation_text(n_in: int, gates) -> str:
    """The graph of a circuit as a ``graph`` relation file (raw rows, not
    canonical: the reader canonicalizes them)."""
    dom, outs = symbolic(n_in, gates)
    m = len(outs)
    lines = [f"graph {n_in} {m}"]

    def terms(mask, prefix, width):
        return [f"{prefix}{i}" for i in range(width) if (mask >> i) & 1]

    for r in dom:
        if r:  # skip the 0 = 0 rows that post0 expansions leave
            lines.append(" ".join(["parity", *terms(r, "x", n_in), "=", str(r >> n_in)]))
    for j, e in enumerate(outs):
        lines.append(" ".join(["parity", *terms(e, "x", n_in), f"y{j}", "=", str(e >> n_in)]))
    return "\n".join(lines) + "\n"


def affine_text(rows: list[int], shift: int, n: int) -> str:
    """An ``affine`` synthesis input: x -> (x, T x + s), T given by row masks."""
    lines = [f"affine {n} {len(rows)}"]
    lines += ["row " + " ".join(str((r >> j) & 1) for j in range(n)) for r in rows]
    lines.append("shift " + " ".join(str((shift >> i) & 1) for i in range(len(rows))))
    lines.append("end")
    return "\n".join(lines) + "\n"
