"""The gate lists the commands print, pinned as one digest.

``synth``, ``normalize`` and ``construct`` choose one circuit among many
equal ones; which one is behaviour too, so a change that keeps every
semantics but reorders or rewrites gates shows here.  The relations that
``semantics`` prints and that ``synth`` reads are pinned as a second digest.
"""

import hashlib
import random

from cnotcalc.circuit import clause_circuit, fanout, hat, omega_nm, plus_map
from cnotcalc.formats import format_circuit, format_relation, parse_synth_input
from cnotcalc.fuzzing import random_circuit, trial_rng
from cnotcalc.normalize import normalize_idempotent
from cnotcalc.synth import synth


def random_circuits():
    """200 seeded random circuits, a quarter of them without post-selection."""
    for i in range(200):
        rng = trial_rng(17, i)
        yield i, random_circuit(rng, rng.randrange(7), rng.randrange(1, 60), allow_post=i % 4 != 0)


def corpus():
    """Synth of the random circuits' relations and of their converses
    (total, partial and empty ones), normalize of ``c ; c-dagger`` for 50 of
    the circuits, then the named constructions."""
    for i, c in random_circuits():
        rel = c.semantics()
        yield synth(rel)
        yield synth(rel.dagger())
        if i % 4 == 0:
            yield normalize_idempotent(c.compose(c.dagger()))
    for n in range(9):
        yield fanout(n)
        yield plus_map(n)
        for m in range(9):
            yield omega_nm(n, m)
    for support, rhs, n in [((), 0, 0), ((), 1, 2), ((0,), 0, 1), ((0, 2), 1, 3), ((1, 3, 4), 0, 6)]:
        yield clause_circuit(support, rhs, n)
    for bits in [(), (0,), (1,), (1, 0, 1, 1), (0, 0, 1, 0, 1, 1, 0, 1)]:
        yield hat(bits)


# sha256 of the format_circuit text of corpus(), as the code printed it
# when synth still solved for both extensions with linear systems
OUTPUT_DIGEST = "138b613d488a2c4c97befcc093d24064ee2cf533ff9e9d0c3edb5423dfd4e2f0"


def test_printed_circuits_pinned():
    h = hashlib.sha256()
    count = 0
    for c in corpus():
        h.update(format_circuit(c).encode())
        count += 1
    assert count == 400 + 50 + 18 + 81 + 5 + 5
    assert h.hexdigest() == OUTPUT_DIGEST


def _parity_line(names, coef, point, unsat):
    """``parity`` over the names of the set bits of ``coef``, satisfied by
    ``point``; the line ``parity = 1``, which nothing satisfies, if
    ``unsat``."""
    if unsat:
        return "parity = 1"
    terms = [name for j, name in enumerate(names) if coef >> j & 1]
    return " ".join(["parity", *terms, "=", str((coef & point).bit_count() & 1)])


def _bits_line(keyword, rng, count):
    return " ".join([keyword, *(str(rng.randrange(2)) for _ in range(count))])


def synth_inputs():
    """Seeded ``graph``, ``system`` and ``affine`` texts of 0-12 inputs and
    0-8 outputs: parity lines through a random point, and about one line in
    ten that no point satisfies."""
    rng = random.Random(23)
    for _ in range(60):
        n, m = rng.randrange(13), rng.randrange(9)
        point = rng.getrandbits(n + m)
        x = [f"x{j}" for j in range(n)]
        wires = [str(j) for j in range(n)]
        graph, system, affine = [f"graph {n} {m}"], [f"system {n}"], [f"affine {n} {m}"]
        for _ in range(rng.randrange(n + m + 2)):
            coef, unsat = rng.getrandbits(n + m), rng.randrange(10) == 0
            graph.append(_parity_line(x + [f"y{i}" for i in range(m)], coef, point, unsat))
            system.append(_parity_line(wires, coef, point, unsat))
            if rng.randrange(3) == 0:
                affine.append(system[-1])
        affine += [_bits_line("row", rng, n) for _ in range(m)]
        affine.append(_bits_line("shift", rng, m))
        for lines in (graph, system, affine):
            yield "\n".join(lines + ["end"]) + "\n"


def relation_corpus():
    """The semantics of the random circuits, then the relations that
    ``parse_synth_input`` reads from ``synth_inputs()``."""
    for _, c in random_circuits():
        yield c.semantics()
    for text in synth_inputs():
        yield parse_synth_input(text)


# sha256 of the format_relation text of relation_corpus(), as the code
# printed it when each of its constructors laid out its own rows
RELATION_DIGEST = "b27dc4f7948e128ca5f5b57e09574526b8cc7276314143f83cc30f4e00a8f23f"


def test_printed_relations_pinned():
    h = hashlib.sha256()
    count = 0
    for r in relation_corpus():
        h.update(format_relation(r).encode())
        count += 1
    assert count == 200 + 180
    assert h.hexdigest() == RELATION_DIGEST
