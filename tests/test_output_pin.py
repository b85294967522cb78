"""The gate lists the commands print, pinned as one digest.

``synth``, ``normalize`` and ``construct`` choose one circuit among many
equal ones; which one is behaviour too, so a change that keeps every
semantics but reorders or rewrites gates shows here.
"""

import hashlib

from cnotcalc.circuit import clause_circuit, fanout, hat, omega_nm, plus_map
from cnotcalc.formats import format_circuit
from cnotcalc.fuzzing import random_circuit, trial_rng
from cnotcalc.normalize import normalize_idempotent
from cnotcalc.synth import synth


def corpus():
    """Synth of 200 seeded random relations and of their converses (total,
    partial and empty ones), normalize of ``c ; c-dagger`` for 50 of the
    circuits, then the named constructions."""
    for i in range(200):
        rng = trial_rng(17, i)
        c = random_circuit(rng, rng.randrange(7), rng.randrange(1, 60), allow_post=i % 4 != 0)
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
