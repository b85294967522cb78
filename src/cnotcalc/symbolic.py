"""Symbolic execution: the affine relation of a gate list, each gate read
by its kind and wires alone.  ``run`` is the loop over ``Gate``s, which
``Circuit.semantics`` runs through ``relation_of`` and
``semantics_reader.parse_semantics`` on the lines it does not run itself.
"""

from __future__ import annotations

from typing import Iterable

from .gates import CNOT, INIT1, SWAP, Gate
from .relation import AffineRelation


def run(wires: list[int], gates: Iterable[Gate], one: int, domain: list[int]) -> bool:
    """Run ``gates`` on the wire expressions ``wires``, whose constant-term
    bit is ``one``, each ``post1`` adding its domain row to ``domain``;
    False, and the gates after it not run, once a ``post1`` of the constant
    0 makes the relation empty.  Each gate must be in range."""
    for g in gates:
        kind = g.kind
        if kind == CNOT:
            wires[g.b] ^= wires[g.a]
        elif kind == INIT1:
            wires.insert(g.a, one)
        elif kind == SWAP:
            a, b = g.a, g.b
            wires[a], wires[b] = wires[b], wires[a]
        else:
            e = wires.pop(g.a)
            if not e:
                return False
            domain.append(e ^ one)  # the row of e(x) = 1
    return True


def relation_of(n: int, gates: Iterable[Gate], n_out: int) -> AffineRelation:
    """The affine partial isomorphism that ``gates``, legal from ``n``
    input wires and ending at ``n_out``, compute.  Each wire carries an
    affine expression in the inputs and each ``post1`` adds a domain row;
    a ``post1`` of the constant 0 makes the relation empty whatever
    follows, so the gates after it are not run."""
    wires = [1 << k for k in range(n)]
    domain: list[int] = []
    if not run(wires, gates, 1 << n, domain):
        return AffineRelation.empty(n, n_out)
    return relation_from(n, wires, domain)


def relation_from(n: int, wires: list[int], domain: list[int]) -> AffineRelation:
    """The relation of the output expressions ``wires`` and the domain rows
    ``domain`` over ``n`` inputs, which a run of gates left."""
    rel = AffineRelation.from_map(n, wires, domain)
    if not rel.is_partial_iso():
        raise RuntimeError("circuit semantics must be a partial isomorphism")
    return rel
