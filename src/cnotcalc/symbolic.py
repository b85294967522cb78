"""Symbolic execution: the affine relation of a run of gates, found one
gate at a time as the gates come.  ``Circuit.semantics`` runs its gates
through ``relation_of``, and ``semantics_reader.parse_semantics`` those of
each window of a circuit file as it reads them.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Optional, Sequence

from .gates import CNOT, INIT1, SWAP, Gate, width_after
from .relation import AffineRelation

_CHUNK = 64  # wires, so that a small register is built in one go


def relation_of(
    n: int, runs: Iterable[Sequence[Gate]], n_out: Optional[int] = None
) -> AffineRelation:
    """The affine partial isomorphism that the gates of ``runs``, one run
    after another, compute from ``n`` input wires.  Each wire carries an
    affine expression in the inputs and each ``post1`` adds a domain row.

    A gate out of range raises the ``CircuitError`` that ``Circuit`` raises
    for it.  A ``post1`` of the constant 0 makes the relation empty; the
    gates after it are still run, and so checked, unless ``n_out`` says that
    they are legal and end at that width.
    """
    # Without ``n_out``, ``wires`` holds the expressions of the lowest wires
    # only, built _CHUNK or more at a time as the gates reach them; the
    # ``tail`` wires above them still carry the last inputs unchanged, so a
    # wide register costs little before the gates reach its wires.  A gate
    # that reaches past ``wires`` raises IndexError, which costs nothing
    # until it is raised, and is then run again.
    one = 1 << n  # constant-term bit of a wire expression
    wires = [1 << k for k in range(n if n_out is not None else min(n, _CHUNK))]
    tail = n - len(wires)
    domain: list[int] = []
    empty = False
    base = 0  # the index of the first gate of ``gates``
    for gates in runs:
        start = len(wires) + tail  # the width before ``gates``
        todo = iter(gates)
        while True:
            try:
                for g in todo:
                    kind = g.kind
                    if kind == CNOT:
                        wires[g.b] ^= wires[g.a]
                    elif kind == INIT1:
                        if g.a > len(wires):
                            raise IndexError
                        wires.insert(g.a, one)
                    elif kind == SWAP:
                        a, b = g.a, g.b
                        wires[a], wires[b] = wires[b], wires[a]
                    else:
                        e = wires.pop(g.a)
                        if not e:
                            if n_out is not None:
                                return AffineRelation.empty(n, n_out)
                            empty = True
                        domain.append(e ^ one)  # the row of e(x) = 1
                break
            except IndexError:  # g reaches past ``wires``
                if g.need > len(wires) + tail:
                    width_after(gates, start, base)  # raises the error of the first gate out of range
                tail = _reach(wires, n, tail, g.need)
                todo = chain((g,), todo)
        base += len(gates)
    if empty:
        return AffineRelation.empty(n, len(wires) + tail)
    if tail:
        wires += [1 << k for k in range(n - tail, n)]
    rel = AffineRelation.from_map(n, wires, domain)
    if not rel.is_partial_iso():
        raise RuntimeError("circuit semantics must be a partial isomorphism")
    return rel


def _reach(wires: list[int], n: int, tail: int, need: int) -> int:
    """The ``tail`` of the register once ``wires``, above which ``tail``
    wires carry the last of ``n`` inputs, holds the ``need`` lowest wires,
    and ``_CHUNK`` more while there are."""
    width = len(wires) + tail
    first = n - tail  # the input on the lowest wire not in ``wires``
    stop = min(width, max(need, len(wires) + _CHUNK))
    wires += [1 << k for k in range(first, first + stop - len(wires))]
    return width - stop
