"""Symbolic execution: the affine relation of a run of gates, each read
by its kind and wires alone, found one gate at a time as the gates come.
``Circuit.semantics`` runs its gates through ``relation_of``, and
``semantics_reader.parse_semantics`` each window's as it reads a file.
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
    # that reaches past ``wires`` raises IndexError, free until raised, and
    # is run again once they hold its wires, unless it is out of range.
    one = 1 << n  # constant-term bit of a wire expression
    wires = [1 << k for k in range(n if n_out is not None else min(n, _CHUNK))]
    tail = n - len(wires)
    domain: list[int] = []
    empty = False
    base = 0  # the index of the first gate of ``gates``
    for gates in runs:
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
                need = max(g.a, g.b or 0) + (g.kind != INIT1)  # the least width g is legal at
                if need > len(wires) + tail:  # g is the first out of range: raise, building nothing
                    gate = Gate(g.kind, (g.a,) if g.b is None else (g.a, g.b))
                    width_after((gate,), len(wires) + tail, base + len(gates) - 1 - len([*todo]))
                tail = _reach(wires, n, tail, need)
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
    """Extend ``wires``, below ``tail`` unbuilt wires of ``n`` inputs, to the
    ``need`` lowest wires and ``_CHUNK`` more while there are; the new tail."""
    width = len(wires) + tail
    first = n - tail  # the input on the lowest wire not in ``wires``
    stop = min(width, max(need, len(wires) + _CHUNK))
    wires += [1 << k for k in range(first, first + stop - len(wires))]
    return width - stop
