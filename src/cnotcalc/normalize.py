"""Clausal normal form for restriction idempotents.

A restriction idempotent on n wires is the identity on an affine subspace of
GF(2)^n, i.e. the solution set of parity equations.  Its canonical clausal
form lists one clause per equation, with the coefficient matrix in reduced
row echelon form as relations are canonicalized; an unsatisfiable system
canonicalizes to the row 0 = 1, the single clause ``UNSAT`` = (emptyset, 1).
Emitting the clause circuits in order gives a gate-list-identical canonical
circuit for every semantic class of idempotents.
"""

from __future__ import annotations

from typing import Iterable

# rref_masks is unused here; perfbench's install test asserts that this
# module binds it, until that pin goes (ROADMAP 1B).
from .gf2 import rref_masks, set_bits  # noqa: F401
from .circuit import Circuit, clause_circuit, wire_set
from .record import Record
from .relation import AffineRelation, _canonical


class NotIdempotentError(ValueError):
    pass


class Clause(Record):
    """One parity constraint: sum(x_i for i in support) = rhs; a support
    wire given twice raises ``ArityError``, as ``wire_set`` does."""

    __slots__ = ("support", "rhs")

    def __init__(self, support: Iterable[int], rhs: int):
        support = frozenset(wire_set(support))
        if rhs not in (0, 1):
            raise ValueError("rhs must be a bit")
        if any(i < 0 for i in support):
            raise ValueError("negative wire index")
        self._init(support, rhs)

    def mask(self, n: int) -> int:
        out = self.rhs << n
        for i in self.support:
            if i >= n:
                raise ValueError(f"wire {i} out of range for {n} wires")
            out |= 1 << i
        return out


class ClausalForm(Record):
    """An ordered list of clauses over n wires."""

    __slots__ = ("n", "clauses")

    def __init__(self, n: int, clauses: Iterable[Clause]):
        self._init(n, tuple(clauses))

    @classmethod
    def from_masks(cls, n: int, rows) -> "ClausalForm":
        """Rows are int bitmasks with the rhs at bit ``n``; the row 0 = 1
        reads as ``UNSAT``."""
        low = (1 << n) - 1
        return cls(n, [Clause(set_bits(r & low), (r >> n) & 1) for r in rows])

    def masks(self) -> list[int]:
        return [c.mask(self.n) for c in self.clauses]


UNSAT = Clause(frozenset(), 1)


def gaussian_eliminate(cf: ClausalForm) -> ClausalForm:
    """Canonicalize by row reduction on the clause matrix.

    Every elementary step is one of the clause-level moves that preserve the
    solution set: swapping two clauses or replacing {c, c'} by {c, c+c'};
    ``gaussian_eliminate_steps`` records the sequence.  The reduced clauses
    are the unique RREF, computed here by the canonicalizer of relations.
    """
    return ClausalForm.from_masks(cf.n, _canonical(cf.masks(), cf.n))


def gaussian_eliminate_steps(cf: ClausalForm) -> tuple[ClausalForm, list[tuple]]:
    """Canonical form together with the elementary move sequence.

    Steps are ("swap", i, j) - exchange clauses i and j - and ("add", i, j) -
    replace clause j by clause i + clause j.  Dropping zero clauses and the
    collapse of an inconsistent system to ``UNSAT`` happen afterwards, in
    the canonicalizer of relations, and are not recorded as moves.
    """
    n = cf.n
    work = list(cf.masks())
    steps: list[tuple] = []
    r = 0
    for col in range(n):
        bit = 1 << col
        src = next((i for i in range(r, len(work)) if work[i] & bit), None)
        if src is None:
            continue
        if src != r:
            work[r], work[src] = work[src], work[r]
            steps.append(("swap", r, src))
        for i in range(len(work)):
            if i != r and work[i] & bit:
                work[i] ^= work[r]
                steps.append(("add", r, i))
        r += 1
    return ClausalForm.from_masks(n, _canonical(work, n)), steps


def idempotent_to_clausal(r: AffineRelation) -> ClausalForm:
    """Extract the canonical equation system of a restriction idempotent.

    The domain rows are already in RREF, so they are the clauses as they
    stand.
    """
    if r.n_in != r.n_out:
        raise NotIdempotentError(
            f"arity mismatch: {r.n_in} -> {r.n_out} is not an endo-relation"
        )
    n = r.n_in
    rows = r.domain_masks()
    if r != AffineRelation.restriction_on(n, rows):
        raise NotIdempotentError("relation differs from its restriction")
    return ClausalForm.from_masks(n, rows)


def clausal_to_circuit(cf: ClausalForm) -> Circuit:
    """Emit the clause circuits in order; no clauses gives the identity."""
    gates: list = []
    for c in cf.clauses:
        gates.extend(clause_circuit(sorted(c.support), c.rhs, cf.n).gates)
    return Circuit(cf.n, gates)


def normalize_idempotent(c: Circuit) -> Circuit:
    """The canonical clausal circuit semantically equal to ``c``: the clause
    circuits, one ``cnot`` per literal, of its reduced system.  Normalizing
    it again gives the same gate list.

    Raises :class:`NotIdempotentError` (naming the failed condition) when the
    semantics of ``c`` is not a restriction idempotent.
    """
    return clausal_to_circuit(idempotent_to_clausal(c.semantics()))
