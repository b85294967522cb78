"""Clausal normal form for restriction idempotents.

A restriction idempotent on n wires is the identity on an affine subspace of
GF(2)^n, i.e. the solution set of parity equations.  Its canonical clausal
form lists one clause per equation, with the coefficient matrix in reduced
row echelon form; the unsatisfiable system is the single clause (emptyset, 1).
Emitting the clause circuits in order gives a gate-list-identical canonical
circuit for every semantic class of idempotents.
"""

from __future__ import annotations

from typing import Iterable

from .gf2 import rref_masks, set_bits
from .circuit import Circuit, clause_circuit
from .record import Record
from .relation import AffineRelation


class NotIdempotentError(ValueError):
    pass


class Clause(Record):
    """One parity constraint: sum(x_i for i in support) = rhs."""

    __slots__ = ("support", "rhs")

    def __init__(self, support: Iterable[int], rhs: int):
        support = frozenset(support)
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
        """Rows are int bitmasks with the rhs at bit ``n``."""
        return cls(n, _clauses_from_masks(rows, n))

    def masks(self) -> list[int]:
        return [c.mask(self.n) for c in self.clauses]


def _clauses_from_masks(rows: Iterable[int], n: int) -> tuple[Clause, ...]:
    low = (1 << n) - 1
    return tuple(Clause(set_bits(r & low), (r >> n) & 1) for r in rows)


UNSAT = Clause(frozenset(), 1)


def gaussian_eliminate(cf: ClausalForm) -> ClausalForm:
    """Canonicalize by row reduction on the clause matrix.

    Every elementary step is one of the clause-level moves that preserve the
    solution set: swapping two clauses or replacing {c, c'} by {c, c+c'};
    ``gaussian_eliminate_steps`` records the sequence.  The reduced clauses
    are the unique RREF, computed here by ``rref_masks``; a pivot in the rhs
    column is the clause 0 = 1.
    """
    n = cf.n
    rows, pivots = rref_masks(cf.masks(), n + 1)
    if n in pivots:
        return ClausalForm(n, (UNSAT,))
    return ClausalForm(n, _clauses_from_masks(rows, n))


def gaussian_eliminate_steps(cf: ClausalForm) -> tuple[ClausalForm, list[tuple]]:
    """Canonical form together with the elementary move sequence.

    Steps are ("swap", i, j) - exchange clauses i and j - and ("add", i, j) -
    replace clause j by clause i + clause j.  Dropping zero clauses and the
    collapse of an inconsistent system to (emptyset, 1) happen afterwards and
    are not recorded as moves.
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
    rows = [m for m in work if m]
    if any(m == (1 << n) for m in rows):
        return ClausalForm(n, (UNSAT,)), steps
    return ClausalForm(n, _clauses_from_masks(rows, n)), steps


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
    if rows == (1 << n,):
        return ClausalForm(n, (UNSAT,))
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
