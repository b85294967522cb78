"""Affine partial isomorphisms between GF(2) vector spaces.

An :class:`AffineRelation` is the graph of a partial map ``n -> m`` that is an
affine bijection between affine subspaces, stored as a canonical constraint
system over the variables ``(x_0 .. x_{n-1}, y_0 .. y_{m-1})``.  Rows are int
bitmasks: bit ``j < n`` is an input coefficient, bit ``n + i`` an output
coefficient, and bit ``n + m`` the right-hand side.

The system is kept in reduced row echelon form with the single row ``0 = 1``
standing for the empty (nowhere-defined) relation, so structural equality of
two relations decides equality of their graphs.

A non-empty relation is a partial isomorphism exactly when every input is
a pivot of its rows and every output one of its converse rows, the rows of
``dagger``.  Apart from a graph file's raw rows, every relation built is
the graph of an affine map on an affine subspace, written by ``from_map``
from affine forms over the n inputs (coefficient j at bit j, the constant
at bit n), and read back off the converse rows by its inverse ``map_rows``.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .gf2 import BitVec, null_basis, project_masks, rref_masks, set_bits
from .record import Record

ENUMERATION_LIMIT = 20


class ArityError(ValueError):
    pass


def _canonical(masks: Iterable[int], nvars: int) -> tuple[int, ...]:
    rows, pivots = rref_masks(masks, nvars + 1)
    if nvars in pivots:
        return (1 << nvars,)
    return tuple(rows)


class AffineRelation(Record, fields=("n_in", "n_out", "_rows")):
    """Canonical affine partial isomorphism from GF(2)^n_in to GF(2)^n_out."""

    __slots__ = ("n_in", "n_out", "_rows", "_converse")  # _converse, not a field

    def __init__(self, n_in: int, n_out: int, constraint_masks: Iterable[int]):
        if n_in < 0 or n_out < 0:
            raise ArityError("arities must be nonnegative")
        self._init(n_in, n_out, _canonical(constraint_masks, n_in + n_out))

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_map(cls, n: int, forms: Sequence[int], domain: Iterable[int] = ()) -> "AffineRelation":
        """The graph of x -> (f_0(x), f_1(x), ...) on the solutions of the
        ``domain`` rows: one row per domain row, then one per output.  Bits
        of a form or a domain row above its constant (bit n) are dropped."""
        if n < 0:
            raise ArityError("arities must be nonnegative")
        m = len(forms)
        low, rhs = (1 << n) - 1, n + m
        rows = [(d & low) | ((d >> n) & 1) << rhs for d in domain]
        rows += [(f & low) | 1 << (n + i) | ((f >> n) & 1) << rhs for i, f in enumerate(forms)]
        return cls(n, m, rows)

    @classmethod
    def identity(cls, n: int) -> "AffineRelation":
        return cls.from_map(n, [1 << j for j in range(n)])

    @classmethod
    def empty(cls, n_in: int, n_out: int) -> "AffineRelation":
        """The nowhere-defined relation: one row ``0 = 1``, its own converse."""
        if n_in < 0 or n_out < 0:
            raise ArityError("arities must be nonnegative")
        rows = (1 << (n_in + n_out),)
        return cls._of(n_in, n_out, rows, rows)

    @classmethod
    def _of(cls, n_in: int, n_out: int, rows: tuple, converse: tuple) -> "AffineRelation":
        """Canonical ``rows`` and their ``converse``, with no elimination."""
        rel = object.__new__(cls)
        rel._init(n_in, n_out, rows)
        object.__setattr__(rel, "_converse", converse)
        return rel

    @classmethod
    def permutation(cls, perm: list[int]) -> "AffineRelation":
        """Graph {(x, x permuted)}: output i carries input perm[i]."""
        if sorted(perm) != list(range(len(perm))):
            raise ArityError(f"{perm!r} is not a permutation")
        return cls.from_map(len(perm), [1 << j for j in perm])

    @classmethod
    def restriction_on(cls, n: int, domain_rows: Iterable[int]) -> "AffineRelation":
        """The identity on n wires restricted to the solutions of
        ``domain_rows``."""
        return cls.from_map(n, [1 << j for j in range(n)], domain_rows)

    # -- structure ---------------------------------------------------------

    @property
    def constraint_masks(self) -> tuple[int, ...]:
        return self._rows

    def is_empty(self) -> bool:
        return self._rows == (1 << (self.n_in + self.n_out),)

    def __repr__(self) -> str:
        return f"AffineRelation({self.n_in}->{self.n_out}, {len(self._rows)} constraints)"

    # -- category operations -----------------------------------------------
    #
    # Each operation moves whole blocks of a row's bits (input, output,
    # rhs) with masks and shifts.  Rows of a relation have no bit above
    # their rhs.  ``compose`` puts the block it eliminates lowest, where
    # ``project_masks`` removes it.  ``dagger``, ``domain_masks``,
    # ``map_rows`` and ``partial_iso_violation`` read ``_converse_rows``.
    # ``compose`` and ``tensor`` return the empty relation at once, after
    # their arity checks, when an operand is empty.

    def _outputs_first(self, rhs: int) -> list[int]:
        """The rows with the outputs at bits ``0 .. n_out-1``, the inputs
        above them and the right-hand side at bit ``rhs``."""
        n, m = self.n_in, self.n_out
        x, y = (1 << n) - 1, (1 << m) - 1
        return [(r >> n) & y | (r & x) << m | (r >> (n + m)) << rhs for r in self._rows]

    def _converse_rows(self) -> tuple[int, ...]:
        """The canonical rows with the outputs first, eliminated once a
        relation and kept in a slot that is not a field."""
        if not hasattr(self, "_converse"):
            nv = self.n_in + self.n_out
            object.__setattr__(self, "_converse", _canonical(self._outputs_first(nv), nv))
        return self._converse

    def compose(self, other: "AffineRelation") -> "AffineRelation":
        """Relational composite: {(x,z) : exists y. (x,y) in self, (y,z) in other}."""
        if self.n_out != other.n_in:
            raise ArityError(
                f"cannot compose {self.n_in}->{self.n_out} with {other.n_in}->{other.n_out}"
            )
        n, m, p = self.n_in, self.n_out, other.n_out
        if self.is_empty() or other.is_empty():
            return AffineRelation.empty(n, p)
        nv = n + m + p
        # Variable layout: y at 0.., x at m.., z at m+n.., rhs at nv, so that
        # projecting y out leaves x, z and the rhs where the composite has them.
        rows = self._outputs_first(nv)
        rows += [(r & ((1 << m) - 1)) | (r >> m) << (m + n) for r in other._rows]
        return AffineRelation(n, p, project_masks(rows, m, nv + 1))

    def tensor(self, other: "AffineRelation") -> "AffineRelation":
        """Parallel composite on the disjoint union of wires."""
        n1, m1, n2, m2 = self.n_in, self.n_out, other.n_in, other.n_out
        if self.is_empty() or other.is_empty():
            return AffineRelation.empty(n1 + n2, m1 + m2)
        rhs = n1 + n2 + m1 + m2
        # Variable layout: x1, x2, y1, y2, rhs.
        x1, y1, x2 = (1 << n1) - 1, (1 << m1) - 1, (1 << n2) - 1
        rows = [
            (r & x1) | ((r >> n1) & y1) << (n1 + n2) | (r >> (n1 + m1)) << rhs
            for r in self._rows
        ]
        rows += [(r & x2) << n1 | (r >> n2) << (n1 + n2 + m1) for r in other._rows]
        return AffineRelation(n1 + n2, m1 + m2, rows)

    def dagger(self) -> "AffineRelation":
        """Graph converse: swap input and output roles."""
        return AffineRelation._of(self.n_out, self.n_in, self._converse_rows(), self._rows)

    def domain_masks(self) -> tuple[int, ...]:
        """Constraint system of the domain, over the n_in input variables:
        the converse rows with no output bit, shifted past the outputs.
        Canonical; ``0 = 1`` for the empty relation."""
        m = self.n_out
        return tuple(r >> m for r in self._converse_rows() if not r & ((1 << m) - 1))

    def restriction(self) -> "AffineRelation":
        """The restriction idempotent: identity on the domain of definition."""
        return AffineRelation.restriction_on(self.n_in, self.domain_masks())

    def meet(self, other: "AffineRelation") -> "AffineRelation":
        """Intersection of graphs."""
        if (self.n_in, self.n_out) != (other.n_in, other.n_out):
            raise ArityError("meet requires equal arities")
        return AffineRelation(self.n_in, self.n_out, self._rows + other._rows)

    def is_partial_iso(self) -> bool:
        """No homogeneous solution has zero x-part or zero y-part."""
        return self.partial_iso_violation() is None

    def partial_iso_violation(self) -> Optional[tuple[str, BitVec]]:
        """None for a partial isomorphism, else (side, direction) naming a
        nonzero homogeneous solution whose ``side`` part is zero."""
        if self.is_empty():
            return None
        for side, rows, k in (("x", self._converse_rows(), self.n_out), ("y", self._rows, self.n_in)):
            v = _free_direction(rows, k)
            if v is not None:
                return side, BitVec.from_mask(k, v)
        return None

    def map_rows(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The forms and the domain rows of the map, the inverse of
        ``from_map``: converse row i < n_out reads y_i = a_i.x + c_i, the
        rows past them the domain.  ``ValueError`` when the inputs do not
        fix an output."""
        m = self.n_out
        rows = self._converse_rows()
        if self.is_empty():
            rows = (0,) * m + rows
        elif _free_direction(rows, m) is not None:
            raise ValueError("relation is not a partial isomorphism: image not unique")
        shifted = tuple(row >> m for row in rows)
        return shifted[:m], shifted[m:]

    def apply_all(self, columns: Sequence[int], lanes: int) -> tuple[list[int], int]:
        """``lanes`` inputs at once, as ``Circuit.eval_all`` runs them: a
        form's value is the XOR of its inputs' columns, and of a column of
        ones for its constant; ``defined`` where every domain row is 0."""
        if len(columns) != self.n_in:
            raise ArityError(f"input of length {len(columns)} for arity {self.n_in}")
        forms, domain = self.map_rows()
        defined = (1 << lanes) - 1
        columns = [*columns, defined]

        def value(form: int) -> int:
            v = 0
            for j in set_bits(form):
                v ^= columns[j]
            return v

        for row in domain:
            defined &= ~value(row)
        return [value(f) & defined for f in forms], defined

    def apply(self, x: BitVec) -> Optional[BitVec]:
        """The unique image of x, or None when x is outside the domain:
        ``apply_all`` at one lane."""
        out, defined = self.apply_all(list(x), 1)
        return BitVec(out) if defined else None

    def is_total(self) -> bool:
        return not self.domain_masks()


def _free_direction(rows: Sequence[int], k: int) -> Optional[int]:
    """None when each column below ``k`` is a pivot of the canonical
    ``rows``, else the first ``null_basis`` vector of that block."""
    low = (1 << k) - 1
    block = [r & low for r in rows if r & low]
    if len(block) == k:
        return None
    return null_basis(block, [(r & -r).bit_length() - 1 for r in block], k)[0]


def all_bitvecs(n: int) -> list[BitVec]:
    return [BitVec.from_mask(n, v) for v in range(1 << n)]


def all_columns(n: int) -> list[int]:
    """Every n-bit input at once, in the order of ``all_bitvecs``: bit k of
    column j is bit j of k.  Each of the n columns takes 2^n / 8 bytes."""
    columns, lanes = [], 1
    for _ in range(n):
        columns = [c | c << lanes for c in columns] + [((1 << lanes) - 1) << lanes]
        lanes *= 2
    return columns


__all__ = ["AffineRelation", "ArityError", "all_bitvecs", "all_columns", "ENUMERATION_LIMIT"]
