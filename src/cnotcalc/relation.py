"""Affine partial isomorphisms between GF(2) vector spaces.

An :class:`AffineRelation` is the graph of a partial map ``n -> m`` that is an
affine bijection between affine subspaces, stored as a canonical constraint
system over the variables ``(x_0 .. x_{n-1}, y_0 .. y_{m-1})``.  Rows are int
bitmasks: bit ``j < n`` is an input coefficient, bit ``n + i`` an output
coefficient, and bit ``n + m`` the right-hand side.

The system is kept in reduced row echelon form with the single row ``0 = 1``
standing for the empty (nowhere-defined) relation, so structural equality of
two relations decides equality of their graphs.

Apart from a graph file's raw rows, every relation built is the graph of an
affine map on an affine subspace, written by ``from_map`` from affine forms
over the n inputs (coefficient j at bit j, the constant at bit n).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .gf2 import BitVec, null_basis, project_masks, rref_masks
from .record import Record

ENUMERATION_LIMIT = 20


class ArityError(ValueError):
    pass


def _canonical(masks: Iterable[int], nvars: int) -> tuple[int, ...]:
    rows, pivots = rref_masks(masks, nvars + 1)
    if nvars in pivots:
        return (1 << nvars,)
    return tuple(rows)


class AffineRelation(Record):
    """Canonical affine partial isomorphism from GF(2)^n_in to GF(2)^n_out."""

    __slots__ = ("n_in", "n_out", "_rows")

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
        """The nowhere-defined relation; its one row ``0 = 1`` is already
        canonical, so it skips the elimination, and its fields are set
        directly, without ``_init``'s loop."""
        if n_in < 0 or n_out < 0:
            raise ArityError("arities must be nonnegative")
        rel = object.__new__(cls)
        set_in, set_out, set_rows = cls._setters
        set_in(rel, n_in)
        set_out(rel, n_out)
        set_rows(rel, (1 << (n_in + n_out),))
        return rel

    @classmethod
    def permutation(cls, perm: list[int]) -> "AffineRelation":
        """Graph {(x, x permuted)}: output i carries input perm[i]."""
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
    # their rhs.  ``compose`` and ``domain_masks`` put the block they
    # eliminate lowest, where ``project_masks`` removes it.  ``compose``,
    # ``tensor`` and ``dagger`` return the empty relation at once, after
    # their arity checks, when an operand is empty.

    def _outputs_first(self, rhs: int) -> list[int]:
        """The rows with the outputs at bits ``0 .. n_out-1``, the inputs
        above them and the right-hand side at bit ``rhs``."""
        n, m = self.n_in, self.n_out
        x, y = (1 << n) - 1, (1 << m) - 1
        return [(r >> n) & y | (r & x) << m | (r >> (n + m)) << rhs for r in self._rows]

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
        n, m = self.n_in, self.n_out
        if self.is_empty():
            return AffineRelation.empty(m, n)
        return AffineRelation(m, n, self._outputs_first(n + m))

    def domain_masks(self) -> tuple[int, ...]:
        """Constraint system of the domain, over the n_in input variables.

        The rows are canonical: the projection of a canonical system is in
        RREF, and that of the empty relation's ``0 = 1`` is ``0 = 1``."""
        n, m = self.n_in, self.n_out
        return tuple(project_masks(self._outputs_first(n + m), m, n + m + 1))

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
        n, m = self.n_in, self.n_out
        coef = [r & ((1 << (n + m)) - 1) for r in self._rows]
        x_cols = [r & ((1 << n) - 1) for r in coef]
        y_cols = [r >> n for r in coef]
        v = _nontrivial_kernel(y_cols, m)
        if v is not None:
            return ("x", BitVec.from_mask(m, v))
        v = _nontrivial_kernel(x_cols, n)
        if v is not None:
            return ("y", BitVec.from_mask(n, v))
        return None

    def apply(self, x: BitVec) -> Optional[BitVec]:
        """The unique image of x, or None when x is outside the domain."""
        n, m = self.n_in, self.n_out
        if len(x) != n:
            raise ArityError(f"input of length {len(x)} for arity {n}")
        xmask = x.mask
        rows = []
        for r in self._rows:
            const = ((r >> (n + m)) & 1) ^ ((r & xmask).bit_count() & 1)
            rows.append((r >> n) & ((1 << m) - 1) | (const << m))
        reduced, pivots = rref_masks(rows, m + 1)
        if m in pivots:
            return None
        if len(pivots) != m:
            raise ValueError("relation is not a partial isomorphism: image not unique")
        out = 0
        for mask, col in zip(reduced, pivots):
            out |= ((mask >> m) & 1) << col
        return BitVec.from_mask(m, out)

    def is_total(self) -> bool:
        return all(r == 0 for r in self.domain_masks())


def _nontrivial_kernel(rows: list[int], ncols: int) -> Optional[int]:
    basis = null_basis(*rref_masks(rows, ncols), ncols)
    return basis[0] if basis else None


def all_bitvecs(n: int) -> list[BitVec]:
    return [BitVec.from_mask(n, v) for v in range(1 << n)]


__all__ = ["AffineRelation", "ArityError", "all_bitvecs", "ENUMERATION_LIMIT"]
