"""Brute-force oracles for the tests: a relation built from its graph
points, and the graph and domain of a relation found by trying every
assignment.  They share no code path with ``AffineRelation``'s operations
beyond the canonical form itself, so they check those operations
independently.
"""

from __future__ import annotations

from typing import Iterable

from cnotcalc.gf2 import BitVec, null_basis, rref_masks
from cnotcalc.relation import ENUMERATION_LIMIT, AffineRelation, ArityError


def from_graph_points(
    n_in: int, n_out: int, points: Iterable[tuple[BitVec, BitVec]]
) -> AffineRelation:
    """Least affine constraint system containing the given graph points.

    The points must form an affine subspace of GF(2)^(n_in+n_out) for the
    result's graph to equal them exactly.
    """
    nv = n_in + n_out
    pts = []
    for x, y in points:
        if len(x) != n_in or len(y) != n_out:
            raise ArityError("point arity mismatch")
        pts.append(x.mask | (y.mask << n_in))
    if not pts:
        return AffineRelation.empty(n_in, n_out)
    # A row (c | r) is valid iff c.p = r for every point p: solve the
    # transposed system by row-reducing the point matrix augmented with 1.
    aug = [p | (1 << nv) for p in pts]
    return AffineRelation(n_in, n_out, null_basis(*rref_masks(aug, nv + 1), nv + 1))


def _solutions(rows: Iterable[int], nvars: int) -> list[int]:
    """Every assignment of ``nvars`` variables that satisfies each row
    (coefficients below bit ``nvars``, right-hand side at it)."""
    rows = tuple(rows)
    return [
        v for v in range(1 << nvars)
        if all(((r & v).bit_count() & 1) == ((r >> nvars) & 1) for r in rows)
    ]


def enumerate_graph(rel: AffineRelation) -> set[tuple[BitVec, BitVec]]:
    """Every (x, y) pair of the graph, by brute-force membership test."""
    n, m = rel.n_in, rel.n_out
    if n + m > ENUMERATION_LIMIT:
        raise ValueError(f"refusing to enumerate 2^{n + m} assignments")
    return {
        (BitVec.from_mask(n, v), BitVec.from_mask(m, v >> n))
        for v in _solutions(rel.constraint_masks, n + m)
    }


def enumerate_domain(rel: AffineRelation) -> set[BitVec]:
    """Every input on which the relation is defined."""
    if rel.n_in > ENUMERATION_LIMIT:
        raise ValueError("domain too large to enumerate")
    return {BitVec.from_mask(rel.n_in, v) for v in _solutions(rel.domain_masks(), rel.n_in)}
