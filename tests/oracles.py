"""Brute-force oracles for the tests: a relation built from its graph
points, and the graph and domain of a relation found by trying every
assignment.  They share no code path with ``AffineRelation``'s operations
beyond the canonical form itself, so they check those operations
independently.  ``old_synth`` is synthesis as it was, one elimination per
variable, which ``synth`` must match gate for gate.  The ``layout_*``
functions and ``old_semantics`` write the rows of a map's graph bit by bit,
as each constructor did before ``AffineRelation.from_map`` wrote them all.
"""

from __future__ import annotations

from typing import Iterable

from cnotcalc.circuit import Circuit, circuit, cnot, notg, omega_nm, post0
from cnotcalc.gf2 import BitVec, GF2Matrix, null_basis, rref_masks, set_bits
from cnotcalc.normalize import ClausalForm, clausal_to_circuit
from cnotcalc.relation import ENUMERATION_LIMIT, AffineRelation, ArityError
from cnotcalc.synth import AffineMapSpec, synth_total_graph


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


# -- synthesis as it was: a least point, a basis of the domain's directions
# and their images, two completed bases and two linear solves --------------


def loop_lex_least_solution(rows, nvars: int) -> int:
    """Lexicographically least solution (variable 0 most significant) of a
    consistent system, rhs at bit ``nvars``: pin variables 0, 1, ... in turn
    to 0 when the system allows it."""
    work = list(rows)
    fixed = 0
    for j in range(nvars):
        trial = work + [1 << j]
        _, pivots = rref_masks(trial, nvars + 1)
        if nvars in pivots:
            fixed |= 1 << j
            work.append((1 << j) | (1 << nvars))
        else:
            work = trial
    return fixed


def loop_solve_linear_rows(basis, images, n: int, m: int) -> list[int]:
    """Row masks t_o (o < m) with parity(t_o & basis[i]) == bit o of
    images[i], free variables 0: one elimination per output bit o."""
    out = []
    for o in range(m):
        aug = [b | (((img >> o) & 1) << n) for b, img in zip(basis, images)]
        reduced, pivots = rref_masks(aug, n + 1)
        if n in pivots:
            raise RuntimeError("extension system must be consistent")
        t = 0
        for mask, col in zip(reduced, pivots):
            if (mask >> n) & 1:
                t |= 1 << col
        out.append(t)
    return out


def loop_complete_basis(vectors, n: int) -> list[int]:
    """The standard vectors that extend an independent set to a basis: try
    e_0, e_1, ... in turn, one elimination each."""
    added = []
    span = list(vectors)
    for j in range(n):
        trial = span + [1 << j]
        _, pivots = rref_masks(trial, n)
        if len(pivots) == len(span) + 1:
            span = trial
            added.append(1 << j)
    return added


def old_synth(r: AffineRelation) -> Circuit:
    """The circuit synthesis gave before it read both extensions off the
    canonical rows: restrict to the domain, compute the image of the total
    extension F (domain directions to their images, completion directions to
    zero) on ancillae, and erase the inputs with the total extension G of
    the partial inverse.  ``r`` must be a partial isomorphism; the images of
    the directions come from ``r.apply``."""
    if not r.is_partial_iso():
        raise ValueError("not a partial isomorphism")
    n, m = r.n_in, r.n_out
    if r.is_empty():
        return omega_nm(n, m)
    point = loop_lex_least_solution(r.constraint_masks, n + m)
    x0, y0 = BitVec.from_mask(n, point), BitVec.from_mask(m, point >> n)
    dom_rows = r.domain_masks()
    coef = [row & ((1 << n) - 1) for row in dom_rows]
    v_basis = null_basis(*rref_masks(coef, n), n)
    w_basis = [(r.apply(x0 ^ BitVec.from_mask(n, v)) ^ y0).mask for v in v_basis]

    fwd_basis = v_basis + loop_complete_basis(v_basis, n)
    fwd_images = w_basis + [0] * (len(fwd_basis) - len(v_basis))
    linear = GF2Matrix.from_masks(loop_solve_linear_rows(fwd_basis, fwd_images, n, m), n)
    forward = AffineMapSpec(linear, linear.mul_vec(x0) ^ y0)

    bwd_basis = w_basis + loop_complete_basis(w_basis, m)
    bwd_images = v_basis + [0] * (len(bwd_basis) - len(w_basis))
    u_rows = loop_solve_linear_rows(bwd_basis, bwd_images, m, n)
    g_shift = GF2Matrix.from_masks(u_rows, m).mul_vec(y0) ^ x0

    erase: list = []
    for j, row in enumerate(u_rows):
        erase.extend(cnot(n + i, j) for i in set_bits(row))
        if g_shift[j]:
            erase.append(notg(j))
    erase += [post0(0) for _ in range(n)]
    domain_stage = clausal_to_circuit(ClausalForm.from_masks(n, dom_rows))
    return circuit(n, domain_stage.gates, synth_total_graph(forward).gates, erase)


# -- the graph of a map on a domain, laid out by each constructor itself:
# inputs at bits 0..n-1, outputs above them, then the right-hand side --------


def layout_identity(n: int) -> AffineRelation:
    return AffineRelation(n, n, [(1 << j) | (1 << (n + j)) for j in range(n)])


def layout_permutation(perm: list[int]) -> AffineRelation:
    n = len(perm)
    return AffineRelation(n, n, [(1 << perm[i]) | (1 << (n + i)) for i in range(n)])


def layout_graph_relation(spec: AffineMapSpec) -> AffineRelation:
    n, m = spec.n_in, spec.n_out
    rows = [(1 << j) | (1 << (n + j)) for j in range(n)]
    rows += [
        a | 1 << (2 * n + i) | spec.shift[i] << (2 * n + m)
        for i, a in enumerate(spec.linear.row_masks)
    ]
    return AffineRelation(n, n + m, rows)


def layout_affine_block(n: int, map_rows: list[int], shift: int, parities: list[int]) -> AffineRelation:
    """An ``affine`` block's relation: ``map_rows`` and ``shift`` as masks,
    each parity line a mask with its rhs at bit ``n``."""
    m = len(map_rows)
    rhs = 2 * n + m
    rows = [(r & ((1 << n) - 1)) | (r >> n) << rhs for r in parities]
    rows += [(1 << j) | (1 << (n + j)) for j in range(n)]
    rows += [a | 1 << (2 * n + i) | ((shift >> i) & 1) << rhs for i, a in enumerate(map_rows)]
    return AffineRelation(n, n + m, rows)


def old_semantics(c: Circuit) -> AffineRelation:
    """``Circuit.semantics`` without its early exit: every post-selection
    adds a domain row, and one canonical form is taken at the end."""
    n = c.n_in
    one = 1 << n
    wires = [1 << i for i in range(n)]
    dom_rows = []
    for g in c.gates:
        k, a = g.kind, g.args
        if k == "cnot":
            wires[a[1]] ^= wires[a[0]]
        elif k == "swap":
            i, j = a
            wires[i], wires[j] = wires[j], wires[i]
        elif k == "init1":
            wires.insert(a[0], one)
        else:
            e = wires.pop(a[0])
            dom_rows.append((e & (one - 1)) | ((1 ^ (e >> n)) << n))
    m = len(wires)
    rhs = 1 << (n + m)
    rows = [(r & (one - 1)) | (rhs if r & one else 0) for r in dom_rows]
    for i, e in enumerate(wires):
        rows.append((e & (one - 1)) | (1 << (n + i)) | (rhs if e & one else 0))
    return AffineRelation(n, m, rows)
