"""Brute-force oracles for the tests: a relation built from its graph
points, and the graph and domain of a relation found by trying every
assignment.  They share no code path with ``AffineRelation``'s operations
beyond the canonical form itself, so they check those operations
independently.  ``old_partial_iso_violation`` and ``projected_domain`` are
the partial isomorphism test and the domain as they were before both read
the converse rows: two kernel eliminations, and one projection.
``old_synth`` is synthesis as it was, one elimination per variable, which
``synth`` must match gate for gate.  The ``layout_*``
functions and ``old_semantics`` write the rows of a map's graph bit by bit,
as each constructor did before ``AffineRelation.from_map`` wrote them all.
``old_parse_circuit`` is the circuit parser as it was before it read a file
one window of lines at a time: every line at once, comments blanked.
"""

from __future__ import annotations

import re
from typing import Iterable, Optional

from cnotcalc.circuit import (
    GATES, Circuit, CircuitError, Gate, circuit, cnot, notg, omega_nm, post0,
)
from cnotcalc.formats import _ONE_WIRE, _TWO_WIRES, FormatError, _arities, _int
from cnotcalc.gf2 import BitVec, GF2Matrix, null_basis, project_masks, rref_masks, set_bits
from cnotcalc.lexing import _COMMENT
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


# -- the partial isomorphism test and the domain as they were: two kernel
# eliminations, and a projection of the outputs-first rows ------------------


def _nontrivial_kernel(rows: list[int], ncols: int) -> Optional[int]:
    basis = null_basis(*rref_masks(rows, ncols), ncols)
    return basis[0] if basis else None


def old_partial_iso_violation(rel: AffineRelation) -> Optional[tuple[str, BitVec]]:
    """(side, direction) of a nonzero homogeneous solution whose ``side``
    part is zero, from the kernels of the y-parts and of the x-parts of the
    rows; None for a partial isomorphism or the empty relation."""
    if rel.is_empty():
        return None
    n, m = rel.n_in, rel.n_out
    coef = [r & ((1 << (n + m)) - 1) for r in rel.constraint_masks]
    v = _nontrivial_kernel([r >> n for r in coef], m)
    if v is not None:
        return ("x", BitVec.from_mask(m, v))
    v = _nontrivial_kernel([r & ((1 << n) - 1) for r in coef], n)
    if v is not None:
        return ("y", BitVec.from_mask(n, v))
    return None


def projected_domain(rel: AffineRelation) -> tuple[int, ...]:
    """The domain rows: the outputs projected out of the rows laid out
    outputs first, inputs above them and the right-hand side on top."""
    n, m = rel.n_in, rel.n_out
    x, y = (1 << n) - 1, (1 << m) - 1
    rows = [(r >> n) & y | (r & x) << m | (r >> (n + m)) << (n + m) for r in rel.constraint_masks]
    return tuple(project_masks(rows, m, n + m + 1))


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
    if old_partial_iso_violation(r) is not None:
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


def _bodies(text: str) -> list[str]:
    """The content of each line, comment removed and stripped."""
    if "#" in text:
        # A comment becomes a space, not nothing: deleting the one in
        # "\r#c\n" would join two line breaks into one "\r\n".
        text = re.sub(_COMMENT, " ", text)
    return list(map(str.strip, text.splitlines()))


def _line_of_gate(entries: list, index: int) -> int:
    """The position in ``entries``, the memo entries of a file's gate lines,
    of the line that builds gate ``index``: a macro line builds all its
    gates, a blank or comment line none."""
    for j, entry in enumerate(entries):
        index -= 1 if type(entry) is Gate else len(entry)
        if index < 0:
            return j


def old_parse_circuit(
    text: str, memo: Optional[dict[str, Gate | tuple[Gate, ...]]] = None
) -> tuple[str, Circuit]:
    """(name, circuit) of a circuit file.

    ``memo`` maps gate-line bodies to what they build: the ``Gate`` of a
    primitive line, the tuple of gates of a macro line, and the empty tuple
    for the empty body of blank and comment-only lines.  Calls that parse
    several files of one command pass the same dict, so a line met in an
    earlier file is not parsed again.  It holds only lines that parsed.
    """
    if memo is None:
        memo = {}
    memo[""] = ()
    bodies = _bodies(text)
    start = next((i for i, body in enumerate(bodies) if body), None)
    if start is None:
        raise FormatError("empty circuit file", 1)
    header, lineno = bodies[start], start + 1
    tokens = header.split()
    if (
        len(tokens) != 6
        or tokens[0] != "circuit"
        or tokens[2] != ":"
        or tokens[4] != "->"
    ):
        raise FormatError(
            "expected header 'circuit <name> : <n_in> -> <n_out>'", lineno
        )
    name = tokens[1]
    n_in, n_out = _arities(tokens, (3, 5), lineno, header)
    try:
        stop = bodies.index("end", start + 1)
    except ValueError:
        stop = None
    gate_bodies = bodies[start + 1 : stop]
    # Only the distinct bodies not yet in the memo are tokenized and built:
    # n wires allow only about 2 n^2 distinct lines, so long circuits repeat
    # many of them.  Gates are immutable, so repeated lines share them.  In
    # first-occurrence order, the first bad body is the first bad line.
    # ``wires`` maps the wire numbers met so far, as ``str`` writes them, to
    # their ints.  A primitive line whose numbers are all in it takes the
    # direct path, where only its builder checks anything; any other line,
    # and so every error but a builder's, takes the general path below.
    wires: dict[str, int] = {}
    wire = wires.get
    try:
        for body in dict.fromkeys(gate_bodies):
            if body in memo:
                continue
            tokens = body.split()
            if len(tokens) == 3:
                builder, a, b = _TWO_WIRES.get(tokens[0]), wire(tokens[1]), wire(tokens[2])
                if builder is not None and a is not None and b is not None:
                    memo[body] = builder(a, b)
                    continue
            elif len(tokens) == 2:
                builder, a = _ONE_WIRE.get(tokens[0]), wire(tokens[1])
                if builder is not None and a is not None:
                    memo[body] = builder(a)
                    continue
            kind = tokens[0]
            builder, arity, _ = GATES.get(kind, (None, None, None))
            if builder is None or len(tokens) != 1 + arity:
                lineno = bodies.index(body, start + 1) + 1
                if builder is None:
                    raise FormatError(f"unknown gate {kind!r}", lineno)
                raise FormatError(f"gate {kind} takes {arity} argument(s)", lineno)
            try:
                args = list(map(int, tokens[1:]))
            except ValueError:
                args = None
            # On ASCII text with no '+' or '_', int() reads exactly INTEGER.
            if args is None or not body.isascii() or "+" in body or "_" in body:
                lineno = bodies.index(body, start + 1) + 1
                args = [_int(t, lineno, body, i) for i, t in enumerate(tokens[1:], 1)]
            for t, k in zip(tokens[1:], args):
                if str(k) == t:
                    wires[t] = k
            memo[body] = builder(*args)
    except CircuitError as e:  # a gate that no width admits
        raise FormatError(str(e), bodies.index(body, start + 1) + 1) from None
    if stop is None:
        last = max(i for i, body in enumerate(bodies) if body)
        raise FormatError("missing 'end' terminator", last + 1)
    gates = list(map(memo.__getitem__, gate_bodies))
    try:
        if tuple in map(type, gates):  # a macro or a blank line: flatten
            c = circuit(n_in, *gates)
        else:
            c = Circuit(n_in, gates)
    except CircuitError as e:
        raise FormatError(str(e), start + 2 + _line_of_gate(gates, e.index)) from None
    if c.n_out != n_out:
        raise FormatError(
            f"header declares {n_in} -> {n_out} but gates yield {c.n_out} outputs",
            start + 1,
        )
    return name, c
