"""Circuit synthesis from affine partial isomorphisms.

``synth_total_graph`` realizes the graph of a total affine map by writing the
map into fresh ancilla wires.  ``synth`` handles an arbitrary affine partial
isomorphism with a compute/uncompute pipeline: restrict to the domain with
clauses, compute the image on ancillae via a total extension of the map,
then erase the inputs with a total extension of the partial inverse and
project them onto |0>.  Both stages pick deterministic extensions, so
synthesis is a canonical representative chooser: re-synthesizing the
semantics of a synthesized circuit reproduces it gate for gate.

Synthesis runs a fixed number of GF(2) eliminations, whatever the arity:
the least point, the domain directions, their images and both extensions
each come from one ``rref_masks`` call (or a single insertion pass), not
from one elimination per variable.
"""

from __future__ import annotations

from .gf2 import BitVec, GF2Matrix, null_basis, rref_masks, set_bits
from .relation import AffineRelation
from .circuit import Circuit, circuit, cnot, init0, init1, notg, omega_nm, post0
from .normalize import ClausalForm, clausal_to_circuit
from .record import Record


class NotPartialIsoError(ValueError):
    pass


class AffineMapSpec(Record):
    """A total affine map x -> linear*x + shift."""

    __slots__ = ("linear", "shift")

    def __init__(self, linear: GF2Matrix, shift: BitVec):
        if linear.rows != len(shift):
            raise ValueError(
                f"linear has {linear.rows} rows but shift has length {len(shift)}"
            )
        self._init(linear, shift)

    @property
    def n_in(self) -> int:
        return self.linear.cols

    @property
    def n_out(self) -> int:
        return self.linear.rows

    def __call__(self, x: BitVec) -> BitVec:
        return self.linear.mul_vec(x) ^ self.shift

    def graph_relation(self) -> AffineRelation:
        """The graph {(x, (x, f(x)))} as a relation n -> n+m: output j
        copies input j, and output n + i is row i of the map plus its shift."""
        n, m = self.n_in, self.n_out
        rows = [(1 << j) | (1 << (n + j)) for j in range(n)]
        rows += [
            a | 1 << (2 * n + i) | self.shift[i] << (2 * n + m)
            for i, a in enumerate(self.linear.row_masks)
        ]
        return AffineRelation(n, n + m, rows)


def synth_total_graph(f: AffineMapSpec) -> Circuit:
    """Circuit n -> n+m computing (x, f(x)): ancillae prepared to the shift,
    then one cnot per set matrix entry, input j onto output i."""
    n, m = f.n_in, f.n_out
    gates: list = []
    for i in range(m):
        gates.append(init1(n + i) if f.shift[i] else init0(n + i))
    for i, row in enumerate(f.linear.row_masks):
        gates.extend(cnot(j, n + i) for j in set_bits(row))
    return circuit(n, *gates)


def _lex_least_solution(rows: tuple[int, ...], nvars: int) -> int:
    """Lexicographically least solution (variable 0 most significant) of a
    consistent system; bit ``nvars`` of a row is its right-hand side.

    With the solution directions in RREF (each pivot its lowest set bit),
    clearing every pivot bit of a particular solution gives the least point:
    any other point of the coset differs from it first at a pivot, where it
    has a 1.
    """
    reduced, pivots = rref_masks(rows, nvars + 1)
    point = 0
    for mask, col in zip(reduced, pivots):
        point |= ((mask >> nvars) & 1) << col
    directions, _ = rref_masks(null_basis(reduced, pivots, nvars), nvars)
    for d in directions:
        if point & d & -d:
            point ^= d
    return point


def _solve_linear_rows(basis: list[int], images: list[int], n: int, m: int) -> list[int]:
    """Row masks t_o (o < m) with parity(t_o & basis[i]) == bit o of images[i],
    free variables 0.

    One elimination of the rows ``basis[i] | images[i] << n`` solves all m
    systems at once: bit ``n + o`` of the row with pivot c is bit c of t_o.
    """
    reduced, pivots = rref_masks(
        [b | (img << n) for b, img in zip(basis, images)], n + m
    )
    if pivots and pivots[-1] >= n:
        raise RuntimeError("extension system must be consistent")
    out = [0] * m
    for mask, col in zip(reduced, pivots):
        for o in set_bits(mask >> n):
            out[o] |= 1 << col
    return out


def _complete_basis(vectors: list[int], n: int) -> list[int]:
    """Extend an independent set to a basis with standard vectors: e_j for
    every j that is not the highest set bit of some vector in the span.

    This is the greedy choice (try e_0, e_1, ... in turn and keep each one
    that is independent of what is kept so far): e_j is dependent exactly
    when some vector of the span has its highest set bit at j, since e_0 ..
    e_{j-1} are in the span by then.
    """
    leads: dict[int, int] = {}  # highest set bit -> vector
    for v in vectors:
        while v:
            top = v.bit_length() - 1
            if top not in leads:
                leads[top] = v
                break
            v ^= leads[top]
    return [1 << j for j in range(n) if j not in leads]


def _map_rows(r: AffineRelation) -> list[int]:
    """Rows a_i (i < n_out) with w_i = parity(a_i & v) for every homogeneous
    solution (v, w) of the nonempty partial isomorphism ``r``: the image of
    a domain direction v is the vector of those parities.

    The canonical rows of ``r.dagger()`` have the output columns first.
    Each output column is a pivot (``r`` is a partial isomorphism), and the
    row reduced to it holds y_i, input terms and the right-hand side only.
    """
    n, m = r.n_in, r.n_out
    return [(row >> m) & ((1 << n) - 1) for row in r.dagger().constraint_masks[:m]]


def synth(r: AffineRelation) -> Circuit:
    """A circuit whose semantics is exactly ``r``.

    Raises :class:`NotPartialIsoError` naming a violating homogeneous
    direction when ``r`` is not a partial isomorphism.
    """
    violation = r.partial_iso_violation()
    if violation is not None:
        side, direction = violation
        raise NotPartialIsoError(
            f"not a partial isomorphism: homogeneous direction with zero "
            f"{side}-part, other part {list(direction)}"
        )
    n, m = r.n_in, r.n_out
    if r.is_empty():
        return omega_nm(n, m)

    point = _lex_least_solution(r.constraint_masks, n + m)
    x0 = BitVec.from_mask(n, point)
    y0 = BitVec.from_mask(m, point >> n)

    dom_rows = r.domain_masks()
    coef = [row & ((1 << n) - 1) for row in dom_rows]
    v_basis = null_basis(*rref_masks(coef, n), n)
    a_rows = _map_rows(r)
    w_basis = [
        sum(((a & v).bit_count() & 1) << i for i, a in enumerate(a_rows))
        for v in v_basis
    ]

    # Total extension F of the map: domain directions to their images,
    # completion directions to zero.
    fwd_basis = v_basis + _complete_basis(v_basis, n)
    fwd_images = w_basis + [0] * (len(fwd_basis) - len(v_basis))
    t_rows = _solve_linear_rows(fwd_basis, fwd_images, n, m)
    linear = GF2Matrix.from_masks(t_rows, n)
    shift = linear.mul_vec(x0) ^ y0
    forward = AffineMapSpec(linear, shift)

    # Total extension G of the partial inverse, for uncomputing the inputs.
    bwd_basis = w_basis + _complete_basis(w_basis, m)
    bwd_images = v_basis + [0] * (len(bwd_basis) - len(w_basis))
    u_rows = _solve_linear_rows(bwd_basis, bwd_images, m, n)
    u_matrix = GF2Matrix.from_masks(u_rows, m)
    g_shift = u_matrix.mul_vec(y0) ^ x0

    domain_stage = clausal_to_circuit(ClausalForm.from_masks(n, dom_rows))
    graph_stage = synth_total_graph(forward)
    erase: list = []
    for j, row in enumerate(u_rows):
        erase.extend(cnot(n + i, j) for i in set_bits(row))
        if g_shift[j]:
            erase.append(notg(j))
    erase += [post0(0) for _ in range(n)]
    return circuit(n, domain_stage.gates, graph_stage.gates, erase)
