"""Circuit synthesis from affine partial isomorphisms.

``synth_total_graph`` realizes the graph of a total affine map by writing the
map into fresh ancilla wires.  ``synth`` handles an arbitrary affine partial
isomorphism with a compute/uncompute pipeline: restrict to the domain with
clauses, compute the image on ancillae via a total extension of the map,
then erase the inputs with a total extension of the partial inverse and
project them onto |0>.  Both stages pick deterministic extensions, so
synthesis is a canonical representative chooser: re-synthesizing the
semantics of a synthesized circuit reproduces it gate for gate.

Both extensions are read off canonical rows, once
``r.partial_iso_violation()`` has found every input and output a pivot.
``r.map_rows()`` reads form i, y_i = a_i.x + c_i, off the converse rows:
the rows a_i and the shift c give the total map (zero on the domain's pivot
columns, since the rows are reduced), and the domain rows follow.  With the
inputs first, row j of ``r`` reads x_j = u_j.y + d_j, which erases input j.
"""

from __future__ import annotations

# rref_masks is unused here; perfbench's install test asserts that this
# module binds it, until that pin goes (ROADMAP 1B).
from .gf2 import BitVec, GF2Matrix, rref_masks, set_bits  # noqa: F401
from .relation import AffineRelation
from .circuit import Circuit, circuit, omega_nm
from .gates import cnot, init0, init1, notg, post0
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
        n = self.n_in
        forms = [1 << j for j in range(n)]
        forms += [a | self.shift[i] << n for i, a in enumerate(self.linear.row_masks)]
        return AffineRelation.from_map(n, forms)


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

    # Inputs first, row j reads x_j = u_j.y + d_j; form i reads y_i = a_i.x + c_i.
    forms, domain_rows = r.map_rows()
    x_mask, y_mask = (1 << n) - 1, (1 << m) - 1
    forward = AffineMapSpec(
        GF2Matrix.from_masks([f & x_mask for f in forms], n),
        BitVec.from_mask(m, sum((f >> n) << i for i, f in enumerate(forms))),
    )
    domain = ClausalForm.from_masks(n, domain_rows)

    erase: list = []
    for j, row in enumerate(r.constraint_masks[:n]):
        erase.extend(cnot(n + i, j) for i in set_bits((row >> n) & y_mask))
        if row >> (n + m):
            erase.append(notg(j))
    erase += [post0(0) for _ in range(n)]
    return circuit(n, clausal_to_circuit(domain).gates, synth_total_graph(forward).gates, erase)
