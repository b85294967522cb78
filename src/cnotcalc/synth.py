"""Circuit synthesis from affine partial isomorphisms.

``synth_total_graph`` realizes the graph of a total affine map by writing the
map into fresh ancilla wires.  ``synth`` handles an arbitrary affine partial
isomorphism with a compute/uncompute pipeline: restrict to the domain with
clauses, compute the image on ancillae via a total extension of the map,
then erase the inputs with a total extension of the partial inverse and
project them onto |0>.  Both stages pick deterministic extensions, so
synthesis is a canonical representative chooser: re-synthesizing the
semantics of a synthesized circuit reproduces it gate for gate.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gf2 import BitVec, GF2Matrix, rref_masks
from .relation import AffineRelation
from .circuit import Circuit, circuit, cnot, init0, init1, notg, omega_nm, post0
from .normalize import ClausalForm, clausal_to_circuit


class NotPartialIsoError(ValueError):
    pass


@dataclass(frozen=True)
class AffineMapSpec:
    """A total affine map x -> linear*x + shift."""

    linear: GF2Matrix
    shift: BitVec

    def __post_init__(self):
        if self.linear.rows != len(self.shift):
            raise ValueError(
                f"linear has {self.linear.rows} rows but shift has length {len(self.shift)}"
            )

    @property
    def n_in(self) -> int:
        return self.linear.cols

    @property
    def n_out(self) -> int:
        return self.linear.rows

    def __call__(self, x: BitVec) -> BitVec:
        return self.linear.mul_vec(x) ^ self.shift

    def graph_relation(self) -> AffineRelation:
        """The graph {(x, (x, f(x)))} as a relation n -> n+m."""
        n, m = self.n_in, self.n_out
        rows = [[1 if j == i else 0 for j in range(n)] for i in range(n)]
        rows += self.linear.to_lists()
        full = GF2Matrix(rows, n)
        pad = BitVec([0] * n + list(self.shift))
        return AffineRelation.total_affine(full, pad)


def synth_total_graph(f: AffineMapSpec) -> Circuit:
    """Circuit n -> n+m computing (x, f(x)): ancillae prepared to the shift,
    then one cnot per set matrix entry, input j onto output i."""
    n, m = f.n_in, f.n_out
    gates: list = []
    for i in range(m):
        gates.append(init1(n + i) if f.shift[i] else init0(n + i))
    for i in range(m):
        for j in range(n):
            if f.linear[i, j]:
                gates.append(cnot(j, n + i))
    return circuit(n, *gates)


def _lex_least_solution(rows: tuple[int, ...], nvars: int) -> int:
    """Lexicographically least solution (variable 0 most significant)."""
    work = list(rows)
    fixed = 0
    for j in range(nvars):
        trial = work + [1 << j]  # pin variable j to 0
        _, pivots = rref_masks(trial, nvars + 1)
        if nvars in pivots:
            fixed |= 1 << j
            work.append((1 << j) | (1 << nvars))
        else:
            work = trial
    return fixed


def _solve_linear_rows(basis: list[int], images: list[int], n: int, m: int) -> list[int]:
    """Row masks t_o (o < m) with parity(t_o & basis[i]) == bit o of images[i]."""
    out = []
    for o in range(m):
        aug = [
            b | (((img >> o) & 1) << n) for b, img in zip(basis, images)
        ]
        reduced, pivots = rref_masks(aug, n + 1)
        if n in pivots:
            raise RuntimeError("extension system must be consistent")
        t = 0
        for mask, col in zip(reduced, pivots):
            if (mask >> n) & 1:
                t |= 1 << col
        out.append(t)
    return out


def _complete_basis(vectors: list[int], n: int) -> list[int]:
    """Greedily extend an independent set to a basis with standard vectors."""
    added = []
    span = list(vectors)
    for j in range(n):
        trial = span + [1 << j]
        _, pivots = rref_masks(trial, n)
        if len(pivots) == len(span) + 1:
            span = trial
            added.append(1 << j)
    return added


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
    reduced, dom_pivots = rref_masks(coef, n)
    pivot_set = set(dom_pivots)
    v_basis: list[int] = []
    for f in range(n):
        if f in pivot_set:
            continue
        v = 1 << f
        for mask, col in zip(reduced, dom_pivots):
            if (mask >> f) & 1:
                v |= 1 << col
        v_basis.append(v)
    w_basis = []
    for v in v_basis:
        image = r.apply(x0 ^ BitVec.from_mask(n, v))
        w_basis.append((image ^ y0).mask)

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
    for j in range(n):
        for i in range(m):
            if u_matrix[j, i]:
                erase.append(cnot(n + i, j))
        if g_shift[j]:
            erase.append(notg(j))
    erase += [post0(0) for _ in range(n)]
    uncompute_stage = circuit(n + m, *erase)
    return domain_stage.compose(graph_stage).compose(uncompute_stage)
