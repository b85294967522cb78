"""Synthesis: total graphs, the general pipeline, and its round trips."""

import pytest
from hypothesis import given, settings, strategies as st

from cnotcalc.gf2 import BitVec, GF2Matrix, null_basis, rref_masks
from cnotcalc.relation import AffineRelation, all_bitvecs
from cnotcalc.circuit import circuit, equal_circ, omega_nm, post1
from cnotcalc.synth import (
    AffineMapSpec,
    NotPartialIsoError,
    _complete_basis,
    _lex_least_solution,
    _map_rows,
    _solve_linear_rows,
    synth,
    synth_total_graph,
)
from cnotcalc.fuzzing import random_circuit, trial_rng
from oracles import from_graph_points


WORKED_SPEC = AffineMapSpec(GF2Matrix([[1, 0, 1], [1, 0, 0]]), BitVec([0, 1]))


class TestSynthTotalGraph:
    def test_worked_three_to_five(self):
        c = synth_total_graph(WORKED_SPEC)
        assert c.n_in == 3 and c.n_out == 5
        assert c.semantics() == WORKED_SPEC.graph_relation()
        # spot the structure: one |0>, one |1>, cnots 0->3, 2->3, 0->4
        for x in all_bitvecs(3):
            out = c.eval_state(x)
            assert list(out)[:3] == list(x)
            assert out[3] == x[0] ^ x[2]
            assert out[4] == x[0] ^ 1

    def test_zero_map_appends_zero_ancillae(self):
        spec = AffineMapSpec(GF2Matrix.zeros(2, 2), BitVec.zeros(2))
        c = synth_total_graph(spec)
        for x in all_bitvecs(2):
            assert c.eval_state(x) == BitVec(list(x) + [0, 0])

    def test_identity_map(self):
        spec = AffineMapSpec(GF2Matrix.identity(1), BitVec.zeros(1))
        c = synth_total_graph(spec)
        assert c.eval_state([1]) == BitVec([1, 1])

    def test_second_component_is_the_map(self):
        for i in range(25):
            rng = trial_rng(91, i)
            n, m = rng.randrange(7), rng.randrange(4)
            linear = GF2Matrix(
                [[rng.randrange(2) for _ in range(n)] for _ in range(m)], cols=n
            )
            shift = BitVec([rng.randrange(2) for _ in range(m)])
            spec = AffineMapSpec(linear, shift)
            c = synth_total_graph(spec)
            for x in all_bitvecs(n):
                out = c.eval_state(x)
                assert BitVec(list(out)[n:]) == spec(x)


class TestSynth:
    def test_identity(self):
        for n in range(4):
            c = synth(AffineRelation.identity(n))
            assert c.semantics() == AffineRelation.identity(n)

    def test_empty_goes_degenerate(self):
        c = synth(AffineRelation.empty(0, 0))
        assert c == omega_nm(0, 0)
        assert c.semantics() == AffineRelation.empty(0, 0)

    def test_post_selection_relation(self):
        bra1 = from_graph_points(1, 0, [(BitVec([1]), BitVec([]))])
        c = synth(bra1)
        assert c.semantics() == bra1
        assert equal_circ(c, circuit(1, post1(0)))

    def test_rejects_non_iso(self):
        # y0 = x0 with x1 unconstrained: a projection, not injective
        proj = AffineRelation(2, 1, [0b001 | (1 << 2)])
        with pytest.raises(NotPartialIsoError, match="direction"):
            synth(proj)

    def test_roundtrip_random(self):
        for i in range(120):
            rng = trial_rng(92, i)
            c = random_circuit(rng, rng.randrange(7), 40)
            rel = c.semantics()
            assert synth(rel).semantics() == rel

    def test_idempotent_roundtrip(self):
        # synthesis is a projection onto canonical representatives
        for i in range(40):
            rng = trial_rng(93, i)
            c = random_circuit(rng, rng.randrange(5), 25)
            once = synth(c.semantics())
            twice = synth(once.semantics())
            assert once == twice

    def test_worked_example_through_full_pipeline(self):
        rel = WORKED_SPEC.graph_relation()
        assert synth(rel).semantics() == rel


# -- the one-shot helpers against the per-variable loops they replace ----------
#
# Each oracle below runs one elimination per variable (or per output, or per
# direction), as synthesis did before; the helpers must return exactly the
# same values, which keeps synthesized circuits gate-for-gate the same.


def loop_lex_least_solution(rows, nvars):
    """Pin variables 0, 1, ... in turn to 0 when the system allows it."""
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


def loop_solve_linear_rows(basis, images, n, m):
    """One elimination per output bit o."""
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


def loop_complete_basis(vectors, n):
    """Try e_0, e_1, ... in turn, one elimination each."""
    added = []
    span = list(vectors)
    for j in range(n):
        trial = span + [1 << j]
        _, pivots = rref_masks(trial, n)
        if len(pivots) == len(span) + 1:
            span = trial
            added.append(1 << j)
    return added


def _parity(x):
    return x.bit_count() & 1


def vectors(n):
    """Dense and sparse n-bit vectors (sparse ones make the completion and
    the free columns non-trivial)."""
    dense = st.integers(0, (1 << n) - 1)
    if n == 0:
        return dense
    sparse = st.lists(st.integers(0, n - 1), max_size=3).map(
        lambda bits: sum(1 << b for b in set(bits))
    )
    return st.one_of(dense, sparse)


widths = st.integers(0, 64)

consistent_systems = widths.flatmap(
    lambda nv: st.tuples(
        st.just(nv),
        st.integers(0, (1 << nv) - 1),
        st.lists(vectors(nv), max_size=nv + 3),
    )
)


@settings(deadline=None)
@given(consistent_systems)
def test_lex_least_solution_matches_loop(system):
    nv, point, coefs = system
    rows = [c | (_parity(c & point) << nv) for c in coefs]
    want = loop_lex_least_solution(rows, nv)
    assert _lex_least_solution(rows, nv) == want
    canonical = AffineRelation(nv, 0, rows).constraint_masks
    assert _lex_least_solution(canonical, nv) == want


@settings(deadline=None)
@given(widths.flatmap(lambda n: st.tuples(st.just(n), st.lists(vectors(n), max_size=n + 2))))
def test_complete_basis_matches_loop(case):
    n, candidates = case
    independent = []
    for v in candidates:
        if len(rref_masks(independent + [v], n)[0]) > len(independent):
            independent.append(v)
    added = _complete_basis(independent, n)
    assert added == loop_complete_basis(independent, n)
    assert len(rref_masks(independent + added, n)[0]) == n


@settings(deadline=None)
@given(
    st.tuples(widths, widths).flatmap(
        lambda nm: st.tuples(
            st.just(nm),
            st.lists(vectors(nm[0]), max_size=nm[0] + 2),
            st.lists(st.integers(0, (1 << nm[0]) - 1), min_size=nm[1], max_size=nm[1]),
        )
    )
)
def test_solve_linear_rows_matches_loop(case):
    (n, m), basis, t = case
    images = [sum(_parity(row & b) << o for o, row in enumerate(t)) for b in basis]
    assert _solve_linear_rows(basis, images, n, m) == loop_solve_linear_rows(basis, images, n, m)


def test_solve_linear_rows_inconsistent():
    for solve in (_solve_linear_rows, loop_solve_linear_rows):
        with pytest.raises(RuntimeError, match="consistent"):
            solve([0b1, 0b1], [0, 1], 1, 1)


@st.composite
def partial_isos(draw):
    """Graphs x -> (x, T x + s) of total maps, restricted to a random
    non-empty affine subspace, and sometimes turned around (partial, with
    the copy of x as the output)."""
    n, m = draw(st.integers(0, 40)), draw(st.integers(0, 24))
    spec = AffineMapSpec(
        GF2Matrix.from_masks(draw(st.lists(vectors(n), min_size=m, max_size=m)), n),
        BitVec.from_mask(m, draw(st.integers(0, (1 << m) - 1))),
    )
    rel = spec.graph_relation()
    point = draw(st.integers(0, (1 << n) - 1))
    dom = [c | (_parity(c & point) << (2 * n + m)) for c in draw(st.lists(vectors(n), max_size=n))]
    rel = AffineRelation(n, n + m, rel.constraint_masks + tuple(dom))
    return rel.dagger() if draw(st.booleans()) else rel


def loop_direction_images(r):
    """Images of the domain directions, one ``apply`` each."""
    n, m = r.n_in, r.n_out
    point = loop_lex_least_solution(r.constraint_masks, n + m)
    x0, y0 = BitVec.from_mask(n, point), BitVec.from_mask(m, point >> n)
    coef = [row & ((1 << n) - 1) for row in r.domain_masks()]
    directions = null_basis(*rref_masks(coef, n), n)
    return directions, [(r.apply(x0 ^ BitVec.from_mask(n, v)) ^ y0).mask for v in directions]


@settings(deadline=None)
@given(st.one_of(partial_isos(), st.randoms(use_true_random=False).map(
    lambda rng: random_circuit(rng, rng.randrange(8), 40).semantics()
)))
def test_direction_images_match_apply(r):
    if r.is_empty():
        return
    directions, want = loop_direction_images(r)
    rows = _map_rows(r)
    assert len(rows) == r.n_out
    got = [sum(_parity(a & v) << i for i, a in enumerate(rows)) for v in directions]
    assert got == want
