"""Synthesis: total graphs, the general pipeline, and its round trips."""

import pytest
from hypothesis import given, settings, strategies as st

from cnotcalc.gf2 import BitVec, GF2Matrix
from cnotcalc.relation import AffineRelation, all_bitvecs
from cnotcalc.circuit import circuit, omega_nm, post1
from cnotcalc.synth import AffineMapSpec, NotPartialIsoError, synth, synth_total_graph
from cnotcalc.fuzzing import random_circuit, trial_rng
from cnotcalc.cli import run
from cnotcalc.formats import format_relation
from oracles import from_graph_points, layout_graph_relation, old_synth


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
        spec = AffineMapSpec(GF2Matrix.from_masks([0, 0], 2), BitVec.from_mask(2, 0))
        c = synth_total_graph(spec)
        for x in all_bitvecs(2):
            assert c.eval_state(x) == BitVec(list(x) + [0, 0])

    def test_identity_map(self):
        spec = AffineMapSpec(GF2Matrix.from_masks([1], 1), BitVec.from_mask(1, 0))
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
            c = synth(AffineRelation.restriction_on(n, ()))
            assert c.semantics() == AffineRelation.restriction_on(n, ())

    def test_empty_goes_degenerate(self):
        c = synth(AffineRelation.empty(0, 0))
        assert c == omega_nm(0, 0)
        assert c.semantics() == AffineRelation.empty(0, 0)

    def test_post_selection_relation(self):
        bra1 = from_graph_points(1, 0, [(BitVec([1]), BitVec([]))])
        c = synth(bra1)
        assert c.semantics() == bra1
        assert c.semantics() == circuit(1, post1(0)).semantics()

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


# -- gate for gate against synthesis as it was ---------------------------------


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


@st.composite
def specs(draw):
    """Total maps x -> T x + s of 0-40 inputs and 0-24 outputs."""
    n, m = draw(st.integers(0, 40)), draw(st.integers(0, 24))
    return AffineMapSpec(
        GF2Matrix.from_masks(draw(st.lists(vectors(n), min_size=m, max_size=m)), n),
        BitVec.from_mask(m, draw(st.integers(0, (1 << m) - 1))),
    )


@st.composite
def partial_isos(draw):
    """Graphs x -> (x, T x + s) of total maps, restricted to a random
    non-empty affine subspace, and sometimes turned around (partial, with
    the copy of x as the output)."""
    spec = draw(specs())
    n, m = spec.n_in, spec.n_out
    rel = spec.graph_relation()
    point = draw(st.integers(0, (1 << n) - 1))
    dom = [c | (_parity(c & point) << (2 * n + m)) for c in draw(st.lists(vectors(n), max_size=n))]
    rel = AffineRelation(n, n + m, rel.constraint_masks + tuple(dom))
    return rel.dagger() if draw(st.booleans()) else rel


random_relations = st.randoms(use_true_random=False).map(
    lambda rng: random_circuit(rng, rng.randrange(8), rng.randrange(1, 60)).semantics()
)
relations = st.one_of(partial_isos(), random_relations, random_relations.map(AffineRelation.dagger))


@settings(deadline=None)
@given(specs())
def test_graph_relation_matches_its_old_layout(spec):
    assert spec.graph_relation() == layout_graph_relation(spec)


@settings(deadline=None)
@given(partial_isos())
def test_from_map_rebuilds_a_partial_iso_from_its_converse_rows(r):
    """The rows synth reads off ``r.dagger()`` through ``map_rows``,
    shifted down past the outputs, are the forms of the map (the first
    n_out) and the domain (the rest), as ``from_map`` takes them."""
    n, m = r.n_in, r.n_out
    assert not r.is_empty()
    forms = [row >> m for row in r.dagger().constraint_masks]
    assert AffineRelation.from_map(n, forms[:m], forms[m:]) == r
    assert r.map_rows() == (tuple(forms[:m]), tuple(forms[m:]))


@settings(deadline=None)
@given(relations)
def test_synth_matches_old_synth(r):
    assert synth(r) == old_synth(r)


def test_synth_matches_old_synth_past_the_enumeration_cap():
    # a graph of 8 inputs and 56 outputs restricted to 2 equations, and its
    # converse: 64 variables, partial both ways
    spec = AffineMapSpec(
        GF2Matrix.from_masks([(i * 37 + 11) % 256 for i in range(48)], 8),
        BitVec.from_mask(48, 0x5A5A_0F0F_3C3C),
    )
    rows = spec.graph_relation().constraint_masks + (0b1011 | 1 << 64, 0b0110_0000)
    r = AffineRelation(8, 56, rows)
    for rel in (r, r.dagger()):
        assert rel.n_in + rel.n_out == 64 and not rel.is_total()
        assert synth(rel) == old_synth(rel)
        assert synth(rel).semantics() == rel


def _domain_point(r, rng):
    """A random point of the domain: random free variables, and each pivot
    of the reduced domain rows set from them."""
    n = r.n_in
    rows = r.domain_masks()
    pivots = {row & -row: row for row in rows}
    x = sum(1 << j for j in range(n) if 1 << j not in pivots and rng.getrandbits(1))
    for low, row in pivots.items():
        if _parity(row & x & ~low) ^ (row >> n):
            x |= low
    return BitVec.from_mask(n, x)


@settings(deadline=None)
@given(relations, st.randoms(use_true_random=False))
def test_canonical_rows_pivot_on_every_variable(r, rng):
    if r.is_empty():
        return
    n, m = r.n_in, r.n_out
    rows, back = r.constraint_masks, r.dagger().constraint_masks
    assert [row & -row for row in rows[:n]] == [1 << j for j in range(n)]
    assert [row & -row for row in back[:m]] == [1 << i for i in range(m)]
    assert tuple(row >> m for row in back[m:]) == r.domain_masks()
    linear = GF2Matrix.from_masks([(row >> m) & ((1 << n) - 1) for row in back[:m]], n)
    shift = BitVec.from_mask(m, sum((row >> (n + m)) << i for i, row in enumerate(back[:m])))
    for _ in range(4):
        x = _domain_point(r, rng)
        assert linear.mul_vec(x) ^ shift == r.apply(x)


def test_a_missing_pivot_is_never_printed(monkeypatch, capsys, tmp_path):
    """With the partial isomorphism check switched off, a projection
    (y0 = x0, x1 free) lacks the pivot x1: ``synth`` builds a circuit of
    another relation, which the command's own check stops.  Its converse
    lacks the pivot y1, which ``map_rows`` refuses."""
    monkeypatch.setattr(AffineRelation, "partial_iso_violation", lambda self: None)
    proj = AffineRelation(2, 1, [0b001 | (1 << 2)])
    internal = ("error: internal error: RuntimeError: synth built a circuit "
                "whose semantics differs from the relation\n")
    not_unique = "error: relation is not a partial isomorphism: image not unique\n"
    for r, code, err in ((proj, 3, internal), (proj.dagger(), 2, not_unique)):
        path = tmp_path / "rel.graph"
        path.write_text(format_relation(r))
        assert run(["synth", str(path)]) == code
        assert capsys.readouterr() == ("", err)
