"""The semantic domain: graph-level oracles versus the constraint algebra."""

import pytest
from hypothesis import given, settings, strategies as st

from cnotcalc.gf2 import BitVec
from cnotcalc.relation import AffineRelation, ArityError, all_bitvecs
from cnotcalc.relation_formats import parse_relation
from cnotcalc.fuzzing import random_circuit, trial_rng
from test_gf2 import column_scan_project
from test_synth import partial_isos
from oracles import (
    enumerate_graph, from_graph_points, layout_identity, layout_permutation,
    old_partial_iso_violation, projected_domain,
)


def rel_from_pairs(n, m, pairs):
    return from_graph_points(
        n, m, [(BitVec(x), BitVec(y)) for x, y in pairs]
    )


def pts(rel):
    return {(tuple(x), tuple(y)) for x, y in enumerate_graph(rel)}


CNOT_GRAPH = rel_from_pairs(
    2, 2, [((a, b), (a, a ^ b)) for a in (0, 1) for b in (0, 1)]
)
KET1 = rel_from_pairs(0, 1, [((), (1,))])     # |1>
BRA1 = rel_from_pairs(1, 0, [((1,), ())])     # <1|
DELTA = rel_from_pairs(1, 2, [((x,), (x, x)) for x in (0, 1)])


def random_relation(rng, max_arity=5, depth=18):
    n = rng.randrange(max_arity + 1)
    return random_circuit(rng, n, depth).semantics()


def seeded(count, salt):
    return [trial_rng(salt, i) for i in range(count)]


class TestConstructorsAndExamples:
    def test_identity_zero(self):
        r = AffineRelation.identity(0)
        assert pts(r) == {((), ())} and r.is_total()

    def test_identity_one(self):
        assert pts(AffineRelation.identity(1)) == {((0,), (0,)), ((1,), (1,))}

    def test_identity_two(self):
        r = AffineRelation.identity(2)
        assert pts(r) == {((a, b), (a, b)) for a in (0, 1) for b in (0, 1)}

    def test_empty_has_no_points(self):
        assert pts(AffineRelation.empty(1, 1)) == set()

    def test_cnot_graph(self):
        assert pts(CNOT_GRAPH) == {
            ((0, 0), (0, 0)),
            ((0, 1), (0, 1)),
            ((1, 0), (1, 1)),
            ((1, 1), (1, 0)),
        }


class TestCompose:
    def test_cnot_self_inverse(self):
        assert CNOT_GRAPH.compose(CNOT_GRAPH) == AffineRelation.identity(2)

    def test_identity_is_neutral(self):
        for rng in seeded(10, salt=21):
            r = random_relation(rng)
            assert r.compose(AffineRelation.identity(r.n_out)) == r
            assert AffineRelation.identity(r.n_in).compose(r) == r

    def test_ket_bra_composites(self):
        # |1> then <1| is the identity on no wires; <1| then |1> keeps x = 1
        assert KET1.compose(BRA1) == AffineRelation.identity(0)
        assert pts(BRA1.compose(KET1)) == {((1,), (1,))}

    def test_arity_mismatch(self):
        with pytest.raises(ArityError):
            KET1.compose(KET1)

    def test_against_set_composition(self):
        for rng in seeded(30, salt=22):
            r = random_relation(rng, max_arity=4, depth=12)
            s_circ = random_circuit(rng, r.n_out, 12)
            s = s_circ.semantics()
            expected = {
                (x, z)
                for (x, y1) in pts(r)
                for (y2, z) in pts(s)
                if y1 == y2
            }
            assert pts(r.compose(s)) == expected


class TestTensor:
    def test_identity_blocks(self):
        one = AffineRelation.identity(1)
        assert one.tensor(one) == AffineRelation.identity(2)

    def test_empty_absorbs(self):
        for rng in seeded(5, salt=23):
            r = random_relation(rng, max_arity=3, depth=10)
            assert AffineRelation.empty(0, 0).tensor(r) == AffineRelation.empty(
                r.n_in, r.n_out
            )

    def test_point_product(self):
        assert pts(KET1.tensor(KET1)) == {((), (1, 1))}

    def test_against_set_product(self):
        for rng in seeded(20, salt=24):
            r = random_relation(rng, max_arity=3, depth=10)
            s = random_relation(rng, max_arity=3, depth=10)
            expected = {
                (x + xx, y + yy) for (x, y) in pts(r) for (xx, yy) in pts(s)
            }
            assert pts(r.tensor(s)) == expected


class TestDagger:
    def test_identity_symmetric(self):
        for n in range(4):
            assert AffineRelation.identity(n).dagger() == AffineRelation.identity(n)

    def test_ket_bra(self):
        assert KET1.dagger() == BRA1

    def test_delta_converse(self):
        assert pts(DELTA.dagger()) == {((x, x), (x,)) for x in (0, 1)}

    def test_involutive_and_set_converse(self):
        for rng in seeded(20, salt=25):
            r = random_relation(rng)
            assert r.dagger().dagger() == r
            assert pts(r.dagger()) == {(y, x) for (x, y) in pts(r)}


class TestRestrictionAndMeet:
    def test_total_restriction(self):
        for n in range(4):
            ident = AffineRelation.identity(n)
            assert ident.restriction() == ident

    def test_bra_restriction(self):
        assert pts(BRA1.restriction()) == {((1,), (1,))}

    def test_empty_restriction(self):
        assert AffineRelation.empty(2, 3).restriction() == AffineRelation.empty(2, 2)

    def test_restriction_as_composite(self):
        # the restriction is r . dagger(r), and it is idempotent
        for rng in seeded(20, salt=26):
            r = random_relation(rng)
            rbar = r.restriction()
            assert rbar == r.compose(r.dagger())
            assert rbar.compose(rbar) == rbar

    def test_meet_idempotent(self):
        for rng in seeded(10, salt=27):
            r = random_relation(rng)
            assert r.meet(r) == r

    def test_meet_of_disjoint_lines(self):
        ident = AffineRelation.identity(1)
        notrel = rel_from_pairs(1, 1, [((0,), (1,)), ((1,), (0,))])
        assert ident.meet(notrel) == AffineRelation.empty(1, 1)

    def test_meet_with_point(self):
        point = rel_from_pairs(1, 1, [((1,), (1,))])
        assert AffineRelation.identity(1).meet(point) == point

    def test_meet_is_intersection_and_below(self):
        for rng in seeded(20, salt=28):
            r = random_relation(rng, max_arity=4)
            s = random_circuit(trial_rng(29, rng.randrange(100)), r.n_in, 12)
            s = s.semantics()
            if s.n_out != r.n_out:
                continue
            m = r.meet(s)
            assert pts(m) == pts(r) & pts(s)
            assert m.restriction().compose(r) == m


class TestPartialIso:
    def test_identity(self):
        assert AffineRelation.identity(3).is_partial_iso()

    def test_diagonal(self):
        assert DELTA.is_partial_iso()

    def test_projection_fails(self):
        proj = AffineRelation(2, 1, [0b001 | (1 << 2)])  # y0 = x0, x1 free
        assert not proj.is_partial_iso()
        side, direction = proj.partial_iso_violation()
        assert side == "y" and list(direction) == [0, 1]

    def test_empty_is_partial_iso(self):
        assert AffineRelation.empty(2, 2).is_partial_iso()

    def test_constant_map_fails(self):
        const = rel_from_pairs(1, 1, [((0,), (0,)), ((1,), (0,))])
        assert not const.is_partial_iso()


class TestApplyAndEnumerate:
    def test_cnot_action(self):
        assert CNOT_GRAPH.apply(BitVec([1, 0])) == BitVec([1, 1])

    def test_outside_domain(self):
        assert BRA1.apply(BitVec([0])) is None

    def test_empty_everywhere_undefined(self):
        e = AffineRelation.empty(2, 1)
        assert all(e.apply(x) is None for x in all_bitvecs(2))

    def test_length_checked(self):
        with pytest.raises(ArityError):
            CNOT_GRAPH.apply(BitVec([1]))
        with pytest.raises(ArityError):
            CNOT_GRAPH.apply_all([1], 1)

    def test_an_output_the_inputs_do_not_fix(self):
        # x0 = 1 and y0 = x0, y1 free: every input raises, the one outside
        # the domain (x0 = 0) too, one lane at a time or all at once
        loose = AffineRelation(1, 2, [0b1001, 0b0011])
        message = "^relation is not a partial isomorphism: image not unique$"
        for x in all_bitvecs(1):
            with pytest.raises(ValueError, match=message):
                loose.apply(x)
        with pytest.raises(ValueError, match=message):
            loose.apply_all([0b10], 2)

    def test_apply_matches_enumeration(self):
        for rng in seeded(40, salt=30):
            r = random_relation(rng, max_arity=4, depth=15)
            graph = pts(r)
            for x in all_bitvecs(r.n_in):
                y = r.apply(x)
                matching = {out for (inp, out) in graph if inp == tuple(x)}
                if y is None:
                    assert matching == set()
                else:
                    assert matching == {tuple(y)}

    def test_enumerate_guard(self):
        with pytest.raises(ValueError):
            enumerate_graph(AffineRelation.identity(11))


class TestInverseCategoryLaws:
    def test_inv1_involution(self):
        for rng in seeded(15, salt=31):
            r = random_relation(rng)
            assert r.dagger().dagger() == r

    def test_inv2_regularity(self):
        for rng in seeded(30, salt=32):
            r = random_relation(rng)
            assert r.compose(r.dagger()).compose(r) == r

    def test_inv3_idempotents_commute(self):
        for rng in seeded(30, salt=33):
            r = random_relation(rng)
            s = random_circuit(rng, r.n_in, 15).semantics()
            rbar = r.compose(r.dagger())
            sbar = s.compose(s.dagger())
            assert rbar.compose(sbar) == sbar.compose(rbar)

    def test_restriction_axioms(self):
        # R.1-R.4, with the graph enumeration confirming each instance
        for rng in seeded(25, salt=34):
            f = random_relation(rng, max_arity=4, depth=12)
            g = random_circuit(rng, f.n_in, 12).semantics()
            h = random_circuit(rng, f.n_out, 12).semantics()
            fbar, gbar = f.restriction(), g.restriction()
            # R.1
            assert fbar.compose(f) == f
            # R.2
            assert fbar.compose(gbar) == gbar.compose(fbar)
            # R.3
            assert gbar.compose(f).restriction() == fbar.compose(gbar)
            # R.4 with cod f = dom h
            assert f.compose(h.restriction()) == f.compose(h).restriction().compose(f)
            # spot-check one instance set-theoretically
            assert pts(fbar) == {(x, x) for (x, _) in pts(f)}

    def test_associativity_and_interchange(self):
        for rng in seeded(20, salt=35):
            a = random_relation(rng, max_arity=3, depth=10)
            b = random_circuit(rng, a.n_out, 10).semantics()
            c = random_circuit(rng, b.n_out, 10).semantics()
            assert a.compose(b).compose(c) == a.compose(b.compose(c))
            d = random_relation(rng, max_arity=3, depth=10)
            e = random_circuit(rng, d.n_out, 10).semantics()
            lhs = a.tensor(d).compose(b.tensor(e))
            rhs = a.compose(b).tensor(d.compose(e))
            assert lhs == rhs


class TestMeetSemilattice:
    """Meet is idempotent, commutative, and associative."""

    @given(
        st.integers(0, 4),
        st.integers(0, 10_000),
        st.integers(0, 10_000),
        st.integers(0, 10_000),
    )
    def test_meet_laws(self, n, s1, s2, s3):
        r = random_circuit(trial_rng(37, s1), n, 12).semantics().restriction()
        s = random_circuit(trial_rng(38, s2), n, 12).semantics().restriction()
        t = random_circuit(trial_rng(39, s3), n, 12).semantics().restriction()
        assert r.meet(s) == s.meet(r)
        assert r.meet(s).meet(t) == r.meet(s.meet(t))
        assert r.meet(r) == r


class TestCanonicality:
    def test_construction_paths_agree(self):
        # op-algebra path and point-set path reach identical constraints
        for rng in seeded(30, salt=36):
            r = random_relation(rng, max_arity=4, depth=15)
            rebuilt = from_graph_points(
                r.n_in, r.n_out, enumerate_graph(r)
            )
            assert rebuilt == r
            assert rebuilt.constraint_masks == r.constraint_masks

    def test_empty_is_canonical_row(self):
        # x0 = 1, y0 = 1, x0 + y0 = 1 is unsatisfiable
        r = AffineRelation(1, 1, [0b1 | (1 << 2), 0b10 | (1 << 2), 0b11 | (1 << 2)])
        assert r == AffineRelation.empty(1, 1)
        assert r.constraint_masks == (1 << 2,)


# -- block-shift operations versus the per-bit remap they replaced -------------


def _remap(mask, nvars, where, rhs_to):
    """Old per-bit form: bit j < nvars moves to where[j], bit nvars to rhs_to."""
    out = 0
    for j in range(nvars):
        if (mask >> j) & 1:
            out |= 1 << where[j]
    if (mask >> nvars) & 1:
        out |= 1 << rhs_to
    return out


def old_compose(a, b):
    n, m, p = a.n_in, a.n_out, b.n_out
    nv = n + m + p
    rows = [_remap(r, n + m, list(range(n + m)), nv) for r in a.constraint_masks]
    rows += [_remap(r, m + p, list(range(n, nv)), nv) for r in b.constraint_masks]
    rows = column_scan_project(rows, nv, range(n, n + m))
    where = list(range(n)) + [0] * m + list(range(n, n + p))
    return AffineRelation(n, p, [_remap(r, nv, where, n + p) for r in rows])


def old_tensor(a, b):
    n1, m1, n2, m2 = a.n_in, a.n_out, b.n_in, b.n_out
    rhs = n1 + n2 + m1 + m2
    where1 = list(range(n1)) + list(range(n1 + n2, n1 + n2 + m1))
    where2 = list(range(n1, n1 + n2)) + list(range(n1 + n2 + m1, rhs))
    rows = [_remap(r, n1 + m1, where1, rhs) for r in a.constraint_masks]
    rows += [_remap(r, n2 + m2, where2, rhs) for r in b.constraint_masks]
    return AffineRelation(n1 + n2, m1 + m2, rows)


def old_dagger(a):
    n, m = a.n_in, a.n_out
    where = list(range(m, m + n)) + list(range(m))
    return AffineRelation(m, n, [_remap(r, n + m, where, n + m) for r in a.constraint_masks])


def old_domain_masks(a):
    n, m = a.n_in, a.n_out
    rows = column_scan_project(a.constraint_masks, n + m, range(n, n + m))
    where = list(range(n)) + [0] * m
    return AffineRelation(n, 0, [_remap(r, n + m, where, n) for r in rows]).constraint_masks


def old_restriction_on(n, domain_rows):
    rows = [_remap(r, n, list(range(n)), 2 * n) for r in domain_rows]
    rows += [(1 << j) | (1 << (n + j)) for j in range(n)]
    return AffineRelation(n, n, rows)


widths = st.integers(0, 70)


@st.composite
def relations(draw, n_in=None, n_out=None):
    """Constraint systems of up to 70 + 70 variables through a random point,
    so most are nonempty; a few get the row 0 = 1."""
    n = draw(widths) if n_in is None else n_in
    m = draw(widths) if n_out is None else n_out
    nv = n + m
    point = draw(st.integers(0, (1 << nv) - 1))
    coefs = draw(st.lists(st.integers(0, (1 << nv) - 1), max_size=nv + 2))
    rows = [c | ((c & point).bit_count() & 1) << nv for c in coefs]
    if draw(st.integers(0, 9)) == 0:
        rows.append(1 << nv)
    return AffineRelation(n, m, rows)


class TestEmptyOperand:
    """``compose``, ``tensor`` and ``dagger`` return the empty relation at
    once when an operand is empty; the per-bit remap path is the oracle."""

    @staticmethod
    def emptied(a, data):
        return AffineRelation.empty(a.n_in, a.n_out) if data.draw(st.booleans()) else a

    @settings(deadline=None, max_examples=60)
    @given(st.data())
    def test_compose(self, data):
        a = data.draw(relations())
        b = data.draw(relations(n_in=a.n_out))
        for x, y in [(AffineRelation.empty(a.n_in, a.n_out), b),
                     (a, AffineRelation.empty(b.n_in, b.n_out)),
                     (self.emptied(a, data), self.emptied(b, data))]:
            assert x.compose(y) == old_compose(x, y)

    @settings(deadline=None, max_examples=60)
    @given(st.data())
    def test_tensor(self, data):
        a, b = data.draw(relations()), data.draw(relations())
        for x, y in [(AffineRelation.empty(a.n_in, a.n_out), b),
                     (a, AffineRelation.empty(b.n_in, b.n_out)),
                     (self.emptied(a, data), self.emptied(b, data))]:
            assert x.tensor(y) == old_tensor(x, y)

    @settings(deadline=None, max_examples=60)
    @given(widths, widths)
    def test_dagger(self, n, m):
        e = AffineRelation.empty(n, m)
        assert e.dagger() == old_dagger(e) == AffineRelation.empty(m, n)

    @given(widths, widths)
    def test_empty_is_the_canonical_row(self, n, m):
        # built without elimination, as the elimination would build it
        assert AffineRelation.empty(n, m) == AffineRelation(n, m, [1 << (n + m)])

    def test_empty_arities_checked(self):
        for n, m in [(-1, 0), (0, -1)]:
            with pytest.raises(ArityError):
                AffineRelation.empty(n, m)

    def test_compose_arity_checked_first(self):
        e, idn = AffineRelation.empty, AffineRelation.identity
        for a, b in [(e(2, 3), e(2, 2)), (e(2, 3), idn(2)), (idn(2), e(3, 1)), (e(0, 1), e(0, 0))]:
            with pytest.raises(ArityError):
                a.compose(b)


class TestBlockShiftsMatchRemap:
    @settings(deadline=None, max_examples=60)
    @given(st.data())
    def test_compose(self, data):
        a = data.draw(relations())
        b = data.draw(relations(n_in=a.n_out))
        assert a.compose(b) == old_compose(a, b)

    @settings(deadline=None, max_examples=60)
    @given(relations(), relations())
    def test_tensor(self, a, b):
        assert a.tensor(b) == old_tensor(a, b)

    @settings(deadline=None, max_examples=60)
    @given(relations())
    def test_dagger_and_domain(self, a):
        assert a.dagger() == old_dagger(a)
        assert a.domain_masks() == old_domain_masks(a)
        assert a.restriction() == old_restriction_on(a.n_in, old_domain_masks(a))

    @settings(deadline=None, max_examples=60)
    @given(st.data())
    def test_restriction_on(self, data):
        n = data.draw(widths)
        # bits above the rhs (bit n) are dropped, as the remap dropped them
        rows = data.draw(st.lists(st.integers(0, (1 << (n + 3)) - 1), max_size=n + 2))
        assert AffineRelation.restriction_on(n, rows) == old_restriction_on(n, rows)


class TestFromMap:
    """``from_map`` against the row layouts the constructors wrote
    themselves, and against the map it is given, at widths past the
    enumeration cap.  ``restriction_on`` is checked against
    ``old_restriction_on`` in ``TestBlockShiftsMatchRemap``."""

    @settings(deadline=None, max_examples=60)
    @given(st.data())
    def test_identity_and_permutation(self, data):
        n = data.draw(widths)
        perm = data.draw(st.permutations(range(n)))
        assert AffineRelation.identity(n) == layout_identity(n)
        assert AffineRelation.permutation(perm) == layout_permutation(perm)
        assert AffineRelation.from_map(n, [1 << j for j in perm]) == layout_permutation(perm)

    @pytest.mark.parametrize("perm", [[0, 0], [1], [0, 2], [1, 1, 0], [-1, 0]])
    def test_permutation_refuses_a_non_permutation(self, perm):
        # [0, 0] would be a 2 -> 2 relation that is no partial isomorphism
        with pytest.raises(ArityError, match="is not a permutation"):
            AffineRelation.permutation(perm)

    def test_negative_arity(self):
        for build in (lambda: AffineRelation.from_map(-1, []), lambda: AffineRelation.identity(-1),
                      lambda: AffineRelation.restriction_on(-1, [1])):
            with pytest.raises(ArityError, match="arities must be nonnegative"):
                build()

    @settings(deadline=None, max_examples=60)
    @given(st.data())
    def test_graph_of_the_map_on_the_domain(self, data):
        """Bits above a row's constant are dropped.  On a point of the
        domain, on that point moved along each row's coefficients and on
        random points, ``apply`` gives the forms' values exactly where every
        domain row is 0."""
        n, m = data.draw(widths), data.draw(widths)
        forms = data.draw(st.lists(st.integers(0, (1 << (n + 3)) - 1), min_size=m, max_size=m))
        point = data.draw(st.integers(0, (1 << n) - 1))
        coefs = data.draw(st.lists(st.integers(0, (1 << (n + 3)) - 1), max_size=n + 2))
        domain = [c ^ (((c & point).bit_count() ^ (c >> n)) & 1) << n for c in coefs]
        r = AffineRelation.from_map(n, forms, domain)
        assert (r.n_in, r.n_out) == (n, m) and not r.is_empty()
        keep = (1 << (n + 1)) - 1
        assert r == AffineRelation.from_map(n, [f & keep for f in forms], [d & keep for d in domain])

        def value(row, x):  # the affine form at x, constant at bit n
            return ((row & x).bit_count() ^ (row >> n)) & 1

        low = (1 << n) - 1
        xs = [point] + [point ^ (c & low) for c in coefs]
        xs += data.draw(st.lists(st.integers(0, low), max_size=4))
        for x in xs:
            defined = all(value(d, x) == 0 for d in domain)
            want = sum(value(f, x) << i for i, f in enumerate(forms)) if defined else None
            got = r.apply(BitVec.from_mask(n, x))
            assert (got.mask if got is not None else None) == want


@st.composite
def maybe_empty(draw, n_in=None, n_out=None):
    """``relations``, or half the time the empty relation of their arities."""
    r = draw(relations(n_in, n_out))
    return AffineRelation.empty(r.n_in, r.n_out) if draw(st.booleans()) else r


@settings(deadline=None, max_examples=80)
@given(maybe_empty())
def test_map_rows_is_the_inverse_of_from_map(r):
    """``map_rows`` reads back the forms and the domain rows that
    ``from_map`` takes, the empty relation's included; it refuses just the
    relations with a homogeneous solution whose x-part is zero, where the
    inputs leave an output free."""
    violation = r.partial_iso_violation()
    if violation is not None and violation[0] == "x":
        with pytest.raises(ValueError, match="image not unique"):
            r.map_rows()
    else:
        assert AffineRelation.from_map(r.n_in, *r.map_rows()) == r


@st.composite
def graph_files(draw):
    """Relations read from ``graph`` files of up to 64 variables: parity
    lines with any terms and right-hand sides, so mostly no partial
    isomorphism, and some empty."""
    n = draw(st.integers(0, 64))
    m = draw(st.integers(0, 64 - n))
    lines = [f"graph {n} {m}"]
    for coef, rhs in draw(st.lists(st.tuples(st.integers(0, (1 << (n + m)) - 1), st.booleans()),
                                   max_size=n + m + 2)):
        terms = [f"x{j}" if j < n else f"y{j - n}" for j in range(n + m) if coef >> j & 1]
        lines.append(" ".join(["parity", *terms, "=", str(int(rhs))]))
    return parse_relation("\n".join(lines + ["end", ""]))


@settings(deadline=None, max_examples=150)
@given(st.one_of(maybe_empty(), graph_files(), partial_isos()))
def test_the_converse_pivots_decide_what_two_kernels_decided(r):
    """The partial isomorphism test, the domain, the converse and totality,
    all read off the converse rows, against the two kernel eliminations and
    the projection they replaced, past the enumeration cap; ``partial_isos``
    draws the relations that pass."""
    assert r.partial_iso_violation() == old_partial_iso_violation(r)
    assert r.domain_masks() == projected_domain(r)
    back = r.dagger()
    assert back.dagger().constraint_masks == r.constraint_masks
    assert AffineRelation(back.n_in, back.n_out, back.constraint_masks).dagger() == r
    assert r.is_total() == (projected_domain(r) == ())


class TestOneProjectionMatchesColumnScan:
    """``compose`` and ``domain_masks`` eliminate with one RREF, the
    eliminated block lowest; the old path projected column by column."""

    @settings(deadline=None, max_examples=80)
    @given(st.data())
    def test_compose(self, data):
        a = data.draw(maybe_empty())
        b = data.draw(maybe_empty(n_in=a.n_out))
        got = a.compose(b)
        assert got == old_compose(a, b)
        if a.is_empty() or b.is_empty():
            assert got == AffineRelation.empty(a.n_in, b.n_out)

    @settings(deadline=None, max_examples=80)
    @given(maybe_empty())
    def test_domain_masks(self, a):
        got = a.domain_masks()
        assert got == old_domain_masks(a)
        assert got == AffineRelation(a.n_in, 0, got).constraint_masks  # canonical
        if a.is_empty():
            assert got == (1 << a.n_in,)
