"""Clausal normal form: extraction, elimination, canonicality."""

import pytest
from hypothesis import given, strategies as st

from cnotcalc.relation import AffineRelation, ArityError
from cnotcalc.circuit import (
    circuit,
    clause_circuit,
    cnot,
    equal_circ,
    identity_circuit,
    notg,
    post1,
)
from cnotcalc.normalize import (
    Clause,
    ClausalForm,
    NotIdempotentError,
    UNSAT,
    clausal_to_circuit,
    gaussian_eliminate,
    gaussian_eliminate_steps,
    idempotent_to_clausal,
    normalize_idempotent,
)
from cnotcalc.fuzzing import random_circuit, trial_rng
from oracles import enumerate_domain


def solutions(cf: ClausalForm) -> set:
    out = set()
    for x in range(1 << cf.n):
        if all(
            bin(x & sum(1 << i for i in c.support)).count("1") % 2 == c.rhs
            if c.support
            else c.rhs == 0
            for c in cf.clauses
        ):
            out.add(x)
    return out


def restriction_to_subspace(n, rows):
    """The identity on the solution set of the given (support, rhs) pairs."""
    masks = []
    for support, rhs in rows:
        masks.append(sum(1 << i for i in support) | (rhs << (2 * n)))
    masks += [(1 << j) | (1 << (n + j)) for j in range(n)]
    return AffineRelation(n, n, masks)


class TestIdempotentToClausal:
    def test_identity_has_no_clauses(self):
        for n in range(4):
            cf = idempotent_to_clausal(AffineRelation.identity(n))
            assert cf == ClausalForm(n, ())

    def test_post_selection_on_one_wire(self):
        rel = restriction_to_subspace(2, [({0}, 1)])
        cf = idempotent_to_clausal(rel)
        assert cf == ClausalForm(2, (Clause(frozenset({0}), 1),))
        # confirm the domain by enumeration
        assert {tuple(x) for x in enumerate_domain(rel)} == {(1, 0), (1, 1)}

    def test_two_equation_system_reduced(self):
        rel = restriction_to_subspace(3, [({0, 2}, 1), ({0, 1}, 0)])
        cf = idempotent_to_clausal(rel)
        assert cf == ClausalForm(
            3, (Clause(frozenset({0, 2}), 1), Clause(frozenset({1, 2}), 1))
        )
        # cross-check on the 2 solutions: x0 = 1+x2, x1 = x0
        want = {x for x in range(8) if ((x >> 0) ^ (x >> 2)) & 1 == 1 and ((x >> 0) ^ (x >> 1)) & 1 == 0}
        assert solutions(cf) == want

    def test_empty_relation_gives_unsat_clause(self):
        cf = idempotent_to_clausal(AffineRelation.empty(2, 2))
        assert cf == ClausalForm(2, (UNSAT,))

    def test_rejects_non_endo(self):
        with pytest.raises(NotIdempotentError, match="arity"):
            idempotent_to_clausal(AffineRelation.empty(1, 2))

    def test_rejects_non_idempotent(self):
        with pytest.raises(NotIdempotentError, match="restriction"):
            idempotent_to_clausal(circuit(1, notg(0)).semantics())


class TestClausalToCircuit:
    def test_no_clauses_is_identity(self):
        assert clausal_to_circuit(ClausalForm(3, ())) == identity_circuit(3)

    def test_single_wire_pin(self):
        c = clausal_to_circuit(ClausalForm(1, (Clause(frozenset({0}), 1),)))
        dom = {tuple(x) for x in enumerate_domain(c.semantics())}
        assert dom == {(1,)}

    def test_unsat_clause_is_empty(self):
        c = clausal_to_circuit(ClausalForm(2, (UNSAT,)))
        assert c.semantics() == AffineRelation.empty(2, 2)

    def test_clause_order_is_gate_order(self):
        cf = ClausalForm(2, (Clause(frozenset({0}), 0), Clause(frozenset({1}), 1)))
        expect = clause_circuit([0], 0, 2).compose(clause_circuit([1], 1, 2))
        assert clausal_to_circuit(cf) == expect


class TestGaussianEliminate:
    def test_worked_reduction(self):
        cf = ClausalForm(
            3, (Clause(frozenset({0, 2}), 1), Clause(frozenset({0, 1}), 0))
        )
        got = gaussian_eliminate(cf)
        assert got == ClausalForm(
            3, (Clause(frozenset({0, 2}), 1), Clause(frozenset({1, 2}), 1))
        )

    def test_canonical_input_unchanged(self):
        cf = ClausalForm(
            3, (Clause(frozenset({0, 2}), 1), Clause(frozenset({1, 2}), 1))
        )
        assert gaussian_eliminate(cf) == cf

    def test_contradiction_collapses(self):
        cf = ClausalForm(1, (Clause(frozenset({0}), 1), Clause(frozenset({0}), 0)))
        assert gaussian_eliminate(cf) == ClausalForm(1, (UNSAT,))

    def test_steps_replay_to_same_solutions(self):
        cf = ClausalForm(
            4,
            (
                Clause(frozenset({1, 3}), 1),
                Clause(frozenset({0, 1}), 0),
                Clause(frozenset({0, 3}), 1),
            ),
        )
        reduced, steps = gaussian_eliminate_steps(cf)
        # replay the recorded moves on the raw masks
        masks = cf.masks()
        for op, i, j in steps:
            if op == "swap":
                masks[i], masks[j] = masks[j], masks[i]
            else:
                masks[j] ^= masks[i]
        surviving = [m for m in masks if m]
        assert sorted(surviving) == sorted(c.mask(4) for c in reduced.clauses)
        assert solutions(reduced) == solutions(cf)

    def test_preserves_solutions_random(self):
        for i in range(40):
            rng = trial_rng(81, i)
            n = rng.randrange(1, 7)
            clauses = tuple(
                Clause(
                    frozenset(j for j in range(n) if rng.random() < 0.4),
                    rng.randrange(2),
                )
                for _ in range(rng.randrange(4))
            )
            cf = ClausalForm(n, clauses)
            assert solutions(gaussian_eliminate(cf)) == solutions(cf)

    @given(
        st.integers(0, 40).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.tuples(st.sets(st.integers(0, n - 1)) if n else st.just(set()), st.integers(0, 1)),
                    max_size=n + 3,
                ),
            )
        )
    )
    def test_same_form_as_recorded_moves(self, case):
        n, pairs = case
        cf = ClausalForm(n, tuple(Clause(frozenset(s), rhs) for s, rhs in pairs))
        assert gaussian_eliminate(cf) == gaussian_eliminate_steps(cf)[0]


class TestNormalizeIdempotent:
    def test_identity_normalizes_to_itself(self):
        for n in range(3):
            assert normalize_idempotent(identity_circuit(n)) == identity_circuit(n)

    def test_defined_for_all_symmetric_circuits(self):
        for i in range(20):
            rng = trial_rng(82, i)
            c = random_circuit(rng, rng.randrange(4), 12)
            e = c.compose(c.dagger())
            normal = normalize_idempotent(e)
            assert equal_circ(normal, e)

    def test_doubled_clause_normalizes_once(self):
        clause = clause_circuit([0, 1], 1, 2)
        once = normalize_idempotent(clause)
        twice = normalize_idempotent(clause.compose(clause))
        assert once == twice
        assert equal_circ(once, clause)

    def test_canonical_across_equal_circuits(self):
        # semantically equal idempotents yield the identical gate list
        a = clause_circuit([0, 1], 1, 2)
        b = clause_circuit([1, 0], 1, 2).compose(clause_circuit([0, 1], 1, 2))
        assert normalize_idempotent(a) == normalize_idempotent(b)

    def test_output_normalizes_to_itself(self):
        # the canonical circuit is a fixed point, gate for gate
        for i in range(30):
            rng = trial_rng(85, i)
            n = rng.randrange(1, 8)
            rows = [
                ({j for j in range(n) if rng.random() < 0.5}, rng.randrange(2))
                for _ in range(rng.randrange(4))
            ]
            normal = clausal_to_circuit(
                idempotent_to_clausal(restriction_to_subspace(n, rows))
            )
            assert normalize_idempotent(normal) == normal

    def test_diagnostic_on_non_idempotent(self):
        with pytest.raises(NotIdempotentError):
            normalize_idempotent(circuit(2, cnot(0, 1)))

    def test_diagnostic_on_arity_mismatch(self):
        with pytest.raises(NotIdempotentError, match="arity"):
            normalize_idempotent(circuit(1, post1(0)))


class TestRoundTrip:
    def test_clausal_roundtrip_on_random_subspaces(self):
        for i in range(30):
            rng = trial_rng(83, i)
            n = rng.randrange(1, 7)
            rows = [
                (
                    {j for j in range(n) if rng.random() < 0.4},
                    rng.randrange(2),
                )
                for _ in range(rng.randrange(3))
            ]
            rel = restriction_to_subspace(n, rows)
            back = clausal_to_circuit(idempotent_to_clausal(rel)).semantics()
            assert back == rel

    def test_mixing_moves_reach_same_canonical_circuit(self):
        for i in range(40):
            rng = trial_rng(84, i)
            n = rng.randrange(1, 6)
            base = [
                Clause(
                    frozenset(j for j in range(n) if rng.random() < 0.5),
                    rng.randrange(2),
                )
                for _ in range(rng.randrange(1, 4))
            ]
            mixed = list(base)
            for _ in range(rng.randrange(8)):
                if len(mixed) >= 2 and rng.random() < 0.7:
                    i1, i2 = rng.randrange(len(mixed)), rng.randrange(len(mixed))
                    if i1 != i2:
                        a, b = mixed[i1], mixed[i2]
                        mixed[i2] = Clause(a.support ^ b.support, a.rhs ^ b.rhs)
                else:
                    rng.shuffle(mixed)
            c1 = clausal_to_circuit(gaussian_eliminate(ClausalForm(n, tuple(base))))
            c2 = clausal_to_circuit(gaussian_eliminate(ClausalForm(n, tuple(mixed))))
            assert c1 == c2


def old_clauses_from_masks(rows, n):
    """``ClausalForm.from_masks`` as it was: every column of every row tested."""
    out = []
    for r in rows:
        support = frozenset(i for i in range(n) if (r >> i) & 1)
        out.append(Clause(support, (r >> n) & 1))
    return ClausalForm(n, tuple(out))


@given(st.data())
def test_from_masks_by_set_bits_matches_column_scan(data):
    n = data.draw(st.integers(0, 300))
    # bits above the rhs (bit n) are dropped, as the column scan dropped them
    rows = data.draw(st.lists(st.integers(0, (1 << (n + 3)) - 1), max_size=12))
    assert ClausalForm.from_masks(n, rows) == old_clauses_from_masks(rows, n)


def test_clause_refuses_a_repeated_wire():
    # x0 + x0 = 0 over GF(2): the support [0, 0] is not the clause x0 = 1
    with pytest.raises(ArityError, match="^repeated wire 0$"):
        Clause([0, 0], 1)
    with pytest.raises(ArityError, match="^repeated wire 2$"):
        Clause(iter([2, 0, 3, 2, 0]), 0)
    # a set cannot repeat a wire, so it is taken as it is
    assert Clause({1, 0}, 1) == Clause(frozenset({0, 1}), 1) == Clause([1, 0], 1)
