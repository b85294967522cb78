"""The named circuit families and their defining laws."""

import sys

import pytest
from hypothesis import given, strategies as st

from cnotcalc.cli import run
from cnotcalc.gf2 import BitVec
from cnotcalc.relation import AffineRelation, ArityError, all_bitvecs
from cnotcalc.circuit import (
    Circuit,
    circuit,
    clause_circuit,
    cnot,
    fanin,
    fanout,
    hat,
    init0,
    is_latchable,
    literal,
    omega,
    omega_nm,
    permutation_circuit,
    plus_map,
    post0,
    post1,
    swap,
)
from cnotcalc.gates import notg
from cnotcalc.fuzzing import random_circuit, trial_rng
from cnotcalc import lawsuites
from oracles import enumerate_domain, from_graph_points


def delta_graph(n):
    return from_graph_points(
        n,
        2 * n,
        [
            (x, BitVec(list(x) + list(x)))
            for x in all_bitvecs(n)
        ],
    )


def swap_chain_literal(i, n):
    """The swap-chain literal that ``literal`` replaced: on n+1 wires, wires
    1..i rotated so that data wire i sits next to the clause wire, an
    adjacent cnot onto the clause wire, and the rotation undone."""
    block = Circuit(n + 1, [swap(j - 1, j) for j in range(i, 1, -1)])
    return block.compose(Circuit(n + 1, (cnot(1, 0),))).compose(block.dagger())


def swap_chain_clause(support, rhs, n):
    """``clause_circuit`` built from swap-chain literals."""
    gates = [init0(0)]
    for i in sorted(set(support)):
        gates.append(swap_chain_literal(i + 1, n).gates)
    gates.append(post1(0) if rhs else post0(0))
    return circuit(n, *gates)


clause_cases = st.integers(0, 12).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.sets(st.integers(0, n - 1)) if n else st.just(set()),
        st.integers(0, 1),
    )
)


def inductive_fanout(n):
    """The paper's inductive copy map: fanout(n-1) beside the single-wire
    copy, with swaps restoring the block output order."""
    if n <= 1:
        return fanout(n)
    prev = inductive_fanout(n - 1).tensor(fanout(1))
    fix = [swap(j - 1, j) for j in range(2 * n - 2, n - 1, -1)]
    return circuit(n, prev.gates, fix)


def inductive_plus_map(n):
    """The paper's inductive parity accumulator: plus_map(n-1) beside the
    one-wire instance, with swap networks regrouping the blocks."""
    if n <= 1:
        return plus_map(n)
    k = n - 1
    gather = (
        list(range(k))
        + list(range(n, n + k))
        + list(range(2 * n, 2 * n + k))
        + [k, n + k, 2 * n + k]
    )
    into = permutation_circuit(gather)
    core = inductive_plus_map(k).tensor(plus_map(1))
    return into.compose(core).compose(into.dagger())


class TestClosedForms:
    @pytest.mark.parametrize("n", range(11))
    def test_fanout_matches_inductive_form(self, n):
        assert fanout(n).semantics() == inductive_fanout(n).semantics()
        assert len(fanout(n)) == 5 * n

    @pytest.mark.parametrize("n", range(11))
    def test_plus_map_matches_inductive_form(self, n):
        assert plus_map(n).semantics() == inductive_plus_map(n).semantics()
        assert len(plus_map(n)) == 2 * n

    def test_one_wire_gate_lists_unchanged(self):
        assert fanout(1) == circuit(1, init0(0), cnot(1, 0))
        assert plus_map(1) == circuit(3, cnot(1, 2), cnot(0, 2))

    def test_negative_arity(self):
        for build in (fanout, plus_map):
            with pytest.raises(ArityError):
                build(-1)

    def test_arity_above_maxsize(self):
        big = sys.maxsize + 1
        builds = [fanout, fanin, plus_map, lambda n: omega_nm(n, 0), lambda n: omega_nm(0, n)]
        for build in builds:
            with pytest.raises(ArityError, match=rf"^arity too large \({len(str(big))} digits\)$"):
                build(big)


class TestFanout:
    def test_zero_is_empty_gate_list(self):
        assert fanout(0) == Circuit(0)

    def test_single_wire_graph(self):
        assert fanout(1).semantics() == delta_graph(1)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_copies_in_block_order(self, n):
        assert fanout(n).semantics() == delta_graph(n)

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_separability(self, n):
        assert fanout(n).compose(fanin(n)).semantics() == Circuit(n).semantics()

    def test_fanin_is_dagger(self):
        for n in range(4):
            assert fanin(n) == fanout(n).dagger()

    def test_naturality_suite(self):
        assert lawsuites.copy_naturality(seed=5, trials=15)

    def test_remaining_copy_laws(self):
        assert lawsuites.copy_cocommutative()
        assert lawsuites.copy_coassociative()
        assert lawsuites.copy_semi_frobenius()
        assert lawsuites.copy_uniform()


class TestOmega:
    def test_gate_realization(self):
        from cnotcalc.circuit import init1

        assert omega().gates == (
            init1(0),
            init1(1),
            cnot(0, 1),
            post1(0),
            post1(0),
        )

    def test_omega_empty(self):
        assert omega().semantics() == AffineRelation.empty(0, 0)

    @pytest.mark.parametrize("n,m", [(0, 0), (1, 0), (0, 2), (2, 3)])
    def test_omega_nm_empty(self, n, m):
        c = omega_nm(n, m)
        assert c.n_in == n and c.n_out == m
        assert c.semantics() == AffineRelation.empty(n, m)

    def test_post_absorption(self):
        # composing after the degenerate map stays degenerate
        for rng in [trial_rng(61, i) for i in range(10)]:
            g = random_circuit(rng, 2, 10)
            lhs = omega_nm(1, 2).compose(g)
            assert lhs.semantics() == omega_nm(1, g.n_out).semantics()

    def test_pre_absorption_typed(self):
        for rng in [trial_rng(62, i) for i in range(10)]:
            h = random_circuit(rng, 1, 10)
            lhs = h.compose(omega_nm(h.n_out, 2))
            assert lhs.semantics() == omega_nm(1, 2).semantics()

    def test_tensor_with_identity(self):
        lhs = omega_nm(1, 1).tensor(Circuit(1))
        assert lhs.semantics() == omega_nm(2, 2).semantics()


class TestPlusMap:
    def test_one_wire_examples(self):
        pm = plus_map(1)
        assert pm.eval_state([1, 1, 0]) == BitVec([1, 1, 0])
        assert pm.eval_state([1, 0, 0]) == BitVec([1, 0, 1])

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_total_without_ancilla_effects(self, n):
        assert plus_map(n).semantics().is_total()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_third_block_accumulates_parity(self, n):
        pm = plus_map(n)
        for a in all_bitvecs(n):
            for b in all_bitvecs(n):
                for c in all_bitvecs(n):
                    out = pm.eval_state(list(a) + list(b) + list(c))
                    want = list(a) + list(b) + list(a ^ b ^ c)
                    assert out == BitVec(want)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_torsor_laws(self, n):
        assert lawsuites.torsor_laws(n)

    # Each planted table breaks one law and keeps the laws checked before
    # it: one entry flipped for a three-variable law, and for the
    # five-variable laws an entry on three distinct blocks with its mirror.
    @pytest.mark.parametrize(
        "flipped",
        [
            [(1, 2, 2)],  # p(a, b, b) = a
            [(2, 2, 1)],  # p(b, b, a) = a
            [(1, 2, 1)],  # p(a, b, a) = b
            [(1, 2, 3)],  # p(a, b, c) = p(c, b, a)
            [(1, 2, 3), (3, 2, 1)],  # para-associativity
        ],
    )
    def test_planted_wrong_table_fails(self, monkeypatch, flipped):
        n = 2
        table = lawsuites._para_table(n)
        for a, b, c in flipped:
            table[a | b << n | c << 2 * n] ^= 1
        monkeypatch.setattr(lawsuites, "_para_table", lambda arity: table)
        assert not lawsuites.torsor_laws(n)

    def test_plus_naturality(self):
        assert lawsuites.plus_naturality(seed=6, trials=12)


class TestHat:
    def test_empty_word(self):
        assert hat([]) == Circuit(0)

    def test_single_one(self):
        from cnotcalc.circuit import init1

        assert hat([1]) == circuit(0, init1(0))

    def test_prepares_bits(self):
        assert hat([0, 1, 1]).eval_state([]) == BitVec([0, 1, 1])

    def test_prepares_all_words(self):
        for x in all_bitvecs(4):
            c = hat(x)
            assert c.n_in == 0 and c.n_out == 4
            assert c.eval_state([]) == x

    def test_rejects_what_is_not_a_bit(self):
        # a truthy value is not a 1
        with pytest.raises(ValueError, match="^bit 0 is '0', expected 0 or 1$"):
            hat("01")
        with pytest.raises(ValueError, match="^bit 0 is 2, expected 0 or 1$"):
            hat([2, 0])


class TestSwapBlockAndLiteral:
    def test_literal_state_map(self):
        lit = literal(1, 2)
        for w in (0, 1):
            for x1 in (0, 1):
                for x2 in (0, 1):
                    assert lit.eval_state([w, x1, x2]) == BitVec([w ^ x1, x1, x2])

    @pytest.mark.parametrize("i,n", [(1, 1), (1, 3), (2, 3), (3, 3)])
    def test_literal_involution(self, i, n):
        lit = literal(i, n)
        assert lit.compose(lit).semantics() == Circuit(n + 1).semantics()

    @pytest.mark.parametrize("i,n", [(1, 4), (2, 4), (4, 4)])
    def test_literal_targets_clause_wire(self, i, n):
        lit = literal(i, n)
        for x in all_bitvecs(n + 1):
            got = lit.eval_state(x)
            want = list(x)
            want[0] ^= x[i]
            assert got == BitVec(want)

    def test_out_of_range(self):
        with pytest.raises(ArityError):
            literal(0, 3)
        with pytest.raises(ArityError):
            literal(4, 3)


class TestClauseCircuit:
    def test_empty_support_zero_rhs(self):
        assert clause_circuit([], 0, 2).semantics() == Circuit(2).semantics()

    def test_empty_support_one_rhs(self):
        assert clause_circuit([], 1, 2).semantics() == omega_nm(2, 2).semantics()

    def test_parity_domain(self):
        c = clause_circuit([0, 2], 1, 3)
        dom = {tuple(x) for x in enumerate_domain(c.semantics())}
        assert dom == {
            tuple(x) for x in all_bitvecs(3) if x[0] ^ x[2] == 1
        }

    def test_identity_on_domain(self):
        c = clause_circuit([1], 0, 2)
        for x in all_bitvecs(2):
            got = c.eval_state(x)
            assert got == (x if x[1] == 0 else None)

    @given(clause_cases)
    def test_same_semantics_as_swap_chain_literals(self, case):
        n, support, rhs = case
        c = clause_circuit(support, rhs, n)
        assert c.semantics() == swap_chain_clause(support, rhs, n).semantics()
        # one gate per literal, around a 4-gate init0 and a 1-gate post1 or
        # 4-gate post0
        assert len(c.gates) == len(support) + (5 if rhs else 8)

    @pytest.mark.parametrize("support, wire", [([0, 0], 0), ([2, 0, 3, 2, 0], 2), ([5, 5], 5)])
    def test_repeated_wire_refused_before_range_and_rhs(self, support, wire):
        # x0 + x0 = 0 over GF(2): the support [0, 0] is not the clause x0 = rhs
        with pytest.raises(ArityError, match=f"^repeated wire {wire}$"):
            clause_circuit(support, 7, 1)

    def test_cli_clause_is_linear_in_support(self, capsys):
        assert run(["construct", "clause", "128", "1", *map(str, range(0, 128, 2))]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "circuit clause : 128 -> 128" and lines[-1] == "end"
        assert len(lines) - 2 <= 72


class TestLatchable:
    def test_identity_latchable(self):
        for n in (0, 1, 2):
            assert is_latchable(Circuit(n))

    def test_not_is_not_latchable(self):
        assert not is_latchable(circuit(1, notg(0)))

    def test_symmetric_circuits_latchable(self):
        for rng in [trial_rng(63, i) for i in range(15)]:
            c = random_circuit(rng, rng.randrange(4), 12)
            assert is_latchable(c.compose(c.dagger()))

    def test_arity_checked(self):
        with pytest.raises(ArityError):
            is_latchable(circuit(1, post1(0)))
