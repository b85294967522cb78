"""Axiom corpus integrity and rewrite-application soundness."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from cnotcalc.circuit import Circuit, circuit, cnot, init1, post1, swap
from cnotcalc.gates import notg
from cnotcalc.derivation import Derivation, replay
from cnotcalc.lawsuites import verify_rules
from cnotcalc.rewrite import (
    RewriteRule,
    RuleLoadError,
    all_rules,
    apply_at,
    axiom,
    axiom_names,
    lemma_fixture,
    lemma_names,
    verify_all,
)
from cnotcalc.fuzzing import random_circuit, trial_rng


class TestCorpus:
    def test_axiom_count(self):
        # nine identities, the two-sided ones stored twice
        assert len(axiom_names()) == 11

    def test_cnt2_shape(self):
        rule = axiom("CNT2")
        assert rule.lhs == circuit(2, cnot(0, 1), cnot(0, 1))
        assert rule.rhs == Circuit(2)

    def test_cnt6_shape(self):
        rule = axiom("CNT6")
        assert rule.lhs == circuit(0, init1(0), post1(0))
        assert rule.rhs == Circuit(0)

    def test_cnt3_two_orders(self):
        rule = axiom("CNT3")
        assert rule.lhs == circuit(3, cnot(1, 0), cnot(1, 2))
        assert rule.rhs == circuit(3, cnot(1, 2), cnot(1, 0))

    def test_unknown_names_rejected(self):
        with pytest.raises(RuleLoadError):
            axiom("CNT12")
        with pytest.raises(RuleLoadError):
            lemma_fixture("nope")

    def test_all_sides_semantically_equal(self):
        for rule in all_rules():
            assert rule.lhs.semantics() == rule.rhs.semantics()

    def test_dagger_closure(self):
        # the corpus is horizontally symmetric: flipping both sides of any
        # rule again yields a valid rule
        for rule in all_rules():
            assert rule.lhs.dagger().semantics() == rule.rhs.dagger().semantics()

    def test_expected_lemma_fixtures_present(self):
        names = set(lemma_names())
        assert {
            "omega-absorb",
            "omega-tensor-absorb",
            "omega-post-absorb",
            "omega-pre-absorb",
            "cnot-triple",
            "zero-cancel",
            "cnot-slide",
            "not-slide",
            "copy-discard-zero",
            "copy-discard-one",
            "literal-through-fanin",
            "cut-as-clause",
            "latch-witness",
            "clause-idem",
            "full-copy",
        } <= names


class TestRuleTables:
    def test_each_table_is_built_once_on_first_use(self, monkeypatch):
        import cnotcalc.rewrite as rw

        builds = {"axioms": 0, "lemmas": 0}

        def counted(key, build):
            def wrapper():
                builds[key] += 1
                return build()

            return wrapper

        monkeypatch.setattr(rw, "_AXIOMS", None)
        monkeypatch.setattr(rw, "_LEMMAS", None)
        monkeypatch.setattr(rw, "_RULE_CACHE", {})
        monkeypatch.setattr(rw, "_axiom_circuits", counted("axioms", rw._axiom_circuits))
        monkeypatch.setattr(rw, "_lemma_circuits", counted("lemmas", rw._lemma_circuits))

        first = rw.find_rule("CNT2")
        assert builds == {"axioms": 1, "lemmas": 0}  # axioms only, not at import
        assert all(rw.find_rule("CNT2") is first for _ in range(3))
        lemma = rw.find_rule("zero-cancel")
        assert rw.find_rule("zero-cancel") is lemma
        assert axiom_names() and lemma_names() and all_rules()
        assert builds == {"axioms": 1, "lemmas": 1}


class TestVerify:
    def test_full_corpus_passes(self):
        reports = verify_all()
        assert reports and all(r.ok for r in reports)

    def test_corrupted_fixture_reported(self):
        # bypass the loader check to inject a wrong right-hand side
        broken = RewriteRule(
            "CNT8-broken",
            axiom("CNT8").lhs,
            circuit(3, cnot(1, 2), cnot(0, 1)),
        )
        reports = verify_rules([broken])
        assert len(reports) == 1 and not reports[0].ok

    def test_loader_rejects_unequal_sides(self):
        from cnotcalc.rewrite import _check

        with pytest.raises(RuleLoadError):
            _check("bad", Circuit(1), circuit(1, notg(0)))


class TestApplyAt:
    def test_direct_cancellation(self):
        c = circuit(2, swap(0, 1), cnot(0, 1), cnot(0, 1))
        out = apply_at(c, axiom("CNT2"), 1, "lr")
        assert out == circuit(2, swap(0, 1))

    def test_non_matching_offset(self):
        c = circuit(2, swap(0, 1), cnot(0, 1), cnot(0, 1))
        assert apply_at(c, axiom("CNT2"), 0, "lr") is None

    def test_out_of_bounds(self):
        c = circuit(2, cnot(0, 1))
        assert apply_at(c, axiom("CNT2"), 1, "lr") is None

    def test_right_to_left_expansion(self):
        c = circuit(2, swap(0, 1))
        out = apply_at(c, axiom("CNT1"), 0, "rl")
        assert out == circuit(2, cnot(0, 1), cnot(1, 0), cnot(0, 1))

    def test_match_on_shifted_wires(self):
        # the doubled cnot sits on wires 2,0 of a 3-wire circuit
        c = circuit(3, cnot(2, 0), cnot(2, 0))
        out = apply_at(c, axiom("CNT2"), 0, "lr")
        assert out is not None and c.semantics() == out.semantics()
        assert out.semantics() == Circuit(3).semantics()

    def test_cut_rule_needs_a_wire(self):
        lhs = axiom("CNT9").lhs
        c0 = circuit(0, *lhs.gates[:2], cnot(0, 1), post1(0), post1(0))
        # no pass-through wire exists, so the cut rule cannot apply
        assert apply_at(c0, axiom("CNT9"), 0, "lr") is None

    def test_soundness_on_random_applications(self):
        rules = all_rules()
        applied = 0
        for i in range(1500):
            rng = trial_rng(71, i)
            c = random_circuit(rng, rng.randrange(5), 15)
            rule = rules[rng.randrange(len(rules))]
            offset = rng.randrange(len(c.gates) + 1)
            direction = "lr" if rng.random() < 0.5 else "rl"
            out = apply_at(c, rule, offset, direction)
            if out is not None:
                applied += 1
                assert out.n_out == c.n_out
                assert c.semantics() == out.semantics()
        assert applied >= 50

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), width=st.integers(21, 64))
    def test_every_match_on_a_wide_host_keeps_its_semantics(self, seed, width):
        # a rule side with identity wires below and above it, between a
        # random prefix and suffix, as ``test_output_pin.rewrite_hosts``
        # builds them; the suffix is post-free too, so that most hosts are
        # defined somewhere.  Equal semantics is exact at any width, so this
        # reaches past the 20-variable cap of the state-map checks.
        rng = random.Random(seed)
        rules = all_rules()
        rule = rules[rng.randrange(len(rules))]
        direction = rng.choice(("lr", "rl"))
        side = rule.lhs if direction == "lr" else rule.rhs
        prefix = random_circuit(rng, width, rng.randrange(8), allow_post=False)
        below = rng.randrange(prefix.n_out - side.n_in + 1)
        above = prefix.n_out - side.n_in - below
        middle = Circuit(below).tensor(side).tensor(Circuit(above))
        host = prefix.compose(middle).compose(
            random_circuit(rng, middle.n_out, rng.randrange(8), allow_post=False)
        )
        matched = []
        for k in range(len(host.gates) + 1):
            out = apply_at(host, rule, k, direction)
            if out is not None:
                matched.append(k)
                assert out.n_out == host.n_out and out.semantics() == host.semantics()
        assert len(prefix.gates) in matched

    def test_planted_matches_everywhere(self):
        # splice each rule's lhs into a random host and rewrite it away
        rules = all_rules()
        hits = 0
        for i in range(300):
            rng = trial_rng(72, i)
            rule = rules[rng.randrange(len(rules))]
            host_pre = random_circuit(rng, rule.lhs.n_in, 6)
            ok = host_pre.n_out == rule.lhs.n_in
            if not ok:
                continue
            planted = host_pre.compose(rule.lhs)
            out = apply_at(planted, rule, len(host_pre.gates), "lr")
            if out is None:
                continue
            hits += 1
            assert planted.semantics() == out.semantics()
        assert hits >= 30


class TestDerivation:
    def test_omega_absorption_derivation(self):
        from cnotcalc.circuit import omega

        start = omega().tensor(omega())
        chain = list(replay(Derivation(start, (("omega-absorb", 0, "lr"),))))
        assert chain[0] == start
        assert chain[-1] == omega()

    def test_multi_step_derivation(self):
        # cancel two cnot pairs one after the other
        c = circuit(2, cnot(0, 1), cnot(0, 1), cnot(1, 0), cnot(1, 0))
        d = Derivation(c, (("CNT2", 0, "lr"), ("CNT2", 0, "lr")))
        chain = list(replay(d))
        assert [len(x.gates) for x in chain] == [4, 2, 0]
        assert chain[-1] == Circuit(2)
        for inter in chain:
            assert inter.semantics() == c.semantics()

    def test_failed_step_raises(self):
        c = circuit(2, cnot(0, 1))
        with pytest.raises(ValueError, match="does not match"):
            replay(Derivation(c, (("CNT2", 0, "lr"),)))

    def test_expand_contract_cycle(self):
        # a right-to-left step with an empty source side inserts an identity
        start = circuit(2, swap(0, 1))
        steps = (
            ("CNT1", 0, "rl"),   # swap -> three cnots
            ("CNT2", 3, "rl"),   # append a cancelling pair
            ("CNT2", 3, "lr"),   # remove it again
            ("CNT1", 0, "lr"),   # back to the swap
        )
        chain = list(replay(Derivation(start, steps)))
        assert [len(c.gates) for c in chain] == [1, 3, 5, 3, 1]
        assert chain[-1] == start
        for inter in chain:
            assert inter.semantics() == start.semantics()
