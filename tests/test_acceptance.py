"""Acceptance suite: one test per criterion, exact tolerances, stated sizes.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion with its measured runtime.
"""

import time

from cnotcalc.gf2 import BitVec, GF2Matrix
from cnotcalc.relation import all_bitvecs
from cnotcalc.normalize import Clause, ClausalForm, clausal_to_circuit, gaussian_eliminate
from cnotcalc.lawsuites import verify_rules
from cnotcalc.rewrite import axiom_names, axiom, lemma_names, lemma_fixture
from cnotcalc.synth import AffineMapSpec, synth, synth_total_graph
from cnotcalc.fuzzing import random_circuit, trial_rng
from cnotcalc import lawsuites


def report(number: int, label: str, ok: bool, started: float, budget: float):
    elapsed = time.time() - started
    print(f"{'PASS' if ok else 'FAIL'}  criterion {number}: {label} ({elapsed:.2f}s)")
    assert ok, f"criterion {number} failed: {label}"
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.2f}s)"


def test_criterion_1_axiom_suite():
    from cnotcalc.rewrite import _RULE_CACHE

    _RULE_CACHE.clear()
    t0 = time.time()
    rules = [axiom(n) for n in axiom_names()]
    ok = len(rules) == 11
    reports = verify_rules(rules)
    ok = ok and all(r.semantic_ok and r.state_map_ok for r in reports)
    report(1, "eleven defining identities, semantic + exhaustive state maps", ok, t0, 1.0)


def test_criterion_2_lemma_corpus():
    from cnotcalc.rewrite import _RULE_CACHE

    _RULE_CACHE.clear()
    t0 = time.time()
    wanted = {
        "omega-absorb",
        "omega-tensor-absorb",
        "omega-post-absorb",
        "omega-pre-absorb",
        "cnot-triple",
        "zero-cancel",
        "cnot-slide",
        "not-slide",
        "not-involution",
        "copy-discard-zero",
        "copy-discard-one",
        "literal-through-fanin",
        "cut-as-clause",
        "latch-witness",
        "clause-idem",
        "full-copy",
    }
    ok = wanted <= set(lemma_names())
    reports = verify_rules([lemma_fixture(n) for n in sorted(wanted)])
    ok = ok and all(r.ok for r in reports)
    report(2, "derived-identity fixtures, exact semantic equality", ok, t0, 1.0)


def test_criterion_3_discrete_inverse_structure():
    t0 = time.time()
    ok = lawsuites.copy_naturality(seed=301, trials=30, max_arity=3)
    ok = ok and lawsuites.copy_cocommutative((1, 2, 3))
    ok = ok and lawsuites.copy_coassociative((1, 2, 3))
    ok = ok and lawsuites.copy_separable((1, 2, 3))
    ok = ok and lawsuites.copy_semi_frobenius((1, 2, 3))
    ok = ok and lawsuites.copy_uniform(((1, 1), (1, 2), (2, 1)))
    ok = ok and lawsuites.inverse_laws(seed=302, trials=500, wires=5, depth=30)
    report(3, "copy-map laws (n<=3) + inverse laws on 500 random circuits", ok, t0, 30.0)


def test_criterion_4_torsor_suite():
    t0 = time.time()
    ok = all(lawsuites.torsor_laws(n) for n in (1, 2, 3))
    report(4, "torsor laws exhaustive for n in {1,2,3}", ok, t0, 5.0)


def test_criterion_5_oracle_equivalence():
    t0 = time.time()
    ok = True
    for i in range(1000):
        rng = trial_rng(501, i)
        c = random_circuit(rng, rng.randrange(7), 40)
        rel = c.semantics()
        for x in all_bitvecs(c.n_in):
            if c.eval_state(x) != rel.apply(x):
                ok = False
                break
        if not ok:
            break
    report(5, "eval agrees with semantics on 1000 random circuits", ok, t0, 60.0)


def test_criterion_6_faithfulness_at_desk_scale():
    t0 = time.time()
    # the worked elimination: rows (101|1), (110|0) reduce to (101|1), (011|1)
    start = ClausalForm(
        3, (Clause(frozenset({0, 2}), 1), Clause(frozenset({0, 1}), 0))
    )
    reduced = gaussian_eliminate(start)
    ok = reduced == ClausalForm(
        3, (Clause(frozenset({0, 2}), 1), Clause(frozenset({1, 2}), 1))
    )
    for i in range(200):
        rng = trial_rng(601, i)
        n = rng.randrange(1, 6)
        base = [
            Clause(
                frozenset(j for j in range(n) if rng.random() < 0.5),
                rng.randrange(2),
            )
            for _ in range(rng.randrange(1, 4))
        ]
        mixed = list(base)
        for _ in range(rng.randrange(10)):
            if len(mixed) >= 2 and rng.random() < 0.7:
                i1, i2 = rng.randrange(len(mixed)), rng.randrange(len(mixed))
                if i1 != i2:
                    a, b = mixed[i1], mixed[i2]
                    mixed[i2] = Clause(a.support ^ b.support, a.rhs ^ b.rhs)
            else:
                rng.shuffle(mixed)
        c1 = clausal_to_circuit(gaussian_eliminate(ClausalForm(n, tuple(base))))
        c2 = clausal_to_circuit(gaussian_eliminate(ClausalForm(n, tuple(mixed))))
        if c1 != c2:
            ok = False
            break
    report(6, "clause mixing reaches one canonical circuit, 200 systems", ok, t0, 30.0)


def test_criterion_7_fullness_round_trip():
    t0 = time.time()
    ok = True
    for i in range(500):
        rng = trial_rng(701, i)
        c = random_circuit(rng, rng.randrange(7), 40)
        rel = c.semantics()
        if synth(rel).semantics() != rel:
            ok = False
            break
    spec = AffineMapSpec(GF2Matrix([[1, 0, 1], [1, 0, 0]]), BitVec([0, 1]))
    graph = spec.graph_relation()
    ok = ok and synth_total_graph(spec).semantics() == graph
    ok = ok and synth(graph).semantics() == graph
    report(7, "synthesis round trip on 500 random circuits + worked 3->5 map", ok, t0, 60.0)


def test_criterion_8_total_or_degenerate():
    t0 = time.time()
    ok = lawsuites.total_or_degenerate(seed=801, trials=500, depth=30)
    report(8, "500 random state preparations are total or empty", ok, t0, 30.0)
