"""Tests of the benchmark itself: input generation, the answer oracle, span
arithmetic and the tracer's install/uninstall."""

import filecmp
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

import gen  # noqa: E402
import oracle  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _tree(root):
    return sorted(os.path.relpath(os.path.join(d, f), root) for d, _, fs in os.walk(root) for f in fs)


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    for name, build in workloads.WORKLOADS.items():
        a, b, c = (str(tmp_path / f"{name}-{k}") for k in "abc")
        build(7, a)
        build(7, b)
        build(8, c)
        files = _tree(a)
        assert files and files == _tree(b), name
        _, mismatch, errors = filecmp.cmpfiles(a, b, files, shallow=False)
        assert not mismatch and not errors, name
        if files:
            _, changed, _ = filecmp.cmpfiles(a, c, files, shallow=False)
            assert changed, f"{name}: another seed gave the same inputs"


def test_oracle_catches_a_mislabeled_pair():
    rng = random.Random(0)
    n = 16
    a = gen.total_circuit(rng, n, 200)
    b = gen.flip(rng, n, a, rng.getrandbits(n))
    honest = workloads._equal_job("pair", "a", "b", a, b, n, False, [], 0)
    assert honest.check("unequal\n") is None
    mislabeled = workloads._equal_job("pair", "a", "b", a, b, n, True, [], 0)
    assert "differs" in mislabeled.check("equal\n")
    assert "known answer" in honest.check("equal\n")


def test_oracle_checks_partial_pairs_on_the_witness():
    rng = random.Random(1)
    n = 24
    base, wit = gen.steered_circuit(rng, n, 300, 0.3)
    assert oracle.simulate(n, base, wit)[0] is not None  # witness stays in the domain
    flipped = gen.flip(rng, n, base, wit[0])
    job = workloads._equal_job("pair", "a", "b", base, flipped, n, True, wit, 0)
    assert job.check("equal\n") is not None
    empty = gen.make_empty(rng, n, base)
    assert set(oracle.simulate(n, empty, oracle.sample_inputs(n, wit, 16, "s"))) == {None}


def _spans(rows):
    """rows: (name, start, end, parent, value_a)."""
    return {
        "name": [r[0] for r in rows],
        "start": [r[1] for r in rows],
        "end": [r[2] for r in rows],
        "parent": [r[3] for r in rows],
        "value_a": [r[4] for r in rows],
        "value_b": [0.0] * len(rows),
    }


def test_self_times_on_a_synthetic_span_tree():
    spans = _spans([
        ("cli.run", 0.0, 10.0, -1, 0),                  # 0
        ("synth.synth", 1.0, 7.0, 0, 50),               # 1
        ("gf2.rref_masks", 1.5, 2.5, 1, 8),              # 2
        ("normalize.clausal_to_circuit", 3.0, 6.0, 1, 0),  # 3
        ("circuit.Circuit.__init__", 3.5, 4.0, 3, 9),   # 4
        ("circuit.fanout", 7.5, 9.5, 0, 20),            # 5
        ("circuit.fanout", 8.0, 9.0, 5, 10),            # 6: nested in its own group
    ])
    assert tracer.self_times(spans) == [2.0, 2.0, 1.0, 2.5, 0.5, 1.0, 1.0]
    d = tracer.derive(spans)
    assert d["synth.synth.self_s"] == 2.0
    assert d["synth.synth.incl_s"] == 6.0
    assert d["synth.domain_stage.incl_s"] == 3.0
    assert d["gf2.rref.calls"] == 1 and d["gf2.rref.a"] == 8
    assert d["circuit.construct.self_s"] == 2.0
    assert d["circuit.construct.incl_s"] == 2.0  # the nested call is not counted twice
    assert d["circuit.construct.outer_a"] == 20


def _snapshot():
    import cnotcalc.cli  # noqa: F401  (loads every layer)
    from cnotcalc.circuit import Circuit
    from cnotcalc.relation import AffineRelation

    owners = [m for n, m in sys.modules.items() if n == "cnotcalc" or n.startswith("cnotcalc.")]
    owners += [Circuit, AffineRelation]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def test_install_then_uninstall_restores_every_original():
    before = _snapshot()
    # the package re-exports a function named synth, so take modules from sys.modules
    gf2, relation, synth, normalize, cli = (
        sys.modules[f"cnotcalc.{m}"] for m in ("gf2", "relation", "synth", "normalize", "cli")
    )
    t = tracer.Tracer()
    saved = tracer.install(t)
    try:
        for module in (gf2, relation, synth, normalize):
            assert module.rref_masks is not before[(id(gf2), "rref_masks")]
        assert cli.fanout is not before[(id(cli), "fanout")]
        assert cli.run(["construct", "fanout", "3"]) == 0
        sys.modules["cnotcalc.circuit"].fanout(2).semantics()
    finally:
        tracer.uninstall(saved)
    after = _snapshot()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())
    names = [t.names[i] for i in t.name]
    assert names[0] == "cli.run" and "circuit.fanout" in names and "formats.format_circuit" in names
    canonical = names.index("relation.AffineRelation.__init__")
    assert t.value_a[canonical] == 6 and t.value_b[canonical] == 4  # rows in, rows out
