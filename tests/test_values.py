"""The immutable value types: equality, hash, repr text, no assignment,
keyword construction and argument checks, as frozen dataclasses had them.
The GF(2) values, relations and circuits keep their own repr text."""

import copy
import pickle

import pytest

from cnotcalc.circuit import Circuit, CircuitError, Gate, circuit, cnot, init1
from cnotcalc.derivation import Derivation
from cnotcalc.gf2 import BitVec, GF2Matrix
from cnotcalc.lawsuites import RuleReport
from cnotcalc.normalize import ClausalForm, Clause
from cnotcalc.relation import AffineRelation
from cnotcalc.rewrite import RewriteRule
from cnotcalc.synth import AffineMapSpec

C = circuit(2, cnot(0, 1))
D = circuit(2, cnot(1, 0))
SPEC = AffineMapSpec(GF2Matrix([[1, 0]], cols=2), BitVec([1]))

# (value, an equal value built with keywords, a different value, repr text)
CASES = [
    (cnot(0, 1), Gate(kind="cnot", args=(0, 1)), cnot(1, 0), "cnot(0, 1)"),
    (init1(3), Gate("init1", (3,)), init1(2), "init1(3)"),
    (
        Clause(frozenset({0}), 1),
        Clause(support=[0], rhs=1),
        Clause(frozenset({0}), 0),
        "Clause(support=frozenset({0}), rhs=1)",
    ),
    (
        ClausalForm(2, (Clause({1}, 0),)),
        ClausalForm(n=2, clauses=[Clause({1}, 0)]),
        ClausalForm(2, ()),
        "ClausalForm(n=2, clauses=(Clause(support=frozenset({1}), rhs=0),))",
    ),
    (
        RewriteRule("CNT2", C, C),
        RewriteRule(name="CNT2", lhs=C, rhs=C),
        RewriteRule("CNT2", C, D),
        f"RewriteRule(name='CNT2', lhs={C!r}, rhs={C!r})",
    ),
    (
        Derivation(C, (("CNT2", 0, "lr"),)),
        Derivation(start=C, steps=[["CNT2", 0, "lr"]]),
        Derivation(C, ()),
        f"Derivation(start={C!r}, steps=(('CNT2', 0, 'lr'),))",
    ),
    (
        RuleReport("CNT1", True, True),
        RuleReport(name="CNT1", semantic_ok=True, state_map_ok=True),
        RuleReport("CNT1", True, False),
        "RuleReport(name='CNT1', semantic_ok=True, state_map_ok=True)",
    ),
    (BitVec([1, 0, 1]), BitVec(bits=(1, 0, 1)), BitVec([1, 0, 0]), "BitVec([1, 0, 1])"),
    (
        GF2Matrix([[1, 0], [1, 1]]),
        GF2Matrix(rows_of_bits=[[1, 0], [1, 1]], cols=2),
        GF2Matrix([[1, 0], [1, 1]], cols=3),
        "GF2Matrix(2x2: 10; 11)",
    ),
    (C, Circuit(n_in=2, gates=[cnot(0, 1)]), D, "Circuit(2->2, [cnot(0, 1)])"),
    (
        AffineRelation.restriction_on(1, ()),
        AffineRelation(n_in=1, n_out=1, constraint_masks=[0b11, 0b11]),
        AffineRelation.empty(1, 1),
        "AffineRelation(1->1, 1 constraints)",
    ),
]


FIELDS = {
    Gate: ("kind", "args"),
    Clause: ("support", "rhs"),
    ClausalForm: ("n", "clauses"),
    RewriteRule: ("name", "lhs", "rhs"),
    Derivation: ("start", "steps"),
    RuleReport: ("name", "semantic_ok", "state_map_ok"),
    AffineMapSpec: ("linear", "shift"),
    BitVec: ("_n", "_mask"),
    GF2Matrix: ("rows", "cols", "_data"),
    AffineRelation: ("n_in", "n_out", "_rows"),
    Circuit: ("n_in", "gates", "n_out"),
}


def _fields(value):
    return tuple(getattr(value, name) for name in FIELDS[type(value)])


@pytest.mark.parametrize("value, same, other, text", CASES, ids=lambda v: type(v).__name__)
def test_equality_hash_and_repr(value, same, other, text):
    assert value == same and hash(value) == hash(same) == hash(_fields(value))
    assert value != other
    assert value != _fields(value)  # equal only to its own class
    assert repr(value) == text


@pytest.mark.parametrize("value, same, other, text", CASES, ids=lambda v: type(v).__name__)
def test_no_assignment(value, same, other, text):
    name = FIELDS[type(value)][0]
    with pytest.raises(AttributeError):
        setattr(value, name, None)
    with pytest.raises(AttributeError):
        setattr(value, "extra", None)
    with pytest.raises(AttributeError):
        delattr(value, name)
    assert value == same


@pytest.mark.parametrize("value, same, other, text", CASES, ids=lambda v: type(v).__name__)
def test_copy_and_pickle(value, same, other, text):
    assert copy.copy(value) == value
    assert copy.deepcopy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value


@pytest.mark.parametrize("c", [C, D, circuit(0), circuit(1, init1(1), cnot(0, 1))], ids=repr)
def test_circuit_copy_deepcopy_and_pickle(c):
    for again in (copy.copy(c), copy.deepcopy(c), pickle.loads(pickle.dumps(c))):
        assert again == c and hash(again) == hash(c) and type(again) is Circuit
        assert again.n_out == c.n_out and repr(again) == repr(c)


@pytest.mark.parametrize("value", [BitVec.from_mask(3, 5), GF2Matrix.from_masks([1, 3], 2),
                                   AffineRelation.empty(1, 2)], ids=repr)
def test_fast_paths_build_immutable_values(value):
    for name in FIELDS[type(value)]:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    assert pickle.loads(pickle.dumps(value)) == value and copy.deepcopy(value) == value


def test_circuit_refuses_assignment_and_deletion():
    c = circuit(2, cnot(0, 1))
    for name in ("n_in", "gates", "n_out"):
        with pytest.raises(AttributeError):
            setattr(c, name, None)
        with pytest.raises(AttributeError):
            delattr(c, name)
    assert c == C and c.n_out == 2


def test_a_relation_in_a_set_stays_found():
    held = {AffineRelation.restriction_on(1, ())}
    for name, junk in (("_rows", ()), ("n_in", 5)):
        with pytest.raises(AttributeError):
            setattr(next(iter(held)), name, junk)
    assert AffineRelation.restriction_on(1, ()) in held
    m = GF2Matrix([[1]])
    with pytest.raises(AttributeError):
        m.rows = 9
    assert m.rows == 1


def test_affine_map_spec():
    assert SPEC == AffineMapSpec(linear=GF2Matrix([[1, 0]], cols=2), shift=BitVec([1]))
    assert SPEC.n_in == 2 and SPEC.n_out == 1 and SPEC(BitVec([1, 1])) == BitVec([0])
    with pytest.raises(AttributeError):
        SPEC.shift = BitVec([0])
    with pytest.raises(ValueError, match="linear has 1 rows but shift has length 2"):
        AffineMapSpec(GF2Matrix([[1, 0]], cols=2), BitVec([1, 0]))


def test_argument_checks_are_kept():
    with pytest.raises(ValueError, match="rhs must be a bit"):
        Clause({0}, 2)
    with pytest.raises(ValueError, match="negative wire index"):
        Clause({-1}, 0)
    with pytest.raises(TypeError):
        Clause(support={0})
    with pytest.raises(TypeError):
        RewriteRule("CNT2", C)


def test_sequences_become_tuples():
    d = Derivation(C, [["CNT2", 0, "lr"], ("CNT6", 1, "rl")])
    assert d.steps == (("CNT2", 0, "lr"), ("CNT6", 1, "rl"))
    assert isinstance(ClausalForm(1, [Clause((), 0)]).clauses, tuple)
    assert Clause([1, 0], 1).support == frozenset({0, 1})


def test_rule_report_ok():
    assert RuleReport("r", True, True).ok and not RuleReport("r", True, False).ok


def test_gate_width_fields():
    assert (cnot(3, 7).need, cnot(3, 7).delta) == (8, 0)
    assert (init1(2).need, init1(2).delta) == (2, 1)
    assert Gate("post1", (2,)).need == 3 and Gate("post1", (2,)).delta == -1
    # no width admits these, so none of them builds
    never = [(cnot, 1, 1), (cnot, -1, 0), (Gate, "init1", ()), (Gate, "cnot", (0, 1, 2)), (Gate, "h", (0,))]
    for build, *args in never:
        with pytest.raises(CircuitError):
            build(*args)
