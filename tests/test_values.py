"""The immutable value types: equality, hash, repr text, no assignment,
keyword construction and argument checks, as frozen dataclasses had them."""

import copy
import pickle

import pytest

from cnotcalc.circuit import Circuit, CircuitError, Gate, circuit, cnot, init1
from cnotcalc.gf2 import BitVec, GF2Matrix
from cnotcalc.normalize import ClausalForm, Clause
from cnotcalc.rewrite import Derivation, RewriteRule, RuleReport
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
]


FIELDS = {
    Gate: ("kind", "args"),
    Clause: ("support", "rhs"),
    ClausalForm: ("n", "clauses"),
    RewriteRule: ("name", "lhs", "rhs"),
    Derivation: ("start", "steps"),
    RuleReport: ("name", "semantic_ok", "state_map_ok"),
    AffineMapSpec: ("linear", "shift"),
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
    assert Clause([0, 0, 1], 1).support == frozenset({0, 1})


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
