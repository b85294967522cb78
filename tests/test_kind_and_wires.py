"""A gate's relation is fixed by its kind and wires alone.

The paper sends each generator of CNOT to an affine partial isomorphism
that its kind and wires determine, so ``symbolic.relation_of`` reads a gate
by ``kind``, ``a`` and ``b`` and nothing else.  The streaming reader's
``_Step``, which ``relation_of`` reads in place of a ``Gate``, therefore
holds those three slots and defines nothing more.
"""

import ast
from pathlib import Path

import cnotcalc

SRC = Path(cnotcalc.__file__).parent
KIND_AND_WIRES = {"kind", "a", "b"}


def definition(module: str, name: str):
    """The top-level function or class ``name`` of ``module``'s source."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    return next(
        node for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name
    )


def test_relation_of_reads_a_gate_by_kind_and_wires():
    body = definition("symbolic", "relation_of")
    loops = [node for node in ast.walk(body) if isinstance(node, ast.For)]
    gates = {loop.target.id for loop in loops if isinstance(loop.target, ast.Name)}
    assert "g" in gates  # the loop over a run's gates
    read = {
        node.attr for node in ast.walk(body)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "g"
    }
    assert read == KIND_AND_WIRES


def test_a_step_is_its_kind_and_wires():
    step = definition("semantics_reader", "_Step")
    assert not step.bases and not step.decorator_list
    statements = step.body
    if isinstance(statements[0], ast.Expr) and isinstance(statements[0].value, ast.Constant):
        statements = statements[1:]  # the docstring
    assert len(statements) == 1
    (slots,) = statements
    assert isinstance(slots, ast.Assign)
    assert [t.id for t in slots.targets] == ["__slots__"]
    assert ast.literal_eval(slots.value) == ("kind", "a", "b")


def test_the_reader_names_no_gate_class():
    # the reader's own steps stand in for gates; it leaves ``Gate`` and the
    # table of builders to ``formats``
    tree = ast.parse((SRC / "semantics_reader.py").read_text())
    names = {
        alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert not names & {"GATES", "Gate"}
