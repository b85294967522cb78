"""A gate's relation is fixed by its kind and wires alone.

The paper sends each generator of CNOT to an affine partial isomorphism
that its kind and wires determine, so ``symbolic.run``, the one loop over
``Gate``s that ``relation_of`` runs, reads a gate by ``kind``, ``a`` and
``b`` and nothing else.  The streaming reader runs each primitive line as
it splits it, so it keeps no objects of its own in place of gates.
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
    body = definition("symbolic", "run")
    loops = [node for node in ast.walk(body) if isinstance(node, ast.For)]
    gates = {loop.target.id for loop in loops if isinstance(loop.target, ast.Name)}
    assert "g" in gates  # the loop over the gates
    read = {
        node.attr for node in ast.walk(body)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "g"
    }
    assert read == KIND_AND_WIRES


def test_the_reader_defines_no_class():
    # each line runs on the wire expressions as it is split, with no step
    # object between the split and the run
    tree = ast.parse((SRC / "semantics_reader.py").read_text())
    assert [node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)] == []


def test_the_reader_names_no_gate_class():
    # the reader runs a primitive line without building its gate; it
    # leaves ``Gate`` and the table of builders to ``formats``
    tree = ast.parse((SRC / "semantics_reader.py").read_text())
    names = {
        alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert not names & {"GATES", "Gate"}
