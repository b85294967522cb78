"""Library invariants must hold under ``python -O``, which strips asserts."""

import ast
from pathlib import Path

import cnotcalc

SRC = Path(cnotcalc.__file__).parent


def test_no_assert_statements_in_package():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
