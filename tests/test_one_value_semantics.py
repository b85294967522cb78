"""Value semantics are written once, in ``record.Record``.

Every value type gets equality, hash and the refusal of assignment and
deletion from ``Record``; ``Gate`` names its two compared fields with
``fields=`` instead of writing its own.  So no other class in the package
defines ``__eq__``, ``__hash__``, ``__setattr__`` or ``__delattr__``.
"""

import ast
from pathlib import Path

import cnotcalc

SRC = Path(cnotcalc.__file__).parent
VALUE_METHODS = {"__eq__", "__hash__", "__setattr__", "__delattr__"}


def value_method_owners():
    """(module, class, method) of every value method a class body defines
    or assigns."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        names = [item.name]
                    elif isinstance(item, ast.Assign):  # such as __hash__ = None
                        names = [t.id for t in item.targets if isinstance(t, ast.Name)]
                    else:
                        names = []
                    found += [(path.stem, node.name, n) for n in names if n in VALUE_METHODS]
    return found


def test_only_record_defines_value_semantics():
    assert sorted(value_method_owners()) == sorted(
        ("record", "Record", name) for name in VALUE_METHODS
    )
