"""Relations are built from maps, not from hand-laid rows.

``AffineRelation.from_map`` is the one writer of the rows of a map's graph.
Outside ``relation.py`` the only call of ``AffineRelation(...)`` on raw rows
is the graph-file reader ``formats._graph``, whose rows are the file's own.
"""

import ast
from pathlib import Path

import cnotcalc

SRC = Path(cnotcalc.__file__).parent


class RawRowBuilders(ast.NodeVisitor):
    """Collects (module, innermost enclosing function) of every call of
    ``AffineRelation`` or ``<something>.AffineRelation``."""

    def __init__(self, module: str):
        self.module, self.where, self.found = module, ["<module>"], []

    def visit_FunctionDef(self, node):
        self.where.append(node.name)
        self.generic_visit(node)
        self.where.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        f = node.func
        if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == "AffineRelation":
            self.found.append((self.module, self.where[-1]))
        self.generic_visit(node)


def raw_row_builders():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name != "relation.py":
            visitor = RawRowBuilders(path.stem)
            visitor.visit(ast.parse(path.read_text(), filename=str(path)))
            found += visitor.found
    return found


def test_only_the_graph_reader_builds_from_raw_rows():
    assert raw_row_builders() == [("formats", "_graph")]
