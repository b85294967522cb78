"""Every function, class and method of the package is run by it, or is
kept for a named reason.

A top-level function or class of ``src/cnotcalc``, and each method of a
top-level class that is not a dunder, must be named somewhere in the
package outside its own definition (a ``Name``, an ``Attribute`` or an
import alias; a string does not count), be the handler ``cli._cmd_<c>``
of a command ``c`` of ``commandline.COMMANDS``, or be in ``KEPT`` with the
file that pins it.  ``formats`` is left out of the search: it re-exports
the formats for code outside the package, and no module of the package
imports it.

Each pin is read, never written, and must still hold: a span of
``perfbench/tracer.py``'s ``GROUPS``, which the tracer looks up when it
installs, or a name that a test calls.  When the pin goes, so must the
name it kept.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

import cnotcalc
from cnotcalc.commandline import COMMANDS

SRC = Path(cnotcalc.__file__).parent
ROOT = SRC.parent.parent
FACADES = {"formats"}

TRACER = "perfbench/tracer.py"
ACCEPTANCE = "tests/test_acceptance.py"

# name that the package does not run -> (the file that pins it, the name
# it pins it by: a ``GROUPS`` span of the tracer, or a name a test uses)
KEPT = {
    "relation.AffineRelation.restriction": (TRACER, "relation.AffineRelation.restriction"),
    "relation.AffineRelation.meet": (TRACER, "relation.AffineRelation.meet"),
    "relation.AffineRelation.apply": (TRACER, "relation.AffineRelation.apply"),
    "normalize.gaussian_eliminate_steps": (TRACER, "normalize.gaussian_eliminate_steps"),
    "relation_formats.parse_relation": (TRACER, "formats.parse_relation"),
    "relation_formats.parse_system": (TRACER, "formats.parse_system"),
    "relation_formats.format_system": (TRACER, "formats.format_system"),
    "normalize.gaussian_eliminate": (ACCEPTANCE, "gaussian_eliminate"),
    "relation.all_bitvecs": (ACCEPTANCE, "all_bitvecs"),
    "synth.AffineMapSpec.graph_relation": (ACCEPTANCE, "graph_relation"),
    # the latchability law of the paper, checked on circuits by a test
    "circuit.is_latchable": ("tests/test_constructions.py", "is_latchable"),
}


def _names(tree: ast.AST) -> Counter:
    """How often each identifier is named in ``tree``: as a ``Name``, the
    attribute of an ``Attribute`` or an imported name."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found[node.name.split(".")[-1]] += 1
    return found


def _definitions():
    """(qualified name, definition node) of each top-level function and
    class of the package, and of each method of a top-level class that is
    not a dunder."""
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                continue
            yield f"{path.stem}.{top.name}", top
            if isinstance(top, ast.ClassDef):
                for node in top.body:
                    if isinstance(node, ast.FunctionDef) and not (
                        node.name.startswith("__") and node.name.endswith("__")
                    ):
                        yield f"{path.stem}.{top.name}.{node.name}", node


def unrun_names() -> list[str]:
    """The qualified names the package defines and neither names outside
    their own definition nor dispatches to as a command handler."""
    named = Counter()
    for path in sorted(SRC.glob("*.py")):
        if path.stem not in FACADES:
            named += _names(ast.parse(path.read_text(encoding="utf-8")))
    handlers = {f"cli._cmd_{command}" for command in COMMANDS}
    return [
        qualified for qualified, node in _definitions()
        if qualified not in handlers
        and named[node.name] <= _names(node)[node.name]
    ]


def test_every_name_the_package_does_not_run_is_kept_by_a_pin():
    assert sorted(set(unrun_names()) - set(KEPT)) == []


def test_every_kept_name_is_defined_and_not_run():
    # a kept name that the package came to run needs no pin
    assert sorted(set(KEPT) - set(unrun_names())) == []


def _pinned(path: str) -> set[str]:
    """What the file at ``path`` pins: the span names of ``GROUPS`` for
    the tracer, every name it uses for a test."""
    tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
    if path != TRACER:
        return set(_names(tree))
    groups = next(
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["GROUPS"]
    )
    return {key.value for key in groups.keys}


@pytest.mark.parametrize("name", sorted(KEPT))
def test_the_pin_of_each_kept_name_still_holds(name):
    path, pinned_as = KEPT[name]
    assert path == TRACER or Path(path).name.startswith("test_")
    assert pinned_as in _pinned(path), f"{path} no longer pins {name}: delete it"
