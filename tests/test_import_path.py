"""Every CLI command is a fresh process, so what ``import cnotcalc.cli``
pulls in is paid on every command: keep ``dataclasses`` (and through it
``inspect``) and ``json`` (needed only by ``--json``) off that path.  The
file formats sit below the layers that use them.  Importing cnotcalc as a
library leaves the host's garbage collector and exit alone.  And the
package's public names all exist."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import cnotcalc

SRC = Path(cnotcalc.__file__).parent.parent

PROBE = """
import sys
before = set(sys.modules)
import cnotcalc.cli
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_cli_import_adds_neither_dataclasses_nor_json():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert "cnotcalc.cli" in out
    assert [m for m in ("dataclasses", "inspect", "json") if m in out] == []


def test_formats_imports_no_higher_layer():
    tree = ast.parse((SRC / "cnotcalc" / "formats.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[-1])
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[-1] for alias in node.names)
    assert imported & {"synth", "rewrite", "fuzzing", "lawsuites"} == set()


def _collector_and_exit_uses():
    """(where, what) for each use of ``gc`` or ``_exit`` in ``src/cnotcalc``,
    where being the module or its top-level function or class."""
    uses = []
    for path in sorted((SRC / "cnotcalc").rglob("*.py")):
        module = path.stem
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            named = isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            where = f"{module}.{top.name}" if named else module
            for node in ast.walk(top):
                if isinstance(node, ast.Import):
                    uses += [(where, f"import {a.name}") for a in node.names
                             if a.name.split(".")[0] == "gc"]
                elif isinstance(node, ast.ImportFrom) and node.module in ("gc", "os"):
                    uses += [(where, f"from {node.module} import {a.name}") for a in node.names
                             if node.module == "gc" or a.name == "_exit"]
                elif isinstance(node, ast.Name) and node.id in ("gc", "_exit"):
                    uses.append((where, node.id))
                elif isinstance(node, ast.Attribute) and (
                    node.attr == "_exit" or isinstance(node.value, ast.Name) and node.value.id == "gc"
                ):
                    uses.append((where, ast.unparse(node)))
    return uses


def test_only_the_process_entry_point_touches_the_collector():
    # cli.main freezes the heap once, after the command; nothing else in the
    # package may change the host's collector or skip its exit handlers
    assert sorted(_collector_and_exit_uses()) == [
        ("cli.main", "gc"), ("cli.main", "gc.freeze"), ("cli.main", "import gc"),
    ]


def test_every_public_name_resolves():
    missing = [name for name in cnotcalc.__all__ if not hasattr(cnotcalc, name)]
    assert missing == []


def test_deleted_wrappers_are_not_public():
    gone = {"rref", "solve_affine", "project_out", "swap_block"}
    assert gone & set(cnotcalc.__all__) == set()
    assert [name for name in gone if hasattr(cnotcalc, name)] == []
