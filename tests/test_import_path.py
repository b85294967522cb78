"""Every CLI command is a fresh process, so what ``import cnotcalc.cli``
pulls in is paid on every command: keep ``dataclasses`` (and through it
``inspect``) and ``json`` (needed only by ``--json``) off that path.  The
file formats sit below the layers that use them.  And the package's public
names all exist."""

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


def test_every_public_name_resolves():
    missing = [name for name in cnotcalc.__all__ if not hasattr(cnotcalc, name)]
    assert missing == []


def test_deleted_wrappers_are_not_public():
    gone = {"rref", "solve_affine", "project_out", "swap_block"}
    assert gone & set(cnotcalc.__all__) == set()
    assert [name for name in gone if hasattr(cnotcalc, name)] == []
