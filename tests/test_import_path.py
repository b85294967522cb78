"""Every CLI command is a fresh process, so what ``import cnotcalc.cli``
pulls in is paid on every command: keep ``dataclasses`` (and through it
``inspect``), ``json`` (needed only by ``--json``) and ``argparse`` off that
path, let each command load only the layers it runs, and keep each module a
small unit to compile.  The file formats sit below the layers that use them.
Importing cnotcalc as a library leaves the host's garbage collector and exit
alone.  And the package's public names all exist, each the very object its
module defines."""

import ast
import os
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

import cnotcalc

SRC = Path(cnotcalc.__file__).parent.parent

PROBE = """
import sys
before = set(sys.modules)
import cnotcalc.cli
print(" ".join(sorted(set(sys.modules) - before)))
"""


def _probe(code: str, *argv: str) -> list[str]:
    """The lines a fresh interpreter running ``code`` prints."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, check=True
    ).stdout.splitlines()


def test_cli_import_adds_neither_dataclasses_nor_json():
    out = _probe(PROBE)[0].split()
    assert "cnotcalc.cli" in out
    assert [m for m in ("dataclasses", "inspect", "json") if m in out] == []


# the layers above the circuit that only some commands run, the rule tables
# that only ``rewrite`` loads, and the reader of a file's relation
LAYERS = {"rewrite", "identities", "normalize", "synth", "fuzzing", "lawsuites", "semantics_reader"}

RUN_PROBE = """
import sys
import cnotcalc.cli
code = cnotcalc.cli.run(sys.argv[1:])
print(code)
print(" ".join(sorted(m.split(".")[1] for m in sys.modules if m.startswith("cnotcalc."))))
"""

INPUTS = {
    "circ": "circuit c : 2 -> 2\ncnot 0 1\ncnot 0 1\nend\n",
    "idem": "circuit h : 2 -> 2\ncnot 0 1\npost0 1\ninit0 1\ncnot 0 1\nend\n",
    "graph": "graph 1 1\nparity x0 y0 = 1\n",
    "deriv": "CNT2 0 lr\n",
}


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (("--help",), set()),
        (("equal", "circ", "idem"), {"semantics_reader"}),
        (("semantics", "circ"), {"semantics_reader"}),
        (("eval", "circ", "--input", "10"), set()),
        (("construct", "fanout", "3"), set()),
        (("synth", "graph"), {"synth", "normalize"}),
        (("normalize", "idem"), {"normalize"}),
        (("replay", "circ", "deriv"), {"rewrite", "identities"}),
        (("fuzz", "--trials", "1"), {"fuzzing", "synth", "normalize", "semantics_reader"}),
        (("verify",), LAYERS),
    ],
)
def test_each_command_loads_only_the_layers_it_runs(tmp_path, argv, loaded):
    for name, text in INPUTS.items():
        (tmp_path / name).write_text(text)
    args = [str(tmp_path / a) if a in INPUTS else a for a in argv]
    *_, code, modules = _probe(RUN_PROBE, *args)
    assert code in ("0", "1")
    assert set(modules.split()) & LAYERS == loaded


ARGV_PROBE = """
import sys
import cnotcalc.cli
code = cnotcalc.cli.run(sys.argv[1:])
print(code)
print([m for m in ("argparse", "gettext", "locale") if m in sys.modules])
"""


@pytest.mark.parametrize("argv", [("equal", "circ", "circ"), ("--help",)])
def test_reading_the_command_line_imports_no_argparse(tmp_path, argv):
    # argparse with gettext and locale cost every process about 9 ms
    (tmp_path / "circ").write_text(INPUTS["circ"])
    *_, code, imported = _probe(ARGV_PROBE, *[str(tmp_path / a) if a in INPUTS else a for a in argv])
    assert (code, imported) == ("0", "[]")


SYNTH_ORDERS = {
    "submodule first": "import cnotcalc.synth\nfrom cnotcalc import synth\n",
    "package first": "from cnotcalc import synth\nimport cnotcalc.synth\n",
    "attribute only": "import cnotcalc\nsynth = cnotcalc.synth\n",
}

SYNTH_PROBE = """
import importlib
import sys
import cnotcalc
module = sys.modules["cnotcalc.synth"]
print(synth is module and cnotcalc.synth is module and callable(module.synth))
print("synth" in cnotcalc.__all__)
print(sorted(
    name for name in cnotcalc.__all__
    if getattr(importlib.import_module(getattr(cnotcalc, name).__module__), name)
    is not getattr(cnotcalc, name)
))
"""


@pytest.mark.parametrize("order", sorted(SYNTH_ORDERS))
def test_synth_is_the_submodule_whatever_the_import_order(order):
    assert _probe(SYNTH_ORDERS[order] + SYNTH_PROBE) == ["True", "False", "[]"]


def test_formats_imports_no_higher_layer():
    higher = {}
    for module in ("formats", "lexing", "relation_formats", "semantics_reader", "symbolic"):
        tree = ast.parse((SRC / "cnotcalc" / f"{module}.py").read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported.add((node.module or "").split(".")[-1])
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[-1] for alias in node.names)
        higher[module] = imported & {"synth", "rewrite", "identities", "fuzzing", "lawsuites"}
    assert higher == dict.fromkeys(higher, set())


# What ``code_tokens`` leaves out: comments, line breaks and indentation.
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}


def code_tokens(path: Path) -> int:
    """The tokens of the module at ``path`` that the parser keeps, a
    docstring being one."""
    with path.open(encoding="utf-8") as fh:
        return sum(1 for t in tokenize.generate_tokens(fh.readline) if t.type not in LAYOUT)


def test_every_module_is_a_small_compile_unit():
    # Without a bytecode cache every process compiles each module it loads,
    # and the parser's peak on the largest one stays in its resident memory.
    sizes = {path.name: code_tokens(path) for path in sorted((SRC / "cnotcalc").glob("*.py"))}
    assert {name: size for name, size in sizes.items() if size > 2000} == {}


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
