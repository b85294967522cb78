"""Every CLI command is a fresh process, so what ``import cnotcalc.cli``
pulls in is paid on every command: keep ``dataclasses`` (and through it
``inspect``), ``json`` (needed only by ``--json``) and ``argparse`` off that
path, let each command load only the layers it runs, and keep each module a
small unit to compile.  The file formats sit below the layers that use them.
Importing cnotcalc as a library leaves the host's garbage collector and exit
alone.  The package binds its submodules and no other name, and no module
imports ``typing`` or ``re``."""

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


def _probe(code: str, *argv: str, flags: tuple[str, ...] = ()) -> list[str]:
    """The lines a fresh interpreter started with ``flags`` and running
    ``code`` prints."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, *flags, "-c", code, *argv], env=env, capture_output=True, text=True,
        check=True,
    ).stdout.splitlines()


def test_cli_import_adds_neither_dataclasses_nor_json():
    out = _probe(PROBE)[0].split()
    assert "cnotcalc.cli" in out
    assert [m for m in ("dataclasses", "inspect", "json") if m in out] == []


# the layers above the circuit that only some commands run, the rule tables
# that only ``rewrite`` loads, the derivations that only ``replay`` loads,
# the reader of a file's relation, the file formats that only the commands
# reading or writing a file load (the relation formats only ``semantics``
# and ``synth``, and the module that re-exports every format none), and the
# symbolic execution that only ``Circuit.semantics`` and that reader run
CIRCUIT_READERS = {"circuit_formats", "lexing"}
READERS = {*CIRCUIT_READERS, "relation_formats"}
LAYERS = {
    "rewrite", "identities", "derivation", "normalize", "synth", "fuzzing", "lawsuites",
    "semantics_reader", *READERS, "formats", "symbolic",
}

# the exit code of the command in argv, and the file of every cnotcalc
# module it loaded
FILES_PROBE = """
import sys
import cnotcalc.cli
code = cnotcalc.cli.run(sys.argv[1:])
print(code)
print(sorted(m.__file__ for n, m in sys.modules.items() if n.split(".")[0] == "cnotcalc"))
"""

INPUTS = {
    "circ": "circuit c : 2 -> 2\ncnot 0 1\ncnot 0 1\nend\n",
    "idem": "circuit h : 2 -> 2\ncnot 0 1\npost0 1\ninit0 1\ncnot 0 1\nend\n",
    "graph": "graph 1 1\nparity x0 y0 = 1\n",
    "deriv": "CNT2 0 lr\n",
}


def _with_inputs(tmp_path, argv) -> list[str]:
    """``argv`` with each name of ``INPUTS`` replaced by the path of a file
    under ``tmp_path`` that holds it."""
    for name, text in INPUTS.items():
        (tmp_path / name).write_text(text)
    return [str(tmp_path / a) if a in INPUTS else a for a in argv]


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (("--help",), set()),
        (("equal", "circ", "idem"), {"semantics_reader", *CIRCUIT_READERS, "symbolic"}),
        (("semantics", "circ"), {"semantics_reader", *READERS, "symbolic"}),
        (("eval", "circ", "--input", "10"), CIRCUIT_READERS),
        (("construct", "fanout", "3"), CIRCUIT_READERS),
        (("synth", "graph"), {"synth", "normalize", *READERS, "symbolic"}),
        (("normalize", "idem"), {"normalize", *CIRCUIT_READERS, "symbolic"}),
        (
            ("replay", "circ", "deriv"),
            {"derivation", "rewrite", "identities", *CIRCUIT_READERS, "symbolic"},
        ),
        (
            ("fuzz", "--trials", "1"),
            {"fuzzing", "synth", "normalize", "semantics_reader", *CIRCUIT_READERS, "symbolic"},
        ),
        # the fuzzing trials import what they check when they run, and
        # verify runs none: it draws its random circuits from ``fuzzing``
        (("verify",), {"rewrite", "identities", "lawsuites", "fuzzing", "symbolic"}),
    ],
)
def test_each_command_loads_only_the_layers_it_runs(tmp_path, argv, loaded):
    *_, code, files = _probe(FILES_PROBE, *_with_inputs(tmp_path, argv))
    assert code in ("0", "1")
    assert {Path(f).stem for f in ast.literal_eval(files)} & LAYERS == loaded


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
}

SYNTH_PROBE = """
import sys
import cnotcalc
module = sys.modules["cnotcalc.synth"]
print(synth is module and cnotcalc.synth is module and callable(module.synth))
"""


@pytest.mark.parametrize("order", sorted(SYNTH_ORDERS))
def test_synth_is_the_submodule_whatever_the_import_order(order):
    assert _probe(SYNTH_ORDERS[order] + SYNTH_PROBE) == ["True"]


PACKAGE_PROBE = """
import types
import cnotcalc
bound = {k: v for k, v in vars(cnotcalc).items() if not k.startswith("__")}
print(sorted(k for k, v in bound.items() if isinstance(v, types.ModuleType)))
print(sorted(k for k, v in bound.items() if not isinstance(v, types.ModuleType)))
"""


def test_the_package_binds_only_submodules():
    # each name is imported from the module that defines it
    assert _probe(PACKAGE_PROBE) == ["['circuit', 'gates', 'gf2', 'record', 'relation']", "[]"]


# the commands and what each imports from the standard library under -S:
# none imports ``typing``, ``re`` or ``enum``
STDLIB_PROBE = """
import sys
import cnotcalc.cli
code = cnotcalc.cli.run(sys.argv[1:])
print(code)
print([m for m in ("typing", "re", "enum") if m in sys.modules])
"""


@pytest.mark.parametrize(
    "argv, imported",
    [
        (("--help",), []),
        (("equal", "circ", "idem"), []),
        (("semantics", "circ"), []),
        (("eval", "circ", "--input", "10"), []),
        (("construct", "fanout", "3"), []),
        (("synth", "graph"), []),
        (("normalize", "idem"), []),
        (("replay", "circ", "deriv"), []),
        (("fuzz", "--trials", "1"), []),
        (("verify",), []),
    ],
    ids=lambda value: value[0] if isinstance(value, tuple) else "-".join(value) or "none",
)
def test_no_command_imports_typing(tmp_path, argv, imported):
    # under -S no ``site`` has imported them first; ``typing`` cost about
    # 10 ms a process on top of ``re``, and ``re`` about 10 ms on its own
    *_, code, found = _probe(STDLIB_PROBE, *_with_inputs(tmp_path, argv), flags=("-S",))
    assert code in ("0", "1")
    assert ast.literal_eval(found) == imported


# the module whose import statement loads ``re`` first, then the exit code
RE_IMPORTER_PROBE = """
import sys
class Importer:
    def find_spec(self, name, path=None, target=None):
        if name == "re":
            frame = sys._getframe(1)
            while "importlib" in frame.f_globals["__name__"]:
                frame = frame.f_back
            print(frame.f_globals["__name__"])
sys.meta_path.insert(0, Importer())
import cnotcalc.cli
print(cnotcalc.cli.run(sys.argv[1:]))
"""


def test_only_json_imports_re():
    # ``--json`` prints through ``json``, whose decoder imports ``re``
    importer, *_, code = _probe(RE_IMPORTER_PROBE, "construct", "fanout", "3", "--json",
                                flags=("-S",))
    assert (importer, code) == ("json.decoder", "0")


def _imported_modules(path: Path) -> set[str]:
    """The last dotted part of every module the module at ``path``
    imports, and every name it imports from one."""
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[-1])
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[-1] for alias in node.names)
    return imported


def test_formats_imports_no_higher_layer():
    higher = {
        module: _imported_modules(SRC / "cnotcalc" / f"{module}.py")
        & {"synth", "rewrite", "identities", "fuzzing", "lawsuites"}
        for module in (
            "formats", "circuit_formats", "lexing", "relation_formats", "semantics_reader",
            "symbolic",
        )
    }
    assert higher == dict.fromkeys(higher, set())


def test_no_module_of_the_package_imports_the_reexports():
    # ``formats`` binds every format, relation readers too; a command that
    # imported it would compile readers it does not run
    users = [
        path.name for path in sorted((SRC / "cnotcalc").glob("*.py"))
        if "formats" in _imported_modules(path)
    ]
    assert users == []


def test_formats_binds_the_objects_of_the_format_modules():
    # the tracer looks readers up in ``formats.__dict__`` and rebinds every
    # name that holds the same object, so each must be the defining one
    from cnotcalc import circuit_formats, formats, lexing, relation_formats

    names = {name for name in vars(formats) if not name.startswith("__")}
    assert {
        "parse_circuit", "format_circuit", "parse_derivation", "parse_relation",
        "format_relation", "parse_system", "format_system", "parse_synth_input",
        "FormatError", "integer",
    } <= names
    homes = (circuit_formats, relation_formats, lexing)
    strays = [
        name for name in sorted(names)
        if not any(name in vars(home) and vars(home)[name] is vars(formats)[name] for home in homes)
    ]
    assert strays == []


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


def test_help_compiles_what_prints_the_table():
    # --help runs no reader, no writer and no symbolic execution: it held
    # 11,890 code tokens of cnotcalc while cli imported formats eagerly
    *_, code, files = _probe(FILES_PROBE, "--help")
    assert code == "0"
    assert sum(code_tokens(Path(f)) for f in ast.literal_eval(files)) <= 8600


@pytest.mark.parametrize(
    "argv, budget",
    [
        # code tokens compiled, just above what each command compiles; while
        # every command but --help compiled the relation readers through
        # ``formats``, they read equal 12,622, semantics 12,622, eval and
        # construct 11,641, synth 13,194, normalize 12,607, replay 14,911,
        # fuzz 14,672 and verify 19,203
        (("equal", "circ", "idem"), 11400),
        (("semantics", "circ"), 12700),
        (("eval", "circ", "--input", "10"), 10400),
        (("construct", "fanout", "3"), 10400),
        (("synth", "graph"), 13300),
        (("normalize", "idem"), 11400),
        (("replay", "circ", "deriv"), 13700),
        (("fuzz", "--trials", "1"), 13500),
        (("verify",), 18000),
    ],
    ids=lambda value: value[0] if isinstance(value, tuple) else str(value),
)
def test_each_command_compiles_within_its_budget(tmp_path, argv, budget):
    *_, code, files = _probe(FILES_PROBE, *_with_inputs(tmp_path, argv))
    assert code in ("0", "1")
    assert sum(code_tokens(Path(f)) for f in ast.literal_eval(files)) <= budget


@pytest.mark.parametrize(
    "argv, budget",
    [
        # while ``fuzzing`` imported what its trials check with itself and
        # ``rewrite`` held derivations and the rule reports, replay read
        # 13,602 and verify 17,894
        (("replay", "circ", "deriv"), 13650),
        (("verify",), 14100),
    ],
    ids=lambda value: value[0] if isinstance(value, tuple) else str(value),
)
def test_replay_and_verify_compile_no_layer_they_do_not_run(tmp_path, argv, budget):
    test_each_command_compiles_within_its_budget(tmp_path, argv, budget)


@pytest.mark.parametrize(
    "argv, budget",
    [
        # while ``parse_circuit`` checked the widths after reading the file
        # and mapped a failing gate back to its line, equal read 11,310,
        # semantics 12,595, eval and construct 10,329, synth 13,167,
        # normalize 11,295, replay 13,646 and fuzz 13,360
        (("equal", "circ", "idem"), 11150),
        (("semantics", "circ"), 12450),
        (("eval", "circ", "--input", "10"), 10200),
        (("construct", "fanout", "3"), 10200),
        (("synth", "graph"), 13050),
        (("normalize", "idem"), 11200),
        (("replay", "circ", "deriv"), 13550),
        (("fuzz", "--trials", "1"), 13200),
    ],
    ids=lambda value: value[0] if isinstance(value, tuple) else str(value),
)
def test_circuit_readers_compile_no_gate_to_line_map(tmp_path, argv, budget):
    test_each_command_compiles_within_its_budget(tmp_path, argv, budget)


ORDER_PROBE = """
import os
import runpy
import sys
compiled = []
sys.addaudithook(lambda event, args: event == "compile" and compiled.append(args[1]))
try:
    runpy.run_module("cnotcalc.cli", run_name="__main__", alter_sys=True)
except SystemExit:
    pass
print([os.path.basename(f) for f in compiled if isinstance(f, str) and f.endswith(".py")])
"""


def _compile_order(tmp_path, *argv: str) -> tuple[list[str], list[str]]:
    """(output lines, the ``.py`` files compiled in order) of the command
    ``argv`` run as ``python -m cnotcalc.cli`` with no bytecode cache."""
    args = _with_inputs(tmp_path, argv)
    env = dict(
        os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1",
        PYTHONPYCACHEPREFIX=str(tmp_path / "no-cache"),
    )
    out = subprocess.run(
        [sys.executable, "-c", ORDER_PROBE, *args],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    return out[:-1], ast.literal_eval(out[-1])


def test_relation_compiles_before_cli(tmp_path):
    # ``relation`` is the largest compile unit, and what the parser allocates
    # for it stays resident.  Compiled first (through the package's
    # gf2 -> relation -> circuit import), the modules after it reuse that
    # memory; compiled last, its peak lands on top of them: deferring it
    # past ``cli`` raised the peak RSS of ``equal`` by 130-250 KiB and of
    # ``synth``, ``normalize`` and ``replay`` by 144-168 KiB.
    out, order = _compile_order(tmp_path, "equal", "circ", "circ")
    assert out == ["equal"]
    assert order.index("relation.py") < order.index("cli.py")


def test_the_circuit_format_compiles_before_rewrite(tmp_path):
    # which module compiles first moves peak RSS by allocator layout alone.
    # Compiled before ``circuit_formats`` and ``lexing``, ``rewrite`` and
    # ``identities`` raised the median peak RSS of ``replay`` by 70-130 KiB
    # (by ``wait4``, 20 processes a job on each of 4 jobs)
    out, order = _compile_order(tmp_path, "replay", "circ", "deriv")
    assert out[0] == "circuit step0 : 2 -> 2"
    assert order.index("circuit_formats.py") < order.index("rewrite.py")


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


def test_only_the_rewrite_code_builds_an_unchecked_circuit():
    # ``Circuit._spliced`` builds a circuit without checking its widths:
    # ``apply_at`` checks the gates it puts between a legal prefix and
    # suffix, ``derivation`` rebuilds the circuits ``apply_at`` built, and
    # ``parse_circuit`` checks each gate against the width as it reads it.
    # Every other ``Circuit`` is checked as it is built.
    uses = []
    for path in sorted((SRC / "cnotcalc").rglob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            named = isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            where = f"{path.stem}.{top.name}" if named else path.stem
            uses += [
                where for node in ast.walk(top)
                if isinstance(node, ast.Attribute) and node.attr == "_spliced"
                or isinstance(node, ast.Name) and node.id == "_spliced"
                or isinstance(node, ast.Constant) and node.value == "_spliced"
            ]
    assert sorted(uses) == [
        "circuit_formats.parse_circuit", "derivation._circuits", "rewrite.apply_at",
    ]


def test_deleted_wrappers_are_not_public():
    gone = {"rref", "solve_affine", "project_out", "swap_block"}
    assert [name for name in gone if hasattr(cnotcalc, name)] == []


def test_annotations_are_postponed_and_typing_is_not_imported():
    # under PEP 563 an annotation is never evaluated, so ``Optional[int]``
    # needs no import; without the future import it would fail at import.
    # The text layer reads with ``str`` methods, so no module imports ``re``.
    unpostponed, typing_users, re_users = [], [], []
    for path in sorted((SRC / "cnotcalc").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        annotated = any(
            isinstance(node, ast.AnnAssign)
            or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
                node.returns is not None
                or any(a.annotation is not None for a in ast.walk(node.args) if isinstance(a, ast.arg))
            )
            for node in ast.walk(tree)
        )
        first = next((node for node in tree.body if not (
            isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
        )), None)
        postponed = isinstance(first, ast.ImportFrom) and first.module == "__future__" and any(
            alias.name == "annotations" for alias in first.names
        )
        if annotated and not postponed:
            unpostponed.append(path.name)
        imported = _imported_modules(path)
        if "typing" in imported:
            typing_users.append(path.name)
        if "re" in imported:
            re_users.append(path.name)
    assert (unpostponed, typing_users, re_users) == ([], [], [])
