"""One evaluator for every input at once, and one reading of a map.

The checks that run circuits on inputs (``fuzzing``, ``rewrite`` and
``lawsuites``) run them all at once, bit-sliced, through
``Circuit.eval_all`` and ``AffineRelation.apply_all``.  A relation's map
is read once, by ``map_rows``: ``apply`` runs no elimination of its own,
and ``synth`` reads its forward map and domain through it alone.
"""

import ast
from pathlib import Path

import cnotcalc

SRC = Path(cnotcalc.__file__).parent
PER_INPUT = {"eval_state", "apply", "all_bitvecs"}


def tree(module: str) -> ast.Module:
    return ast.parse((SRC / f"{module}.py").read_text())


def method(module: str, cls: str, name: str) -> ast.FunctionDef:
    owner = next(n for n in tree(module).body if isinstance(n, ast.ClassDef) and n.name == cls)
    return next(n for n in owner.body if isinstance(n, ast.FunctionDef) and n.name == name)


def names_used(node: ast.AST) -> set[str]:
    """Every name and attribute ``node`` reads, imports included."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            used.update(alias.name for alias in sub.names)
    return used


def test_the_checks_run_no_input_alone():
    for module in ("fuzzing", "rewrite", "lawsuites"):
        assert not names_used(tree(module)) & PER_INPUT, module


def test_apply_runs_no_elimination():
    for name in ("apply", "apply_all"):
        assert "rref_masks" not in names_used(method("relation", "AffineRelation", name)), name


def test_circuit_has_one_evaluation_loop():
    # eval_state is eval_all at one lane
    eval_state = method("circuit", "Circuit", "eval_state")
    assert not [n for n in ast.walk(eval_state) if isinstance(n, (ast.For, ast.While))]
    assert "eval_all" in names_used(eval_state)


def test_synth_reads_the_map_through_map_rows():
    used = names_used(tree("synth"))
    assert "map_rows" in used
    assert "dagger" not in used
