"""One evaluator for every input at once, one reading of a map, and one
converse elimination per relation.

The checks that run circuits on inputs (``fuzzing``, ``rewrite`` and
``lawsuites``) run them all at once, bit-sliced, through
``Circuit.eval_all`` and ``AffineRelation.apply_all``.  A relation's map
is read by ``map_rows``: ``apply`` runs no elimination of its own, and
``synth`` reads its forward map and domain through it alone.  The rows
with the outputs first are eliminated once a relation, by
``_converse_rows``; the converse, the domain, the map and the partial
isomorphism test read them, and ``synth`` checks no pivot itself.
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


ELIMINATION = {"rref_masks", "project_masks", "_canonical"}
# a call to one of these runs ``__init__``'s elimination
ELIMINATING_BUILDERS = {"AffineRelation", "cls", "from_map", "identity", "permutation",
                        "restriction_on", "restriction", "meet", "tensor", "compose"}


def calls(node: ast.AST) -> set[str]:
    """The name of every function ``node`` calls, by name or attribute."""
    return {
        sub.func.id if isinstance(sub.func, ast.Name) else sub.func.attr
        for sub in ast.walk(node)
        if isinstance(sub, ast.Call) and isinstance(sub.func, (ast.Name, ast.Attribute))
    }


def test_one_converse_elimination_per_relation():
    functions = [n for n in ast.walk(tree("relation")) if isinstance(n, ast.FunctionDef)]
    eliminating = {f.name for f in functions if names_used(f) & ELIMINATION}
    assert eliminating == {"_canonical", "__init__", "_converse_rows", "compose"}
    for name in ("dagger", "domain_masks", "map_rows", "partial_iso_violation", "is_total"):
        body = method("relation", "AffineRelation", name)
        assert not names_used(body) & ELIMINATION, name
        assert not calls(body) & ELIMINATING_BUILDERS, name


def test_synth_raises_no_runtime_error():
    raises = [n for n in ast.walk(tree("synth")) if isinstance(n, ast.Raise)]
    assert raises and not any("RuntimeError" in names_used(n) for n in raises)
