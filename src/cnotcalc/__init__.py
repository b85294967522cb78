"""CNOT circuit calculus over GF(2) affine partial isomorphisms."""

from .gf2 import BitVec, GF2Matrix
from .relation import AffineRelation
from .circuit import (
    Circuit,
    Gate,
    circuit,
    identity_circuit,
    permutation_circuit,
    cnot,
    swap,
    init1,
    post1,
    init0,
    post0,
    notg,
    equal_circ,
    fanout,
    fanin,
    omega,
    omega_nm,
    plus_map,
    hat,
    literal,
    clause_circuit,
    is_latchable,
)

# The layers above the circuit load on first use of a name they define, so
# a program that never touches them (the ``equal``, ``semantics`` and
# ``eval`` commands among others) does not compile them.  ``synth`` is the
# submodule; its function is ``cnotcalc.synth.synth``.
_LAZY = {
    "rewrite": (
        "RewriteRule", "Derivation", "axiom", "lemma_fixture", "all_rules", "apply_at",
        "replay", "verify_all", "verify_rules",
    ),
    "normalize": (
        "Clause", "ClausalForm", "idempotent_to_clausal", "clausal_to_circuit",
        "gaussian_eliminate", "normalize_idempotent",
    ),
    "synth": ("AffineMapSpec", "synth_total_graph"),
}
_OWNER = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    import importlib

    if name in _LAZY:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _OWNER:
        return getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *_OWNER})


__all__ = [
    "BitVec",
    "GF2Matrix",
    "AffineRelation",
    "Circuit",
    "Gate",
    "circuit",
    "identity_circuit",
    "permutation_circuit",
    "cnot",
    "swap",
    "init1",
    "post1",
    "init0",
    "post0",
    "notg",
    "equal_circ",
    "fanout",
    "fanin",
    "omega",
    "omega_nm",
    "plus_map",
    "hat",
    "literal",
    "clause_circuit",
    "is_latchable",
    *_OWNER,
]
