"""CNOT circuit calculus over GF(2) affine partial isomorphisms.

The package binds its submodules only: each name is imported from its
module, as in ``from cnotcalc.circuit import fanout`` or
``from cnotcalc.synth import synth``.  Importing the bottom layers here
compiles ``relation`` before any command's own module.
"""

from . import gf2, relation, circuit  # noqa: F401
