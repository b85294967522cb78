"""Every file format under one name, for code outside the package: the
readers and writers, ``FormatError`` and the lexing helpers and tables
that tests check.  Each name here is the very object that
``circuit_formats``, ``relation_formats`` or ``lexing`` binds, so a reader
looked up here is the one the package calls.  No module of the package
imports this one: each command imports the formats it runs, so a command
that reads only circuits compiles no relation reader.
"""

from .circuit_formats import (  # noqa: F401  (re-exported)
    _ONE_WIRE, _TWO_WIRES, format_circuit, parse_circuit, parse_derivation,
)
from .lexing import FormatError, _arities, _column_of, _int, integer  # noqa: F401  (re-exported)
from .relation_formats import (  # noqa: F401  (re-exported)
    format_relation, format_system, parse_relation, parse_synth_input, parse_system,
)
