"""Every file format under one name, for code outside the package: each
name here is the very object that ``circuit_formats``,
``relation_formats`` or ``lexing`` binds, so a reader looked up here is
the one the package calls.  No module of the package imports this one:
each command imports the formats it runs, so a command that reads only
circuits compiles no relation reader.
"""

from __future__ import annotations

from .circuit_formats import (  # noqa: F401  (re-exported)
    _ONE_WIRE, _TWO_WIRES, GATES, Circuit, CircuitError, Gate, _build, _check_outputs,
    _gate_lines, _line_of_gate, _read_header, _window_gates, cnot, filterfalse,
    format_circuit, init1, parse_circuit, parse_derivation, post1, swap,
)
from .lexing import (  # noqa: F401  (re-exported)
    FormatError, _arities, _bodies, _column_of, _int, _logical_lines, integer,
)
from .relation_formats import (  # noqa: F401  (re-exported)
    format_relation, format_system, parse_relation, parse_synth_input, parse_system,
)
