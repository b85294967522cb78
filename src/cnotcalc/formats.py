"""The circuit file format, and the derivation files that name rewrite
steps on a circuit; with them, every reader and writer of the package.

A circuit file is a header ``circuit <name> : <n_in> -> <n_out>``, one
gate per line and ``end``.  Circuits print with primitive gates only; the
parser additionally accepts the ``init0``/``post0``/``not`` macros and
expands them.  ``parse_circuit`` builds a file's ``Circuit``;
``semantics_reader.parse_semantics`` runs each gate line as it splits it,
with the header reading and the building of other lines here.  A
derivation file has one step per line, ``<rule> <offset> <lr|rl>``.  The
text layer under them is ``lexing``, and the readers and writers of
relations, systems and affine maps are ``relation_formats``; ``formats``
binds their names too, as one place to import every format from.
"""

from __future__ import annotations

from itertools import filterfalse

from .circuit import Circuit
from .gates import GATES, CircuitError, Gate, cnot, init1, post1, swap
from .lexing import (  # noqa: F401  (integer: bound here for cli)
    FormatError,
    _arities,
    _bodies,
    _column_of,
    _int,
    _logical_lines,
    integer,
)
from .relation_formats import (  # noqa: F401  (bound here: one import point for every format)
    format_relation,
    format_system,
    parse_relation,
    parse_synth_input,
    parse_system,
)


# -- circuits -----------------------------------------------------------------

def format_circuit(c: Circuit, name: str = "main") -> str:
    lines = [f"circuit {name} : {c.n_in} -> {c.n_out}"]
    lines += [g._line or g.line for g in c.gates]  # each gate formats itself once
    lines += ("end", "")  # the last line feed without a copy of the text
    return "\n".join(lines)


# The primitive gates by their number of wires, for the direct path of
# ``parse_circuit``.
_ONE_WIRE = {"init1": init1, "post1": post1}
_TWO_WIRES = {"cnot": cnot, "swap": swap}


def parse_circuit(source) -> tuple[str, Circuit]:
    """(name, circuit) of a circuit file, its text or the file open for
    reading, which ``lexing._windows`` cuts into windows.

    The call holds one window, the list of the gates read so far, with the
    line and number of gates of each line that builds other than one gate,
    and a memo that maps each gate-line body met so far to what it builds:
    the ``Gate`` of a primitive line, the tuple of gates of a macro line,
    and the empty tuple for the empty body of blank and comment-only lines.
    Repeated lines share one ``Gate``.
    """
    memo: dict = {"": ()}
    name, n_in, n_out, lineno, windows = _read_header(source)
    wires: dict[str, int] = {}
    gates: list[Gate] = []
    others: list[int] = []  # line, number of gates, of each blank or macro line
    for at, part in windows:
        gates += _window_gates(part, at, memo, wires, others)
        del part  # the next window is split without this one's lines
    try:
        c = Circuit(n_in, gates)
    except CircuitError as e:
        raise FormatError(str(e), _line_of_gate(lineno + 1, others, e.index)) from None
    _check_outputs(n_in, n_out, c.n_out, lineno)
    return name, c


def _window_gates(
    part: list[str], at: int, memo: dict, wires: dict[str, int], others: list[int]
) -> list[Gate]:
    """The gates of the gate lines ``part``, which start at line ``at``.
    Each line that builds other than one gate, a macro or a blank line,
    adds its line and number of gates to ``others``.

    Only the bodies not yet in ``memo`` are tokenized and built, each at
    its first occurrence, since ``filterfalse`` asks the memo as the loop
    goes: n wires allow only about 2 n^2 distinct lines, so long circuits
    repeat many of them, and a window whose bodies are all in the memo
    runs no Python-level loop.  Gates are immutable, so repeated lines
    share them.  In file order, the first bad body is the first bad line.
    ``wires`` maps the wire numbers met so far, as ``str`` writes them, to
    their ints.  A primitive line whose numbers are all in it, two of them
    apart, takes the direct path, which no check fails; any other line
    takes the general path, ``_build``.
    """
    wire = wires.get
    for body in filterfalse(memo.__contains__, part):
        tokens = body.split()
        if len(tokens) == 3:
            builder, a, b = _TWO_WIRES.get(tokens[0]), wire(tokens[1]), wire(tokens[2])
            if builder is not None and a is not None and b is not None and a != b:
                memo[body] = builder(a, b)
                continue
        elif len(tokens) == 2:
            builder, a = _ONE_WIRE.get(tokens[0]), wire(tokens[1])
            if builder is not None and a is not None:
                memo[body] = builder(a)
                continue
        memo[body] = _build(body, part, at, wires)
    built = list(map(memo.__getitem__, part))
    if tuple not in map(type, built):
        return built
    gates: list[Gate] = []
    for line, entry in enumerate(built, at):  # add each line's gates, if any
        if type(entry) is tuple:
            gates += entry
            others.extend((line, len(entry)))
        else:
            gates.append(entry)
    return gates


def _read_header(source):
    """(name, n_in, n_out, header line, gate lines) of a circuit file:
    ``gate lines`` gives (line, bodies) of each window's gate lines up to
    ``end``."""
    windows = _bodies(source)
    for first, bodies in windows:
        start = next((i for i, body in enumerate(bodies) if body), None)
        if start is not None:
            break
    else:
        raise FormatError("empty circuit file", 1)
    header, lineno = bodies[start], first + start
    tokens = header.split()
    if (
        len(tokens) != 6
        or tokens[0] != "circuit"
        or tokens[2] != ":"
        or tokens[4] != "->"
    ):
        raise FormatError(
            "expected header 'circuit <name> : <n_in> -> <n_out>'", lineno
        )
    n_in, n_out = _arities(tokens, (3, 5), lineno, header)
    return tokens[1], n_in, n_out, lineno, _gate_lines(windows, first, bodies, start + 1, lineno)


def _gate_lines(windows, first: int, bodies: list[str], begin: int, last: int):
    """(line, bodies) of each window's gate lines, from ``bodies[begin]``
    at line ``first + begin`` up to ``end``; ``last`` is the last non-empty
    line so far, where 'end' is missing."""
    while True:
        try:
            stop = bodies.index("end", begin)
        except ValueError:
            stop = None
        yield first + begin, bodies[begin:stop]
        if stop is not None:
            return
        last = next((first + i for i in range(len(bodies) - 1, begin - 1, -1) if bodies[i]), last)
        del bodies  # the next window is split without this one's lines
        first, bodies = next(windows, (None, None))
        if bodies is None:
            raise FormatError("missing 'end' terminator", last)
        begin = 0


def _build(body: str, part: list[str], at: int, wires: dict[str, int]):
    """The ``Gate``, macro gates or (blank) empty tuple of ``body``, one of
    ``part``, whose lines start at line ``at``; its wire numbers go into
    ``wires`` where ``str`` writes them so."""
    tokens = body.split()
    if not tokens:
        return ()
    kind = tokens[0]
    builder, arity, _ = GATES.get(kind, (None, None, None))
    if builder is None or len(tokens) != 1 + arity:
        if builder is None:
            raise FormatError(f"unknown gate {kind!r}", at + part.index(body))
        raise FormatError(f"gate {kind} takes {arity} argument(s)", at + part.index(body))
    try:
        args = list(map(int, tokens[1:]))
    except ValueError:
        args = None
    # On ASCII text with no '+' or '_', int() reads exactly INTEGER.
    if args is None or not body.isascii() or "+" in body or "_" in body:
        line = at + part.index(body)
        args = [_int(t, line, body, i) for i, t in enumerate(tokens[1:], 1)]
    for t, k in zip(tokens[1:], args):
        if k >= 0 and str(k) == t:
            wires[t] = k
    try:
        return builder(*args)
    except CircuitError as e:  # a gate that no width admits
        raise FormatError(str(e), at + part.index(body)) from None


def _check_outputs(n_in: int, n_out: int, got: int, lineno: int) -> None:
    if got != n_out:
        raise FormatError(
            f"header declares {n_in} -> {n_out} but gates yield {got} outputs", lineno
        )


def _line_of_gate(line: int, others: list[int], index: int) -> int:
    """The line that builds gate ``index`` of a circuit whose gate lines
    start at ``line``: each gate line builds one gate, save those whose
    line and number of gates ``others`` lists in turn."""
    gate = 0  # the index of the first gate of ``line``
    for at, count in zip(others[::2], others[1::2]):
        if index < gate + at - line:
            break
        gate += at - line
        if index < gate + count:
            return at
        gate, line = gate + count, at + 1
    return line + index - gate


# -- derivations -----------------------------------------------------------------


def parse_derivation(source) -> list[tuple[str, int, str]]:
    steps = []
    for lineno, body in _logical_lines(source):
        tokens = body.split()
        if len(tokens) != 3:
            raise FormatError("expected '<rule> <offset> <lr|rl>'", lineno)
        offset = _int(tokens[1], lineno, body, 1)
        if tokens[2] not in ("lr", "rl"):
            raise FormatError(
                f"direction must be 'lr' or 'rl', got {tokens[2]!r}",
                lineno,
                _column_of(body, 2),
            )
        steps.append((tokens[0], offset, tokens[2]))
    return steps
