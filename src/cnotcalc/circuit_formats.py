"""The circuit file format, and the derivation files that name rewrite
steps on a circuit.

A circuit file is a header ``circuit <name> : <n_in> -> <n_out>``, one
gate per line and ``end``.  Circuits print with primitive gates only; the
parser additionally accepts the ``init0``/``post0``/``not`` macros and
expands them.  ``parse_circuit`` builds a file's ``Circuit``, checking
each line's gates against the width as it reads the line;
``semantics_reader.parse_semantics`` runs each gate line as it splits it,
with the header reading and the building of other lines here.  A
derivation file has one step per line, ``<rule> <offset> <lr|rl>``.  The
text layer under them is ``lexing``; the readers and writers of
relations, systems and affine maps are ``relation_formats``, which no
command that reads only circuits compiles.
"""

from __future__ import annotations

from itertools import chain

from .circuit import Circuit
from .gates import GATES, CircuitError, Gate, cnot, init1, post1, swap, width_after
from .lexing import FormatError, _arities, _bodies, _column_of, _int, _logical_lines


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

    The call holds one window, the list of the gates read so far, and a
    memo that maps each gate-line body met so far to what it builds: the
    ``Gate`` of a primitive line, the tuple of gates of a macro line, and
    the empty tuple for the empty body of blank and comment-only lines.
    Repeated lines share one ``Gate``: n wires allow only about 2 n^2
    distinct lines, so long circuits repeat many of them.  Each line's
    gates are checked against the width as the line is read; a gate out of
    range is reported at its line once ``_check_rest`` has read the rest.
    """
    memo: dict = {"": ()}
    name, n_in, n_out, lineno, windows = _read_header(source)
    # ``wires`` maps the wire numbers met so far, as ``str`` writes them, to
    # their ints.  A primitive line whose numbers are all in it, two of them
    # apart, takes the direct path, which no check fails; any other line
    # takes the general path, ``_build``.
    wires: dict[str, int] = {}
    wire = wires.get
    gates: list[Gate] = []
    width = n_in
    for at, part in windows:
        for line, body in enumerate(part, at):
            built = memo.get(body)
            if built is None:
                tokens = body.split()
                if len(tokens) == 3:
                    builder, a, b = _TWO_WIRES.get(tokens[0]), wire(tokens[1]), wire(tokens[2])
                    if builder is not None and a is not None and b is not None and a != b:
                        built = builder(a, b)
                elif len(tokens) == 2:
                    builder, a = _ONE_WIRE.get(tokens[0]), wire(tokens[1])
                    if builder is not None and a is not None:
                        built = builder(a)
                if built is None:
                    built = _build(body, line, wires)
                memo[body] = built
            if type(built) is not tuple:
                if built.need <= width:
                    width += built.delta
                    gates.append(built)
                    continue
                built = (built,)  # out of range: width_after raises
            try:
                width = width_after(built, width, len(gates))
            except CircuitError as e:
                _check_rest(part[line + 1 - at:], line + 1, windows, wires)
                raise FormatError(str(e), line) from None
            gates += built
        del part  # the next window is split without this one's lines
    _check_outputs(n_in, n_out, width, lineno)
    return name, Circuit._spliced(n_in, tuple(gates), n_out)


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


def _build(body: str, line: int, wires: dict[str, int]):
    """The ``Gate``, macro gates or (blank) empty tuple of ``body``, at line
    ``line``; its wire numbers go into ``wires`` where ``str`` writes them
    so."""
    tokens = body.split()
    if not tokens:
        return ()
    kind = tokens[0]
    builder, arity, _ = GATES.get(kind, (None, None, None))
    if builder is None:
        raise FormatError(f"unknown gate {kind!r}", line)
    if len(tokens) != 1 + arity:
        raise FormatError(f"gate {kind} takes {arity} argument(s)", line)
    args = [_int(t, line, body, i) for i, t in enumerate(tokens[1:], 1)]
    for t, k in zip(tokens[1:], args):
        if k >= 0 and str(k) == t:
            wires[t] = k
    try:
        return builder(*args)
    except CircuitError as e:  # a gate that no width admits
        raise FormatError(str(e), line) from None


def _check_rest(part, at: int, windows, wires: dict[str, int]) -> None:
    """Build each of the gate lines ``part``, which start at line ``at``,
    and those of the ``windows`` left, so that a bad line or a missing
    'end' after a gate out of range is raised before it."""
    for at, part in chain([(at, part)], windows):
        for line, body in enumerate(part, at):
            _build(body, line, wires)


def _check_outputs(n_in: int, n_out: int, got: int, lineno: int) -> None:
    if got != n_out:
        raise FormatError(
            f"header declares {n_in} -> {n_out} but gates yield {got} outputs", lineno
        )


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
