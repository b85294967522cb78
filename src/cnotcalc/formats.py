"""Line-oriented text formats for circuits, relations, equation systems,
affine map specs, and derivations.

All formats are UTF-8, one item per line.  A comment runs from ``#`` to the
end of its line, and lines end where ``str.splitlines`` splits them: at line
feeds, carriage returns, form feeds, U+2028 and the like.  Circuits print
with primitive gates only; the parser additionally accepts the
``init0``/``post0``/``not`` macros and expands them.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Optional

from .circuit import GATES, Circuit, CircuitError, Gate, circuit, cnot, init1, post1, swap
from .gf2 import set_bits
from .relation import AffineRelation

if TYPE_CHECKING:
    from .normalize import ClausalForm


class FormatError(ValueError):
    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


# ``#`` up to the end of its line: the characters that ``str.splitlines``
# ends a line at.  Left to ``re``'s cache rather than compiled at import:
# the class of non-Latin-1 characters takes about 0.4 ms to compile, which
# every command would pay, and only text with a ``#`` needs it.
_COMMENT = "#[^\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]*"


def _bodies(text: str) -> list[str]:
    """The content of each line, comment removed and stripped."""
    if "#" in text:
        # A comment becomes a space, not nothing: deleting the one in
        # "\r#c\n" would join two line breaks into one "\r\n".
        text = re.sub(_COMMENT, " ", text)
    return list(map(str.strip, text.splitlines()))


def _logical_lines(text: str):
    """(line number, stripped content) for non-empty, non-comment lines."""
    for i, body in enumerate(_bodies(text), start=1):
        if body:
            yield i, body


# A decimal integer as the formats write it.  ``int()`` alone would also
# take a ``+`` sign, ``_`` separators and non-ASCII digits.
INTEGER = re.compile(r"-?[0-9]+")


def integer(token: str) -> int:
    """``int(token)`` of a token that must match ``INTEGER``; otherwise a
    ``ValueError`` that says what is wrong, without echoing a long token."""
    if not INTEGER.fullmatch(token):
        raise ValueError(f"expected an integer, got {token!r}")
    try:
        return int(token)
    except ValueError:  # more digits than int() converts
        raise ValueError(f"integer too long ({len(token.lstrip('-'))} digits)") from None


def _int(token: str, line: int, body: str, index: int) -> int:
    """``integer(token)``, where ``token`` is token ``index`` of ``body``.
    Its column is worked out only for the error."""
    try:
        return integer(token)
    except ValueError as e:
        raise FormatError(str(e), line, _column_of(body, index)) from None


def _arities(tokens: list[str], positions, line: int, header: str) -> list[int]:
    """The header's arities, at token ``positions``: integers first, then
    each checked to be nonnegative."""
    sizes = [_int(tokens[i], line, header, i) for i in positions]
    for i, k in zip(positions, sizes):
        if k < 0:
            raise FormatError(
                f"arity must be nonnegative, got {k}", line, _column_of(header, i)
            )
    return sizes


def _column_of(body: str, token_index: int) -> int:
    spans = [m.start() for m in re.finditer(r"\S+", body)]
    if token_index < len(spans):
        return spans[token_index] + 1
    return len(body) + 1


# -- circuits -----------------------------------------------------------------

def format_circuit(c: Circuit, name: str = "main") -> str:
    lines = [f"circuit {name} : {c.n_in} -> {c.n_out}"]
    lines += [g._line or g.line for g in c.gates]  # each gate formats itself once
    lines.append("end")
    return "\n".join(lines) + "\n"


# The primitive gates by their number of wires, for the direct path of
# ``parse_circuit``.
_ONE_WIRE = {"init1": init1, "post1": post1}
_TWO_WIRES = {"cnot": cnot, "swap": swap}


def parse_circuit(
    text: str, memo: Optional[dict[str, Gate | tuple[Gate, ...]]] = None
) -> tuple[str, Circuit]:
    """(name, circuit) of a circuit file.

    ``memo`` maps gate-line bodies to what they build: the ``Gate`` of a
    primitive line, the tuple of gates of a macro line, and the empty tuple
    for the empty body of blank and comment-only lines.  Calls that parse
    several files of one command pass the same dict, so a line met in an
    earlier file is not parsed again.  It holds only lines that parsed.
    """
    if memo is None:
        memo = {}
    memo[""] = ()
    bodies = _bodies(text)
    start = next((i for i, body in enumerate(bodies) if body), None)
    if start is None:
        raise FormatError("empty circuit file", 1)
    header, lineno = bodies[start], start + 1
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
    name = tokens[1]
    n_in, n_out = _arities(tokens, (3, 5), lineno, header)
    try:
        stop = bodies.index("end", start + 1)
    except ValueError:
        stop = None
    gate_bodies = bodies[start + 1 : stop]
    # Only the distinct bodies not yet in the memo are tokenized and built:
    # n wires allow only about 2 n^2 distinct lines, so long circuits repeat
    # many of them.  Gates are immutable, so repeated lines share them.  In
    # first-occurrence order, the first bad body is the first bad line.
    # ``wires`` maps the wire numbers met so far, as ``str`` writes them, to
    # their ints.  A primitive line whose numbers are all in it takes the
    # direct path, where only its builder checks anything; any other line,
    # and so every error but a builder's, takes the general path below.
    wires: dict[str, int] = {}
    wire = wires.get
    try:
        for body in dict.fromkeys(gate_bodies):
            if body in memo:
                continue
            tokens = body.split()
            if len(tokens) == 3:
                builder, a, b = _TWO_WIRES.get(tokens[0]), wire(tokens[1]), wire(tokens[2])
                if builder is not None and a is not None and b is not None:
                    memo[body] = builder(a, b)
                    continue
            elif len(tokens) == 2:
                builder, a = _ONE_WIRE.get(tokens[0]), wire(tokens[1])
                if builder is not None and a is not None:
                    memo[body] = builder(a)
                    continue
            kind = tokens[0]
            builder, arity, _ = GATES.get(kind, (None, None, None))
            if builder is None or len(tokens) != 1 + arity:
                lineno = bodies.index(body, start + 1) + 1
                if builder is None:
                    raise FormatError(f"unknown gate {kind!r}", lineno)
                raise FormatError(f"gate {kind} takes {arity} argument(s)", lineno)
            try:
                args = list(map(int, tokens[1:]))
            except ValueError:
                args = None
            # On ASCII text with no '+' or '_', int() reads exactly INTEGER.
            if args is None or not body.isascii() or "+" in body or "_" in body:
                lineno = bodies.index(body, start + 1) + 1
                args = [_int(t, lineno, body, i) for i, t in enumerate(tokens[1:], 1)]
            for t, k in zip(tokens[1:], args):
                if str(k) == t:
                    wires[t] = k
            memo[body] = builder(*args)
    except CircuitError as e:  # a gate that no width admits
        raise FormatError(str(e), bodies.index(body, start + 1) + 1) from None
    if stop is None:
        last = max(i for i, body in enumerate(bodies) if body)
        raise FormatError("missing 'end' terminator", last + 1)
    gates = list(map(memo.__getitem__, gate_bodies))
    try:
        if tuple in map(type, gates):  # a macro or a blank line: flatten
            c = circuit(n_in, *gates)
        else:
            c = Circuit(n_in, gates)
    except CircuitError as e:
        raise FormatError(str(e), start + 2 + _line_of_gate(gates, e.index)) from None
    if c.n_out != n_out:
        raise FormatError(
            f"header declares {n_in} -> {n_out} but gates yield {c.n_out} outputs",
            start + 1,
        )
    return name, c


def _line_of_gate(entries: list, index: int) -> int:
    """The position in ``entries``, the memo entries of a file's gate lines,
    of the line that builds gate ``index``: a macro line builds all its
    gates, a blank or comment line none."""
    for j, entry in enumerate(entries):
        index -= 1 if type(entry) is Gate else len(entry)
        if index < 0:
            return j


# -- the readers shared by graph, system and affine files ---------------------


def _read_header(text: str, what: str, arities: dict[str, int], usage: str):
    """(keyword, arities, line number, body) of a file that starts with a
    header ``<keyword> <arity> ...``.

    ``arities`` maps each keyword the caller accepts to its number of
    arities; any other header is reported as ``expected <usage>``.  Every
    arity is checked to be nonnegative before a body line is read.  The body
    is the (line number, content, tokens) of each line up to ``end``.
    """
    lines = _logical_lines(text)
    lineno, header = next(lines, (1, None))
    if header is None:
        raise FormatError(f"empty {what}", 1)
    tokens = header.split()
    count = arities.get(tokens[0])
    if count is None or len(tokens) != 1 + count:
        raise FormatError(f"expected {usage}", lineno)
    sizes = _arities(tokens, range(1, 1 + count), lineno, header)
    body = []
    for i, line in lines:
        if line == "end":
            break
        body.append((i, line, line.split()))
    return tokens[0], sizes, lineno, body


def _parity_mask(tokens: list[str], terms: dict, lineno: int, line: str) -> int:
    """The row of the line ``parity <term> ... = <bit>`` as a bitmask.

    ``terms`` maps each term prefix to (first bit, count, name): the term
    ``<prefix><j>`` sets bit ``first + j``, for ``0 <= j < count``.  The
    right-hand side goes to the bit above all the ranges.  A term may occur
    once only, since over GF(2) a repeat would cancel it.
    """
    if tokens[0] != "parity":
        raise FormatError(f"expected 'parity' line, got {tokens[0]!r}", lineno)
    if "=" not in tokens:
        raise FormatError("parity line needs '= <bit>'", lineno)
    eq = tokens.index("=")
    if eq != len(tokens) - 2:
        raise FormatError("expected a single bit after '='", lineno)
    rhs = _int(tokens[-1], lineno, line, eq + 1)
    if rhs not in (0, 1):
        raise FormatError(
            "right-hand side must be 0 or 1", lineno, _column_of(line, eq + 1)
        )
    mask = rhs << sum(count for _, count, _ in terms.values())
    for i in range(1, eq):
        t = tokens[i]
        for prefix, (first, count, name) in terms.items():
            if t.startswith(prefix):
                break
        else:
            expected = " or ".join(f"{prefix}<i>" for prefix in terms)
            raise FormatError(
                f"expected {expected}, got {t!r}", lineno, _column_of(line, i)
            )
        j = _int(t[len(prefix) :], lineno, line, i)
        if not 0 <= j < count:
            raise FormatError(f"{name} {t} out of range", lineno, _column_of(line, i))
        bit = 1 << (first + j)
        if mask & bit:
            raise FormatError(f"repeated term {t}", lineno, _column_of(line, i))
        mask |= bit
    return mask


# -- relations ----------------------------------------------------------------


def format_relation(r: AffineRelation) -> str:
    n, m = r.n_in, r.n_out
    lines = [f"graph {n} {m}"]
    coef = (1 << (n + m)) - 1
    for row in r.constraint_masks:
        terms = [f"x{j}" if j < n else f"y{j - n}" for j in set_bits(row & coef)]
        rhs = (row >> (n + m)) & 1
        lines.append(" ".join(["parity", *terms, "=", str(rhs)]))
    return "\n".join(lines) + "\n"


def parse_relation(text: str) -> AffineRelation:
    _, (n, m), _, body = _read_header(
        text, "relation file", {"graph": 2}, "header 'graph <n_in> <n_out>'"
    )
    return _graph(n, m, body)


def _graph(n: int, m: int, body) -> AffineRelation:
    terms = {"x": (0, n, "input variable"), "y": (n, m, "output variable")}
    rows = [_parity_mask(tokens, terms, lineno, line) for lineno, line, tokens in body]
    return AffineRelation(n, m, rows)


# -- parity equation systems (restriction idempotents) --------------------------


def format_system(cf: ClausalForm) -> str:
    lines = [f"system {cf.n}"]
    for c in cf.clauses:
        terms = [str(i) for i in sorted(c.support)]
        lines.append(" ".join(["parity", *terms, "=", str(c.rhs)]))
    return "\n".join(lines) + "\n"


def parse_system(text: str) -> ClausalForm:
    from .normalize import ClausalForm  # no command parses a system file

    _, (n,), _, body = _read_header(
        text, "system file", {"system": 1}, "header 'system <n>'"
    )
    return ClausalForm.from_masks(n, _system_rows(n, body))


def _system_rows(n: int, body) -> list[int]:
    """The rows of a system's parity lines, rhs at bit ``n``."""
    terms = {"": (0, n, "wire")}
    return [_parity_mask(tokens, terms, lineno, line) for lineno, line, tokens in body]


# -- synthesis input ------------------------------------------------------------


def parse_synth_input(text: str) -> AffineRelation:
    """A relation to synthesize: a 'graph' constraint system, a 'system'
    of parity equations (meaning the restriction idempotent it cuts out),
    or an 'affine' map block with an optional input-domain system."""
    kind, sizes, header_line, body = _read_header(
        text,
        "synthesis input",
        {"graph": 2, "system": 1, "affine": 2},
        "'graph <n> <m>', 'system <n>', or 'affine <n> <m>' header",
    )
    if kind == "graph":
        return _graph(*sizes, body)
    if kind == "system":
        return AffineRelation.restriction_on(sizes[0], _system_rows(sizes[0], body))
    n, m = sizes
    # x -> (x, T x + s) on the solutions of the parity lines
    domain: list[int] = []
    map_rows: list[int] = []
    shift = None
    terms = {"": (0, n, "input wire")}
    for lineno, line, tokens in body:
        if tokens[0] == "row":
            map_rows.append(_bits_mask(tokens, n, lineno, line))
        elif tokens[0] == "shift":
            bits = _bits_mask(tokens, m, lineno, line)
            if shift is not None:
                raise FormatError("repeated 'shift' line", lineno)
            shift = bits
        elif tokens[0] == "parity":
            domain.append(_parity_mask(tokens, terms, lineno, line))
        else:
            raise FormatError(f"unexpected line {tokens[0]!r}", lineno)
    if len(map_rows) != m:
        raise FormatError(f"expected {m} 'row' lines, found {len(map_rows)}", header_line)
    if shift is None:
        raise FormatError("missing 'shift' line", header_line)
    forms = [1 << j for j in range(n)]
    forms += [a | (shift >> i & 1) << n for i, a in enumerate(map_rows)]
    return AffineRelation.from_map(n, forms, domain)


def _bits_mask(tokens: list[str], count: int, lineno: int, line: str) -> int:
    """The ``count`` bits after the keyword of a ``row`` or ``shift`` line,
    the first one lowest."""
    bits = [_int(t, lineno, line, i) for i, t in enumerate(tokens[1:], 1)]
    if len(bits) != count or any(b not in (0, 1) for b in bits):
        raise FormatError(f"expected {count} bits after {tokens[0]!r}", lineno)
    return sum(b << i for i, b in enumerate(bits))


# -- derivations -----------------------------------------------------------------


def parse_derivation(text: str) -> list[tuple[str, int, str]]:
    steps = []
    for lineno, body in _logical_lines(text):
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
