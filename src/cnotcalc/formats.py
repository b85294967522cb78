"""Line-oriented text formats for circuits, relations, equation systems,
affine map specs, and derivations.

All formats are UTF-8, one item per line, ``#`` to end of line is a comment.
Circuits print with primitive gates only; the parser additionally accepts the
``init0``/``post0``/``not`` macros and expands them.
"""

from __future__ import annotations

import re
from itertools import chain
from typing import Optional

from .gf2 import BitVec, GF2Matrix
from .circuit import Circuit, Gate, cnot, init0, init1, notg, post0, post1, swap
from .normalize import Clause, ClausalForm
from .relation import AffineRelation
from .synth import AffineMapSpec


class FormatError(ValueError):
    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def _logical_lines(text: str):
    """(line number, stripped content) for non-empty, non-comment lines."""
    for i, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            yield i, body


def _int(token: str, line: int, body: str, index: int) -> int:
    """``int(token)``, where ``token`` is token ``index`` of ``body``.  Its
    column is worked out only for the error."""
    try:
        return int(token)
    except ValueError:
        raise FormatError(
            f"expected an integer, got {token!r}", line, _column_of(body, index)
        ) from None


def _column_of(body: str, token_index: int) -> int:
    spans = [m.start() for m in re.finditer(r"\S+", body)]
    if token_index < len(spans):
        return spans[token_index] + 1
    return len(body) + 1


# -- circuits -----------------------------------------------------------------

# kind -> (builder, number of arguments)
_GATES = {
    "cnot": (cnot, 2),
    "swap": (swap, 2),
    "init1": (init1, 1),
    "post1": (post1, 1),
    "init0": (init0, 1),
    "post0": (post0, 1),
    "not": (notg, 1),
}


def format_circuit(c: Circuit, name: str = "main") -> str:
    lines = [f"circuit {name} : {c.n_in} -> {c.n_out}"]
    lines += [g._line or g.line for g in c.gates]  # each gate formats itself once
    lines.append("end")
    return "\n".join(lines) + "\n"


def parse_circuit(
    text: str, memo: Optional[dict[str, tuple[Gate, ...]]] = None
) -> tuple[str, Circuit]:
    """(name, circuit) of a circuit file.

    ``memo`` maps gate-line bodies to their gates.  Calls that parse several
    files of one command pass the same dict, so a line met in an earlier
    file is not parsed again.  It holds only lines that parsed, and the
    empty body of blank and comment-only lines, which maps to no gates.
    """
    if memo is None:
        memo = {}
    memo[""] = ()
    bodies = [raw.split("#", 1)[0].strip() for raw in text.splitlines()]
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
    n_in = _int(tokens[3], lineno, header, 3)
    n_out = _int(tokens[5], lineno, header, 5)
    try:
        stop = bodies.index("end", start + 1)
    except ValueError:
        stop = None
    gate_bodies = bodies[start + 1 : stop]
    # Only the distinct bodies not yet in the memo are tokenized and built:
    # n wires allow only about 2 n^2 distinct lines, so long circuits repeat
    # many of them.  Gates are immutable, so repeated lines share them.  In
    # first-occurrence order, the first bad body is the first bad line.
    for body in dict.fromkeys(gate_bodies):
        if body in memo:
            continue
        tokens = body.split()
        kind = tokens[0]
        builder, arity = _GATES.get(kind, (None, None))
        if builder is None or len(tokens) != 1 + arity:
            lineno = bodies.index(body, start + 1) + 1
            if builder is None:
                raise FormatError(f"unknown gate {kind!r}", lineno)
            raise FormatError(f"gate {kind} takes {arity} argument(s)", lineno)
        try:
            args = list(map(int, tokens[1:]))
        except ValueError:
            lineno = bodies.index(body, start + 1) + 1
            args = [_int(t, lineno, body, i) for i, t in enumerate(tokens[1:], 1)]
        built = builder(*args)
        memo[body] = built if type(built) is tuple else (built,)
    if stop is None:
        last = max(i for i, body in enumerate(bodies) if body)
        raise FormatError("missing 'end' terminator", last + 1)
    gates = list(chain.from_iterable(map(memo.__getitem__, gate_bodies)))
    c = Circuit(n_in, gates)
    v = c.validate()
    if not v.ok:
        raise FormatError(v.message, start + 1)
    if c.n_out != n_out:
        raise FormatError(
            f"header declares {n_in} -> {n_out} but gates yield {c.n_out} outputs",
            start + 1,
        )
    return name, c


# -- relations ----------------------------------------------------------------


def format_relation(r: AffineRelation) -> str:
    n, m = r.n_in, r.n_out
    lines = [f"graph {n} {m}"]
    for row in r.constraint_masks:
        terms = [f"x{j}" for j in range(n) if (row >> j) & 1]
        terms += [f"y{j}" for j in range(m) if (row >> (n + j)) & 1]
        rhs = (row >> (n + m)) & 1
        lines.append(" ".join(["parity", *terms, "=", str(rhs)]))
    return "\n".join(lines) + "\n"


def _parse_parity_terms(tokens, n, m, lineno, body):
    if "=" not in tokens:
        raise FormatError("parity line needs '= <bit>'", lineno)
    eq = tokens.index("=")
    if eq != len(tokens) - 2:
        raise FormatError("expected a single bit after '='", lineno)
    # tokens follow the leading 'parity', so token i is token i + 1 of body
    rhs = _int(tokens[-1], lineno, body, len(tokens))
    if rhs not in (0, 1):
        raise FormatError("right-hand side must be 0 or 1", lineno)
    mask = rhs << (n + m)
    for i, t in enumerate(tokens[:eq], 1):
        if t.startswith("x"):
            j = _int(t[1:], lineno, body, i)
            if not 0 <= j < n:
                raise FormatError(
                    f"input variable {t} out of range", lineno, _column_of(body, i)
                )
            mask |= 1 << j
        elif t.startswith("y"):
            j = _int(t[1:], lineno, body, i)
            if m == 0 or not 0 <= j < m:
                raise FormatError(
                    f"output variable {t} out of range", lineno, _column_of(body, i)
                )
            mask |= 1 << (n + j)
        else:
            raise FormatError(
                f"expected x<i> or y<j>, got {t!r}", lineno, _column_of(body, i)
            )
    return mask


def parse_relation(text: str) -> AffineRelation:
    lines = list(_logical_lines(text))
    if not lines:
        raise FormatError("empty relation file", 1)
    lineno, header = lines[0]
    tokens = header.split()
    if len(tokens) != 3 or tokens[0] != "graph":
        raise FormatError("expected header 'graph <n_in> <n_out>'", lineno)
    n = _int(tokens[1], lineno, header, 1)
    m = _int(tokens[2], lineno, header, 2)
    rows = []
    for lineno, body in lines[1:]:
        if body == "end":
            break
        tokens = body.split()
        if tokens[0] != "parity":
            raise FormatError(f"expected 'parity' line, got {tokens[0]!r}", lineno)
        rows.append(_parse_parity_terms(tokens[1:], n, m, lineno, body))
    return AffineRelation(n, m, rows)


# -- parity equation systems (restriction idempotents) --------------------------


def format_system(cf: ClausalForm) -> str:
    lines = [f"system {cf.n}"]
    for c in cf.clauses:
        terms = [str(i) for i in sorted(c.support)]
        lines.append(" ".join(["parity", *terms, "=", str(c.rhs)]))
    return "\n".join(lines) + "\n"


def parse_system(text: str) -> ClausalForm:
    lines = list(_logical_lines(text))
    if not lines:
        raise FormatError("empty system file", 1)
    lineno, header = lines[0]
    tokens = header.split()
    if len(tokens) != 2 or tokens[0] != "system":
        raise FormatError("expected header 'system <n>'", lineno)
    n = _int(tokens[1], lineno, header, 1)
    clauses = []
    for lineno, body in lines[1:]:
        if body == "end":
            break
        tokens = body.split()
        if tokens[0] != "parity":
            raise FormatError(f"expected 'parity' line, got {tokens[0]!r}", lineno)
        if "=" not in tokens:
            raise FormatError("parity line needs '= <bit>'", lineno)
        eq = tokens.index("=")
        if eq != len(tokens) - 2:
            raise FormatError("expected a single bit after '='", lineno)
        rhs = _int(tokens[-1], lineno, body, len(tokens) - 1)
        support = set()
        for i, t in enumerate(tokens[1:eq], 1):
            j = _int(t, lineno, body, i)
            if not 0 <= j < n:
                raise FormatError(f"wire {j} out of range", lineno)
            support.add(j)
        clauses.append(Clause(frozenset(support), rhs))
    return ClausalForm(n, tuple(clauses))


# -- synthesis input ------------------------------------------------------------


def parse_synth_input(text: str) -> AffineRelation:
    """A relation to synthesize: a 'graph' constraint system, a 'system'
    of parity equations (meaning the restriction idempotent it cuts out),
    or an 'affine' map block with an optional input-domain system."""
    lines = list(_logical_lines(text))
    if not lines:
        raise FormatError("empty synthesis input", 1)
    head = lines[0][1].split()[0]
    if head == "graph":
        return parse_relation(text)
    if head == "system":
        cf = parse_system(text)
        return AffineRelation.restriction_on(cf.n, cf.masks())
    lineno, header = lines[0]
    tokens = header.split()
    if len(tokens) != 3 or tokens[0] != "affine":
        raise FormatError(
            "expected 'graph <n> <m>', 'system <n>', or 'affine <n> <m>' header",
            lineno,
        )
    n = _int(tokens[1], lineno, header, 1)
    m = _int(tokens[2], lineno, header, 2)
    rows: list[list[int]] = []
    shift = None
    dom_rows: list[int] = []
    for lineno, body in lines[1:]:
        if body == "end":
            break
        tokens = body.split()
        if tokens[0] == "row":
            bits = [_int(t, lineno, body, i) for i, t in enumerate(tokens[1:], 1)]
            if len(bits) != n or any(b not in (0, 1) for b in bits):
                raise FormatError(f"expected {n} bits after 'row'", lineno)
            rows.append(bits)
        elif tokens[0] == "shift":
            bits = [_int(t, lineno, body, i) for i, t in enumerate(tokens[1:], 1)]
            if len(bits) != m or any(b not in (0, 1) for b in bits):
                raise FormatError(f"expected {m} bits after 'shift'", lineno)
            shift = bits
        elif tokens[0] == "parity":
            if "=" not in tokens:
                raise FormatError("parity line needs '= <bit>'", lineno)
            eq = tokens.index("=")
            if eq != len(tokens) - 2:
                raise FormatError("expected a single bit after '='", lineno)
            rhs = _int(tokens[-1], lineno, body, len(tokens) - 1)
            if rhs not in (0, 1):
                raise FormatError("right-hand side must be 0 or 1", lineno)
            mask = rhs << n
            for i, t in enumerate(tokens[1:eq], 1):
                j = _int(t, lineno, body, i)
                if not 0 <= j < n:
                    raise FormatError(f"input wire {j} out of range", lineno)
                mask |= 1 << j
            dom_rows.append(mask)
        else:
            raise FormatError(f"unexpected line {tokens[0]!r}", lineno)
    if len(rows) != m:
        raise FormatError(f"expected {m} 'row' lines, found {len(rows)}", lines[0][0])
    if shift is None:
        raise FormatError("missing 'shift' line", lines[0][0])
    spec = AffineMapSpec(GF2Matrix(rows, cols=n), BitVec(shift))
    graph = spec.graph_relation()  # inputs preserved: x -> (x, f(x))
    if dom_rows:
        nv = n + graph.n_out
        lifted = [
            (r & ((1 << n) - 1)) | (((r >> n) & 1) << nv) for r in dom_rows
        ]
        graph = AffineRelation(
            n, graph.n_out, graph.constraint_masks + tuple(lifted)
        )
    return graph


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
