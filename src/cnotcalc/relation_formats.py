"""The formats of relations: ``graph`` files (a relation's constraint
system), ``system`` files (the parity equations of a restriction
idempotent) and ``affine`` files (a map on a domain), each a header line
and then one line per row.

A row is a ``parity`` line over named terms, read by ``_parity_mask``; an
``affine`` file adds its map's ``row`` and ``shift`` lines.  The three
share ``_read_header``, which checks every arity of the header before it
reads a body line, and stop at ``end``.
"""

from __future__ import annotations

from itertools import takewhile

from .gf2 import set_bits
from .relation import AffineRelation
from .lexing import FormatError, _arities, _column_of, _int, _logical_lines


# -- the readers shared by graph, system and affine files ---------------------


def _read_header(source, what: str, arities: dict[str, int], usage: str):
    """(keyword, arities, line number, body) of a file, its text or the file
    open, that starts with a header ``<keyword> <arity> ...``.

    ``arities`` maps each keyword the caller accepts to its number of
    arities; any other header is reported as ``expected <usage>``.  Every
    arity is checked to be nonnegative before a body line is read.  The body
    yields the (line number, content, tokens) of each line up to ``end`` as
    it is read, so a reader holds one window of the file and one row.
    """
    lines = _logical_lines(source)
    lineno, header = next(lines, (1, None))
    if header is None:
        raise FormatError(f"empty {what}", 1)
    tokens = header.split()
    count = arities.get(tokens[0])
    if count is None or len(tokens) != 1 + count:
        raise FormatError(f"expected {usage}", lineno)
    sizes = _arities(tokens, range(1, 1 + count), lineno, header)
    body = (
        (i, line, line.split())
        for i, line in takewhile(lambda entry: entry[1] != "end", lines)
    )
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


def parse_relation(source) -> AffineRelation:
    _, (n, m), _, body = _read_header(
        source, "relation file", {"graph": 2}, "header 'graph <n_in> <n_out>'"
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


def parse_system(source) -> ClausalForm:
    from .normalize import ClausalForm  # no command parses a system file

    _, (n,), _, body = _read_header(
        source, "system file", {"system": 1}, "header 'system <n>'"
    )
    return ClausalForm.from_masks(n, _system_rows(n, body))


def _system_rows(n: int, body) -> list[int]:
    """The rows of a system's parity lines, rhs at bit ``n``."""
    terms = {"": (0, n, "wire")}
    return [_parity_mask(tokens, terms, lineno, line) for lineno, line, tokens in body]


# -- synthesis input ------------------------------------------------------------


def parse_synth_input(source) -> AffineRelation:
    """A relation to synthesize: a 'graph' constraint system, a 'system'
    of parity equations (meaning the restriction idempotent it cuts out),
    or an 'affine' map block with an optional input-domain system."""
    kind, sizes, header_line, body = _read_header(
        source,
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
