"""The text layer under every file format: lines taken a window at a time,
comments, integers, and ``FormatError``, which places a fault by line and
column.

All formats are UTF-8, one item per line.  Lines end where
``str.splitlines`` splits them: at line feeds, carriage returns, form feeds,
U+2028 and the like.  A comment runs from ``#`` to the end of its line, and
tokens are what ``str.split`` splits a line into.  Every reader takes a
file's text or the file open for reading, and takes its lines one window at
a time from ``_bodies`` as the file is read.
"""

from __future__ import annotations


class FormatError(ValueError):
    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


# A reader holds one window of a file's lines at a time: this many
# characters and the rest of the line they end in.  A window's stripped lines
# cost about seven times its text (a str of about 60 bytes for a gate line
# of about 10 characters), so a window is kept small.
_WINDOW = 1 << 12


def _windows(source):
    """Each window of the text of ``source``, a ``str`` or an open text
    stream, as it is read.  A window is at least ``_WINDOW`` characters of
    whole lines, or the rest of the text: a ``str`` is cut just after the
    first line feed at or past that many characters, and a stream gives
    ``_WINDOW`` characters and the rest of the line they end in.  So a
    window never splits a ``\r\n``, and ``str.splitlines`` sees whole lines."""
    if isinstance(source, str):
        start = 0
        while stop := source.find("\n", start + _WINDOW - 1) + 1:
            yield source[start:stop]
            start = stop
        if start < len(source):
            yield source[start:]
        return
    while window := source.read(_WINDOW) + source.readline():
        yield window


def _bodies(source):
    """(number of its first line, the content of each of its lines, comment
    removed and stripped) for each window of ``source`` in turn.  The next
    window is cut and split only once this one's lines are let go."""
    first = 1
    for window in _windows(source):
        bodies = window.splitlines()
        if "#" in window:  # cutting every line would double a window's cost
            bodies = [line.partition("#")[0] for line in bodies]
        bodies = list(map(str.strip, bodies))
        del window
        yield first, bodies
        first += len(bodies)
        del bodies


def _logical_lines(source):
    """(line number, stripped content) for the non-empty, non-comment lines
    of ``source``, as ``_windows`` takes it."""
    for first, bodies in _bodies(source):
        for i, body in enumerate(bodies, first):
            if body:
                yield i, body


def integer(token: str) -> int:
    """``int(token)`` of a decimal integer as the formats write it: an
    optional ``-``, then ASCII digits only, where ``int()`` alone would also
    take a ``+`` sign, ``_`` separators and non-ASCII digits.  Otherwise a
    ``ValueError`` that says what is wrong, without echoing a long token."""
    digits = token.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"expected an integer, got {token!r}")
    try:
        return int(token)
    except ValueError:  # more digits than int() converts
        raise ValueError(f"integer too long ({len(digits)} digits)") from None


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
    at = 0
    for token in body.split()[:token_index]:
        at = body.index(token, at) + len(token)
    return len(body) - len(body[at:].lstrip()) + 1
