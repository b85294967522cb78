"""The text layer under every file format: lines taken a window at a time,
comments, integers, and ``FormatError``, which places a fault by line and
column.

All formats are UTF-8, one item per line.  A comment runs from ``#`` to the
end of its line, and lines end where ``str.splitlines`` splits them: at line
feeds, carriage returns, form feeds, U+2028 and the like.  Every reader
takes a file's text or the file open for reading, and takes its lines one
window at a time from ``_bodies`` as the file is read.
"""

from __future__ import annotations

import re


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
        if "#" in window:
            # A comment becomes a space, not nothing: deleting the one in
            # "\r#c\n" would join two line breaks into one "\r\n".
            window = re.sub(_COMMENT, " ", window)
        bodies = list(map(str.strip, window.splitlines()))
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
