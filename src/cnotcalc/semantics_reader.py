"""The reader of a circuit file's relation: ``parse_semantics`` turns each
window's gate lines into gates and runs them through
``symbolic.relation_of`` before it reads the next window, so it holds no
gate list and no memo of lines.  A primitive line whose wire numbers it
has met before gives a ``_Step``, which holds the kind and wires that
``relation_of`` reads and nothing else.  It reads the header and the lines
as ``formats.parse_circuit`` does, and only ``equal`` and ``semantics``
load it.
"""

from __future__ import annotations

from .formats import (
    _ONE_WIRE,
    _TWO_WIRES,
    _build,
    _check_outputs,
    _line_of_gate,
    _read_header,
    _window_gates,
)
from .gates import CircuitError
from .lexing import FormatError
from .relation import AffineRelation
from .symbolic import relation_of


def parse_semantics(source) -> tuple[str, AffineRelation]:
    """(name, relation) of a circuit file: ``parse_circuit`` then
    ``Circuit.semantics``, errors and their order included, without a gate
    list.  A width error waits for the rest of the file, since a bad line
    or a missing ``end`` comes first; the header's ``n_out`` comes last.
    """
    name, n_in, n_out, lineno, windows = _read_header(source)
    window: list = []  # the first line, bodies and first gate of the window run
    runs = _runs(windows, window)
    try:
        rel = relation_of(n_in, runs)
    except CircuitError as e:
        at, part, base = window
        others: list[int] = []  # what parse_circuit notes of the window's lines
        _window_gates(part, at, {"": ()}, {}, others)
        line = _line_of_gate(at, others, e.index - base)
        for _ in runs:  # a bad line or a missing 'end' after it comes first
            pass
        raise FormatError(str(e), line) from None
    _check_outputs(n_in, n_out, rel.n_out, lineno)
    return name, rel


class _Step:
    """A primitive line's gate as ``relation_of`` reads it, its kind and
    wires, in an object that a reader fills again window after window."""

    __slots__ = ("kind", "a", "b")


def _runs(windows, window: list):
    """The gates of each window of gate lines in turn; while they are run,
    ``window`` holds their first line, the bodies and the index of their
    first gate.  A primitive line whose wire numbers are all in ``wires``,
    two of them apart, fills a ``_Step`` of ``pool``, one for each line
    that is not blank; any other line gives what ``_build`` builds."""
    wires: dict[str, int] = {}
    pool: list[_Step] = []
    base = 0
    for at, part in windows:
        filled = len(part) - part.count("")
        if len(pool) < filled:
            pool += [_Step() for _ in range(filled - len(pool))]
        steps: list = []
        add = steps.append
        for s, body in zip(pool, filter(None, part)):
            tokens = body.split()
            try:
                if len(tokens) == 3:
                    kind, a, b = tokens
                    if kind in _TWO_WIRES and a != b:
                        s.kind, s.a, s.b = kind, wires[a], wires[b]
                        add(s)
                        continue
                else:
                    kind, a = tokens
                    if kind in _ONE_WIRE:
                        s.kind, s.a, s.b = kind, wires[a], None
                        add(s)
                        continue
            except (KeyError, ValueError):  # a number not yet in wires, or neither 2 nor 3 tokens
                pass
            built = _build(body, part, at, wires)
            steps += built if type(built) is tuple else (built,)  # a macro's gates
        window[:] = at, part, base
        yield steps
        base += len(steps)
        del part, steps
        window.clear()
