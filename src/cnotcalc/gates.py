"""The generators of CNOT: the four primitive gates, and the derived gates
written in them.

A gate is one of four primitives:

* ``cnot c t``  - flip wire ``t`` when wire ``c`` is 1
* ``swap a b``  - exchange two wires
* ``init1 p``   - insert a fresh wire holding 1 at position ``p`` (width +1)
* ``post1 p``   - post-select wire ``p`` on 1 and delete it (width -1)

Wires are absolute indices into the current register, so the width changes
along a gate list.  Every ``Gate`` is legal at some width: building one
with two equal wires, a negative wire, a wire that is not an ``int`` (a
``bool`` included) or anything but the four primitives raises
``CircuitError``.  The derived ``init0``/``post0``/``not`` gates expand to
primitive sequences eagerly; ``GATES`` lists every gate kind.
"""

from __future__ import annotations

from .record import Record

CNOT = "cnot"
SWAP = "swap"
INIT1 = "init1"
POST1 = "post1"


class CircuitError(ValueError):
    """An illegal circuit; ``index`` is the position of the first illegal
    gate when a gate is to blame."""

    def __init__(self, message: str, index: Optional[int] = None):
        super().__init__(message)
        self.index = index


def width_after(gates, width: int, base: int = 0) -> int:
    """The register width after ``gates``, run from ``width``; the
    ``CircuitError`` of the first gate out of range, if any, which numbers
    the first of ``gates`` ``base``."""
    for i, g in enumerate(gates, base):
        if g.need > width:
            where = "insertion index" if g.kind == INIT1 else "wire"
            raise CircuitError(f"gate {i} {g}: {where} out of range at width {width}", i)
        width += g.delta
    return width


class _GateFields:
    """The storage of a :class:`Gate`, writable while the gate is built."""

    __slots__ = ("kind", "a", "b", "need", "delta", "_line")


class Gate(_GateFields, Record, fields=("kind", "args")):
    """One gate: its kind and wire arguments, compared and hashed as the
    pair (kind, args).

    A gate is one of the four generators, legal at some width: the
    builders ``cnot``, ``swap``, ``init1`` and ``post1`` raise
    ``CircuitError`` for anything else, and ``Gate(kind, args)`` accepts
    only a primitive kind with a tuple of as many ints as it takes.  The
    wires sit in two slots, ``a`` and ``b`` (``b`` is None for ``init1``
    and ``post1``), so a gate is one object of 80 bytes; ``args`` builds
    their tuple when asked.  ``need`` is the least register width at which
    the gate is legal and ``delta`` its change in width, so a gate list
    validates with one comparison and one addition per gate.  ``line``, the
    gate's line in the circuit file format, is built on first use and kept.
    """

    __slots__ = ()

    def __new__(cls, kind: str, args: tuple[int, ...]) -> "Gate":
        if (
            kind in _PRIMITIVES
            and type(args) is tuple
            and len(args) == GATES[kind][1]
            and all(type(a) is int for a in args)
        ):
            return GATES[kind][0](*args)
        raise CircuitError(f"no gate {kind!r} with arguments {args!r}")

    @property
    def args(self) -> tuple[int, ...]:
        return (self.a,) if self.b is None else (self.a, self.b)

    def __repr__(self) -> str:
        return f"{self.kind}({', '.join(map(str, self.args))})"

    @property
    def line(self) -> str:
        text = self._line
        if text is None:
            if self.b is None:
                text = f"{self.kind} {self.a}"
            else:
                text = f"{self.kind} {self.a} {self.b}"
            object.__setattr__(self, "_line", text)
        return text

    def shifted(self, offset: int) -> "Gate":
        if self.b is None:
            return GATES[self.kind][0](self.a + offset)
        return GATES[self.kind][0](self.a + offset, self.b + offset)


_new = object.__new__


def _gate(kind: str, a: int, b: Optional[int], need: int, delta: int) -> Gate:
    # Fill a plain _GateFields, then make it a Gate: two to three times
    # cheaper than object.__setattr__ per field.
    g = _new(_GateFields)
    g.kind = kind
    g.a = a
    g.b = b
    g.need = need
    g.delta = delta
    g._line = None
    g.__class__ = Gate
    return g


def _illegal(kind: str, args: tuple, reason: str) -> CircuitError:
    """The error of a builder given ``args``: a wire that is not an ``int``
    (a bool or a float would print as a gate line that no parser reads
    back), else ``reason``."""
    if not all(type(a) is int for a in args):
        reason = "wire indices must be ints"
    return CircuitError(f"{kind}({', '.join(map(repr, args))}): {reason}")


def cnot(control: int, target: int) -> Gate:
    if (type(control) is not int or type(target) is not int
            or control == target or control < 0 or target < 0):
        reason = "control equals target" if control == target else "negative wire index"
        raise _illegal(CNOT, (control, target), reason)
    return _gate(CNOT, control, target, (control if control > target else target) + 1, 0)


def swap(a: int, b: int) -> Gate:
    if type(a) is not int or type(b) is not int or a == b or a < 0 or b < 0:
        reason = "swap of a wire with itself" if a == b else "negative wire index"
        raise _illegal(SWAP, (a, b), reason)
    return _gate(SWAP, a, b, (a if a > b else b) + 1, 0)


def init1(pos: int) -> Gate:
    if type(pos) is not int or pos < 0:
        raise _illegal(INIT1, (pos,), "negative wire index")
    return _gate(INIT1, pos, None, pos, 1)


def post1(pos: int) -> Gate:
    if type(pos) is not int or pos < 0:
        raise _illegal(POST1, (pos,), "negative wire index")
    return _gate(POST1, pos, None, pos + 1, -1)


def init0(pos: int) -> tuple[Gate, ...]:
    """|0>: two |1> wires, a cnot onto the lower one, discard the control."""
    return (init1(pos), init1(pos), cnot(pos, pos + 1), post1(pos))


def post0(pos: int) -> tuple[Gate, ...]:
    """<0|: flip with a |1> ancilla, then post-select the flipped wire on 1."""
    return (init1(pos), cnot(pos, pos + 1), post1(pos), post1(pos))


def notg(pos: int) -> tuple[Gate, ...]:
    """not: cnot from a consumed |1> ancilla."""
    return (init1(pos), cnot(pos, pos + 1), post1(pos))


# kind -> (builder, number of arguments, change in width), for every gate
# kind of the file format and of random circuits; the macros' builders
# return tuples of primitive gates.
GATES = {
    "cnot": (cnot, 2, 0),
    "swap": (swap, 2, 0),
    "not": (notg, 1, 0),
    "init1": (init1, 1, 1),
    "init0": (init0, 1, 1),
    "post1": (post1, 1, -1),
    "post0": (post0, 1, -1),
}
_PRIMITIVES = (CNOT, SWAP, INIT1, POST1)
