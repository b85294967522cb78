"""Typed CNOT+ancilla gate lists and their affine relational semantics.

A circuit ``n_in -> n_out`` is an ordered list of gates over four primitives:

* ``cnot c t``  - flip wire ``t`` when wire ``c`` is 1
* ``swap a b``  - exchange two wires
* ``init1 p``   - insert a fresh wire holding 1 at position ``p`` (width +1)
* ``post1 p``   - post-select wire ``p`` on 1 and delete it (width -1)

Wires are absolute indices into the current register, so the width changes
along the gate list.  Every ``Gate`` is legal at some width: building one
with two equal wires, a negative wire, a wire that is not an ``int`` (a
``bool`` included) or anything but the four primitives raises
``CircuitError``.  ``Circuit`` takes an ``int`` input arity, checks the
widths along the whole trace when it is built and raises ``CircuitError`` at
the first gate out of range, so every ``Circuit`` is a morphism ``n_in ->
n_out``.  The derived ``init0``/``post0``/``not`` gates expand to primitive
sequences eagerly; ``GATES`` lists every gate kind.

``semantics`` maps a circuit to its :class:`AffineRelation` by symbolic
execution: every wire carries an affine expression in the inputs and each
post-selection contributes one domain constraint.  Canonical relations make
``equal_circ`` a decision procedure for circuit equality.
"""

from __future__ import annotations

import sys
from typing import Iterable, Optional, Sequence

from .gf2 import BitVec
from .record import Record
from .relation import AffineRelation, ArityError

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


class _GateFields:
    """The storage of a :class:`Gate`, writable while the gate is built."""

    __slots__ = ("kind", "args", "need", "delta", "_line")


class Gate(_GateFields):
    """One gate: its kind and wire arguments, compared and hashed as the
    pair (kind, args).

    A gate is one of the four generators, legal at some width: the
    builders ``cnot``, ``swap``, ``init1`` and ``post1`` raise
    ``CircuitError`` for anything else, and ``Gate(kind, args)`` accepts
    only a primitive kind with a tuple of as many ints as it takes.
    ``need`` is the least register width at which the gate is legal and
    ``delta`` its change in width, so a gate list validates with one
    comparison and one addition per gate.  ``line``, the gate's line in the
    circuit file format, is built on first use and kept.
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

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.kind == other.kind and self.args == other.args

    def __hash__(self) -> int:
        return hash((self.kind, self.args))

    def __repr__(self) -> str:
        return f"{self.kind}({', '.join(map(str, self.args))})"

    def __reduce__(self):
        return Gate, (self.kind, self.args)

    @property
    def line(self) -> str:
        text = self._line
        if text is None:
            text = f"{self.kind} {' '.join(map(str, self.args))}"
            object.__setattr__(self, "_line", text)
        return text

    def shifted(self, offset: int) -> "Gate":
        return GATES[self.kind][0](*(a + offset for a in self.args))


_new = object.__new__


def _gate(kind: str, args: tuple, need: int, delta: int) -> Gate:
    # Fill a plain _GateFields, then make it a Gate: two to three times
    # cheaper than object.__setattr__ per field.
    g = _new(_GateFields)
    g.kind = kind
    g.args = args
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
    return _gate(CNOT, (control, target), (control if control > target else target) + 1, 0)


def swap(a: int, b: int) -> Gate:
    if type(a) is not int or type(b) is not int or a == b or a < 0 or b < 0:
        reason = "swap of a wire with itself" if a == b else "negative wire index"
        raise _illegal(SWAP, (a, b), reason)
    return _gate(SWAP, (a, b), (a if a > b else b) + 1, 0)


def init1(pos: int) -> Gate:
    if type(pos) is not int or pos < 0:
        raise _illegal(INIT1, (pos,), "negative wire index")
    return _gate(INIT1, (pos,), pos, 1)


def post1(pos: int) -> Gate:
    if type(pos) is not int or pos < 0:
        raise _illegal(POST1, (pos,), "negative wire index")
    return _gate(POST1, (pos,), pos + 1, -1)


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


def _flatten(items: Iterable) -> list[Gate]:
    out: list[Gate] = []
    for item in items:
        if isinstance(item, Gate):
            out.append(item)
        else:
            out.extend(_flatten(item))
    return out


class Circuit(Record):
    """An immutable gate list, legal at every step, with fixed input arity."""

    __slots__ = ("n_in", "gates", "n_out")

    def __init__(self, n_in: int, gates: Iterable[Gate] = ()):
        if type(n_in) is not int:
            raise CircuitError(f"input arity must be an int, got {n_in!r}")
        if n_in < 0:
            raise CircuitError("negative input arity")
        gates = tuple(gates)
        width = n_in
        for i, g in enumerate(gates):
            if g.need > width:
                where = "insertion index" if g.kind == INIT1 else "wire"
                raise CircuitError(
                    f"gate {i} {g}: {where} out of range at width {width}", i
                )
            width += g.delta
        self._init(n_in, gates, width)

    def __reduce__(self):
        # n_out is derived: rebuild through __init__
        return Circuit, (self.n_in, self.gates)

    def __repr__(self) -> str:
        return f"Circuit({self.n_in}->{self.n_out}, {list(self.gates)})"

    def __len__(self) -> int:
        return len(self.gates)

    # -- structural operations ----------------------------------------------

    def compose(self, other: "Circuit") -> "Circuit":
        if self.n_out != other.n_in:
            raise ArityError(
                f"cannot compose {self.n_in}->{self.n_out} with {other.n_in}->{other.n_out}"
            )
        return Circuit(self.n_in, self.gates + other.gates)

    def tensor(self, other: "Circuit") -> "Circuit":
        """self on the lower wires, other re-indexed above them."""
        shifted = tuple(g.shifted(self.n_out) for g in other.gates)
        return Circuit(self.n_in + other.n_in, self.gates + shifted)

    def dagger(self) -> "Circuit":
        """Horizontal flip: reverse the gate list, trading init1 and post1."""
        flipped = []
        for g in reversed(self.gates):
            if g.kind == INIT1:
                flipped.append(post1(g.args[0]))
            elif g.kind == POST1:
                flipped.append(init1(g.args[0]))
            else:
                flipped.append(g)
        return Circuit(self.n_out, flipped)

    # -- evaluation ----------------------------------------------------------

    def eval_state(self, x: BitVec | Sequence[int]) -> Optional[BitVec]:
        """Run the circuit on a basis state; None when a post-selection fails."""
        bits = list(x)
        if len(bits) != self.n_in:
            raise ArityError(f"input of length {len(bits)} for arity {self.n_in}")
        for g in self.gates:
            k, a = g.kind, g.args
            if k == CNOT:
                bits[a[1]] ^= bits[a[0]]
            elif k == SWAP:
                i, j = a
                bits[i], bits[j] = bits[j], bits[i]
            elif k == INIT1:
                bits.insert(a[0], 1)
            else:
                if bits[a[0]] != 1:
                    return None
                del bits[a[0]]
        return BitVec(bits)

    def semantics(self) -> AffineRelation:
        """The affine partial isomorphism computed by the circuit.

        A ``post1`` on a wire that holds the constant 0 adds the row
        ``0 = 1``, which makes the relation empty whatever follows: the
        gate loop stops there and returns ``AffineRelation.empty``.
        """
        n = self.n_in
        one = 1 << n  # constant-term bit of a wire expression
        wires = [1 << i for i in range(n)]
        domain: list[int] = []
        for g in self.gates:
            k, a = g.kind, g.args
            if k == CNOT:
                wires[a[1]] ^= wires[a[0]]
            elif k == SWAP:
                i, j = a
                wires[i], wires[j] = wires[j], wires[i]
            elif k == INIT1:
                wires.insert(a[0], one)
            else:
                e = wires.pop(a[0])
                if not e:
                    return AffineRelation.empty(n, self.n_out)
                domain.append(e ^ one)  # the row of e(x) = 1
        rel = AffineRelation.from_map(n, wires, domain)
        if not rel.is_partial_iso():
            raise RuntimeError("circuit semantics must be a partial isomorphism")
        return rel


def circuit(n_in: int, *items) -> Circuit:
    """Build a circuit from gates and nested gate sequences (macros)."""
    return Circuit(n_in, _flatten(items))


def identity_circuit(n: int) -> Circuit:
    return Circuit(n, ())


def equal_circ(c: Circuit, d: Circuit) -> bool:
    """Decide derivability-equality via the canonical semantics."""
    if c.n_in != d.n_in or c.n_out != d.n_out:
        raise ArityError("equality requires equal arities")
    return c.semantics() == d.semantics()


def permutation_circuit(perm: Sequence[int]) -> Circuit:
    """A swap network sending input wire perm[i] to output position i."""
    n = len(perm)
    if sorted(perm) != list(range(n)):
        raise CircuitError(f"{perm!r} is not a permutation")
    gates = []
    layout = list(range(n))  # layout[pos] = input wire currently at pos
    for pos in range(n):
        src = layout.index(perm[pos])
        if src != pos:
            gates.append(swap(pos, src))
            layout[pos], layout[src] = layout[src], layout[pos]
    return Circuit(n, gates)


# -- named constructions -----------------------------------------------------


def _arity(n: int) -> None:
    """Raise ``ArityError`` unless ``n`` is an arity that some gate list
    can have: not negative and at most ``sys.maxsize``."""
    if n < 0:
        raise ArityError("negative arity")
    if n > sys.maxsize:
        raise ArityError(f"arity too large ({len(str(n))} digits)")


def fanout(n: int) -> Circuit:
    """Copy map n -> 2n with outputs ordered (copy1 wires, copy2 wires).

    The copy map of the paper in closed form: n |0> ancillae inserted below
    the inputs, then one cnot from input i onto ancilla i; 5n primitive
    gates.  ``fanout(1)`` is the single-wire copy ``init0 0; cnot 1 0``.
    """
    _arity(n)
    return circuit(n, [init0(0)] * n, [cnot(n + i, i) for i in range(n)])


def fanin(n: int) -> Circuit:
    return fanout(n).dagger()


def omega() -> Circuit:
    """The degenerate 0 -> 0 circuit: nowhere defined."""
    return circuit(0, init1(0), init1(1), cnot(0, 1), post1(0), post1(0))


def omega_nm(n: int, m: int) -> Circuit:
    """The degenerate circuit n -> m."""
    _arity(n)
    _arity(m)
    return Circuit(n, [post1(0)] * n + list(omega().gates) + [init1(i) for i in range(m)])


def plus_map(n: int) -> Circuit:
    """The total 3n -> 3n map whose third block becomes a xor b xor c.

    In closed form: for each i, cnots from b_i and then a_i onto c_i;
    2n gates.  ``plus_map(1)`` is ``cnot 1 2; cnot 0 2``.
    """
    _arity(n)
    return circuit(3 * n, [(cnot(n + i, 2 * n + i), cnot(i, 2 * n + i)) for i in range(n)])


def hat(bits: BitVec | Sequence[int]) -> Circuit:
    """The total 0 -> n preparation of a basis state; ``ValueError`` for a
    bit other than 0 or 1."""
    gates: list = []
    for i, b in enumerate(BitVec(bits)):
        gates.append(init1(i) if b else init0(i))
    return circuit(0, *gates)


def literal(i: int, n: int) -> Circuit:
    """On n+1 wires: xor data wire i (1-based, clause wire at 0) onto wire 0.

    The single gate ``cnot i 0``; an involution.
    """
    if not 1 <= i <= n:
        raise ArityError(f"literal index {i} out of range for {n} data wires")
    return Circuit(n + 1, (cnot(i, 0),))


def clause_circuit(support: Iterable[int], rhs: int, n: int) -> Circuit:
    """Restriction of the identity on n wires to sum(x_i for i in support) = rhs.

    A |0> clause wire collects the parity through one literal per support
    wire, in increasing order, and is consumed by the ancilla matching rhs:
    ``|support| + 5`` gates for rhs 1 and ``|support| + 8`` for rhs 0.
    """
    support = sorted(set(support))
    if support and not (0 <= support[0] and support[-1] < n):
        raise ArityError(f"support {support} out of range for {n} wires")
    if rhs not in (0, 1):
        raise ArityError("rhs must be a bit")
    gates: list = [init0(0)]
    for i in support:
        gates.append(literal(i + 1, n).gates)
    gates.append(post1(0) if rhs else post0(0))
    return circuit(n, *gates)


def is_latchable(c: Circuit) -> bool:
    """Whether c equals the copy-conjugate fanout (c x id) fanin."""
    n = c.n_in
    if c.n_out != n:
        raise ArityError("latchability is defined for endo-circuits")
    latched = fanout(n).compose(c.tensor(identity_circuit(n))).compose(fanin(n))
    return c.semantics() == latched.semantics()
