"""Circuits: gate lists with fixed arities, their affine relational
semantics, and the maps the paper derives from the generators.

A circuit ``n_in -> n_out`` is an ordered list of the generators of
``gates``.  ``Circuit`` takes an ``int`` input arity, checks the widths along
the whole trace when it is built and raises ``CircuitError`` at the first
gate out of range, so every ``Circuit`` is a morphism ``n_in -> n_out``.
Only code that has checked the gates itself builds one without that check,
through the private ``Circuit._spliced``: ``rewrite.apply_at`` and
``derivation._circuits`` on checked splices, and the circuit reader, which
checks each gate as it reads it.

``semantics`` maps a circuit to its :class:`AffineRelation` by symbolic
execution: every wire carries an affine expression in the inputs and each
post-selection contributes one domain constraint.  Canonical relations make
``equal_circ`` a decision procedure for circuit equality.

The derived maps are built in closed form: the copy map ``fanout`` and its
converse ``fanin``, the degenerate circuits ``omega`` and ``omega_nm``, the
parity accumulator ``plus_map``, the basis-state preparations ``hat``,
literals and parity clauses, and the latchability test.  The generators
are bound here too, as ``from cnotcalc.circuit import cnot`` reads them.
"""

from __future__ import annotations

import sys

from .gates import (  # noqa: F401  (GATES and notg: the generators, bound here too)
    CNOT,
    GATES,
    INIT1,
    POST1,
    SWAP,
    CircuitError,
    Gate,
    cnot,
    init0,
    init1,
    notg,
    post0,
    post1,
    swap,
    width_after,
)
from .gf2 import BitVec
from .record import Record
from .relation import AffineRelation, ArityError


class Circuit(Record):
    """An immutable gate list, legal at every step, with fixed input arity."""

    __slots__ = ("n_in", "gates", "n_out")

    def __init__(self, n_in: int, gates: Iterable[Gate] = ()):
        if type(n_in) is not int:
            raise CircuitError(f"input arity must be an int, got {n_in!r}")
        if n_in < 0:
            raise CircuitError("negative input arity")
        gates = tuple(gates)
        self._init(n_in, gates, width_after(gates, n_in))

    @classmethod
    def _spliced(cls, n_in: int, gates: tuple, n_out: int) -> "Circuit":
        """The circuit of ``gates``, a tuple already known to be legal from
        ``n_in`` and to end at ``n_out``, built without checking its widths
        again."""
        c = object.__new__(cls)
        c._init(n_in, gates, n_out)
        return c

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
        return Circuit(
            self.n_in + other.n_in, self.gates + tuple(g.shifted(self.n_out) for g in other.gates)
        )

    def dagger(self) -> "Circuit":
        """Horizontal flip: reverse the gate list, trading init1 and post1."""
        return Circuit(self.n_out, [
            post1(g.a) if g.kind == INIT1 else init1(g.a) if g.kind == POST1 else g
            for g in reversed(self.gates)
        ])

    # -- evaluation ----------------------------------------------------------

    def eval_all(self, columns: Sequence[int], lanes: int) -> tuple[list[int], int]:
        """Run the circuit on ``lanes`` inputs at once, bit-sliced: bit k of
        ``columns[i]`` is wire i of input k.  Returns the output columns,
        0 outside ``defined``, and ``defined``, the lanes that pass every
        ``post1``.  The one evaluation loop, kept apart from ``symbolic.run``
        on purpose: ``fuzzing.oracle_trial`` checks one against the other."""
        wires = list(columns)
        if len(wires) != self.n_in:
            raise ArityError(f"input of length {len(wires)} for arity {self.n_in}")
        ones = defined = (1 << lanes) - 1
        for g in self.gates:
            k, i = g.kind, g.a
            if k == CNOT:
                wires[g.b] ^= wires[i]
            elif k == SWAP:
                j = g.b
                wires[i], wires[j] = wires[j], wires[i]
            elif k == INIT1:
                wires.insert(i, ones)
            else:
                defined &= wires.pop(i)
        return [w & defined for w in wires], defined

    def eval_state(self, x: BitVec | Sequence[int]) -> Optional[BitVec]:
        """Run the circuit on one basis state, ``eval_all`` at one lane; None
        when a post-selection fails."""
        out, defined = self.eval_all(list(BitVec(x)), 1)
        return BitVec(out) if defined else None

    def semantics(self) -> AffineRelation:
        """The affine partial isomorphism computed by the circuit:
        ``symbolic.relation_of`` of its gates, run by ``symbolic.run``, the
        loop that ``semantics_reader.parse_semantics`` runs on the lines of
        a file that it does not run itself.

        A ``post1`` on a wire that holds the constant 0 makes the relation
        empty whatever follows: the gates are legal and end at width
        ``n_out``, so the loop stops there and the relation is
        ``AffineRelation.empty``.

        ``symbolic`` is imported here, not with this module, so that
        ``--help``, ``eval`` and ``construct`` do not compile it.  The import
        costs about 0.7 us a call; importing the name would cost twice that.
        """
        from . import symbolic

        return symbolic.relation_of(self.n_in, self.gates, self.n_out)


def circuit(n_in: int, *items) -> Circuit:
    """Build a circuit from gates and nested gate sequences (macros)."""
    return Circuit(n_in, _gates_of(items))


def _gates_of(items: Iterable) -> Iterator[Gate]:
    for item in items:
        if isinstance(item, Gate):
            yield item
        else:
            yield from _gates_of(item)


def identity_circuit(n: int) -> Circuit:
    return Circuit(n)


def equal_circ(c: Circuit, d: Circuit) -> bool:
    """Decide derivability-equality via the canonical semantics."""
    if c.n_in != d.n_in or c.n_out != d.n_out:
        raise ArityError("equality requires equal arities")
    return c.semantics() == d.semantics()


def swap_network(layout: Sequence, target: Sequence) -> list[Gate]:
    """The swaps that rearrange ``layout`` into ``target``, a reordering of
    its entries: for each position in turn, the swap that brings the entry
    it wants into place, if it is not there already."""
    layout = list(layout)
    gates = []
    for pos, want in enumerate(target):
        if layout[pos] != want:
            src = layout.index(want)
            gates.append(swap(pos, src))
            layout[pos], layout[src] = want, layout[pos]
    return gates


def permutation_circuit(perm: Sequence[int]) -> Circuit:
    """A swap network sending input wire perm[i] to output position i."""
    n = len(perm)
    if sorted(perm) != list(range(n)):
        raise CircuitError(f"{perm!r} is not a permutation")
    return Circuit(n, swap_network(range(n), perm))


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
    return circuit(0, [init1(i) if b else init0(i) for i, b in enumerate(BitVec(bits))])


def literal(i: int, n: int) -> Circuit:
    """On n+1 wires: xor data wire i (1-based, clause wire at 0) onto wire 0.

    The single gate ``cnot i 0``; an involution.
    """
    if not 1 <= i <= n:
        raise ArityError(f"literal index {i} out of range for {n} data wires")
    return Circuit(n + 1, (cnot(i, 0),))


def wire_set(wires: Iterable[int]) -> set[int]:
    """The set of ``wires``; ``ArityError`` for the first one that occurs
    twice.  Over GF(2) a repeated wire cancels (x + x = 0), so a parity as
    written is not the one over the set of its wires."""
    seen: set[int] = set()
    for w in wires:
        if w in seen:
            raise ArityError(f"repeated wire {w}")
        seen.add(w)
    return seen


def clause_circuit(support: Iterable[int], rhs: int, n: int) -> Circuit:
    """Restriction of the identity on n wires to sum(x_i for i in support) = rhs.

    A |0> clause wire collects the parity through one literal per support
    wire, in increasing order, and is consumed by the ancilla matching rhs:
    ``|support| + 5`` gates for rhs 1 and ``|support| + 8`` for rhs 0.  A
    support wire given twice raises ``ArityError``, as ``wire_set`` does.
    """
    support = sorted(wire_set(support))
    if support and not (0 <= support[0] and support[-1] < n):
        raise ArityError(f"support {support} out of range for {n} wires")
    if rhs not in (0, 1):
        raise ArityError("rhs must be a bit")
    return circuit(
        n, init0(0), [literal(i + 1, n).gates for i in support], post1(0) if rhs else post0(0)
    )


def is_latchable(c: Circuit) -> bool:
    """Whether c equals the copy-conjugate fanout (c x id) fanin."""
    n = c.n_in
    if c.n_out != n:
        raise ArityError("latchability is defined for endo-circuits")
    latched = fanout(n).compose(c.tensor(identity_circuit(n))).compose(fanin(n))
    return c.semantics() == latched.semantics()
