"""Derivations: a start circuit and the rule applications that rewrite it,
replayed step by step.

``replay`` applies and checks every step before it hands back any circuit.
Of the circuits it keeps only the start circuit, the current one and each
step's splice: its offset, the length of the segment it replaced and the
gates ``rewrite.apply_at`` emitted there.  It then rebuilds the circuits
from those one at a time, as they are read, so a caller that prints each
before it takes the next holds at most two gate tuples.  Only the
``replay`` command loads this module; ``verify``, which loads ``rewrite``,
does not compile it.
"""

from __future__ import annotations

from .circuit import Circuit
from .record import Record
from .rewrite import RuleLoadError, apply_at, find_rule


class Derivation(Record):
    """A replayable proof: rule applications from a starting circuit."""

    __slots__ = ("start", "steps")

    def __init__(self, start: Circuit, steps: Iterable[tuple[str, int, str]]):
        """steps: (rule name, gate offset, "lr"|"rl") each, stored as tuples."""
        self._init(start, tuple(tuple(s) for s in steps))


def replay(d: Derivation) -> Iterator[Circuit]:
    """Every circuit of a derivation, the start first, rebuilt one at a time
    as they are read; every step has been applied and checked when this
    returns, and a failed step raises."""
    current, splices = d.start, []
    for i, (name, offset, direction) in enumerate(d.steps):
        try:
            rule = find_rule(name)
        except RuleLoadError as e:
            raise RuleLoadError(f"step {i}: {e}") from None
        nxt = apply_at(current, rule, offset, direction)
        if nxt is None:
            raise ValueError(
                f"step {i}: rule {name} does not match at offset {offset} ({direction})"
            )
        # the segment's k gates became the emitted ones; the gates after
        # them are the same
        k = len((rule.lhs if direction == "lr" else rule.rhs).gates)
        end = offset + k + len(nxt.gates) - len(current.gates)
        splices.append((offset, k, nxt.gates[offset:end]))
        current = nxt
    return _circuits(d.start, splices)


def _circuits(start: Circuit, splices: list) -> Iterator[Circuit]:
    """``start``, then the circuit of each splice in turn, each built from
    the one before."""
    current = start
    yield current
    for offset, k, emitted in splices:
        gates = current.gates
        current = Circuit._spliced(
            start.n_in, gates[:offset] + emitted + gates[offset + k :], start.n_out
        )
        yield current
