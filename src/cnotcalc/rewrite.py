"""Rewrite rules and a local rewrite engine.

The identities of ``identities``, the axioms CNT1..CNT9 (the two-sided CNT4
and CNT7 each contribute two rules) and the derived-identity fixtures,
become rules here: each table is built on first use, and each rule is
machine-checked for semantic equality when it loads.

``apply_at`` replaces one contiguous gate segment matching a rule's source
side, under a consistent injective re-indexing of the wires it touches.
Matching is performed on persistent wire identities, so insertions and
deletions inside the segment do not confuse the bookkeeping; a swap network
re-establishes the original wire layout after the replacement.  Each
rewrite is a splice: it checks that the gates it emits denote the relation
of the segment they replace, and nothing else of the circuit, which it
keeps as it was.  The engine demonstrates derivations (``derivation``
replays them); it does not search modulo monoidal interchange and claims
no normal forms - the ``equal`` command is the decision procedure.  The
checks of the whole corpus that ``verify_all`` runs live in ``lawsuites``,
which only ``verify`` loads.
"""

from __future__ import annotations

from operator import attrgetter

from .circuit import Circuit, swap_network
from .gates import (
    CNOT, INIT1, POST1, SWAP, CircuitError, Gate, cnot, init1, post1, swap, width_after,
)
from .identities import _axiom_circuits, _lemma_circuits
from .record import Record

_delta = attrgetter("delta")


class RewriteRule(Record):
    __slots__ = ("name", "lhs", "rhs")

    def __init__(self, name: str, lhs: Circuit, rhs: Circuit):
        self._init(name, lhs, rhs)


class RuleLoadError(ValueError):
    pass


def _check(name: str, lhs: Circuit, rhs: Circuit) -> RewriteRule:
    if (lhs.n_in, lhs.n_out) != (rhs.n_in, rhs.n_out):
        raise RuleLoadError(f"rule {name}: sides have different arities")
    if lhs.semantics() != rhs.semantics():
        raise RuleLoadError(f"rule {name}: sides are not semantically equal")
    return RewriteRule(name, lhs, rhs)


# The rule tables, each built on first use, and the checked rules.
_Table = dict[str, tuple[Circuit, Circuit]]
_AXIOMS: Optional[_Table] = None
_LEMMAS: Optional[_Table] = None
_RULE_CACHE: dict[str, RewriteRule] = {}


def _axiom_table() -> _Table:
    global _AXIOMS
    if _AXIOMS is None:
        _AXIOMS = _axiom_circuits()
    return _AXIOMS


def _lemma_table() -> _Table:
    global _LEMMAS
    if _LEMMAS is None:
        _LEMMAS = _lemma_circuits()
    return _LEMMAS


def _rule(key: str, name: str, table: _Table, kind: str) -> RewriteRule:
    """The checked rule ``name`` of ``table``, cached under ``key``."""
    if name not in table:
        raise RuleLoadError(f"unknown {kind} {name!r}; valid: {sorted(table)}")
    if key not in _RULE_CACHE:
        _RULE_CACHE[key] = _check(name, *table[name])
    return _RULE_CACHE[key]


def axiom(name: str) -> RewriteRule:
    """One of the eleven defining identities (CNT4/CNT7 come in two forms)."""
    return _rule(name, name, _axiom_table(), "axiom")


def lemma_fixture(name: str) -> RewriteRule:
    """A derived identity from the fixture corpus."""
    return _rule("lemma:" + name, name, _lemma_table(), "lemma fixture")


def axiom_names() -> list[str]:
    return sorted(_axiom_table())


def lemma_names() -> list[str]:
    return sorted(_lemma_table())


def all_rules() -> list[RewriteRule]:
    return [axiom(n) for n in axiom_names()] + [lemma_fixture(n) for n in lemma_names()]


def find_rule(name: str) -> RewriteRule:
    """The axiom or lemma fixture of that name."""
    if name in _axiom_table():
        return axiom(name)
    if name in _lemma_table():
        return lemma_fixture(name)
    raise RuleLoadError(
        f"unknown rule {name!r}; axioms: {axiom_names()}; lemmas: {lemma_names()}"
    )


# -- rule application ---------------------------------------------------------


def _replay_ids(gates, width: int):
    """Replay gates from ``width`` wires over persistent wire ids, the wires
    numbered by position and each inserted wire by the next free id.

    Returns (events, final_layout).  Events mirror the gates with positions
    resolved to ids; init events carry their fresh id.
    """
    layout = list(range(width))
    fresh = width
    events = []
    for g in gates:
        k, a, b = g.kind, g.a, g.b
        if k == CNOT or k == SWAP:
            i, j = layout[a], layout[b]
            events.append((k, i, j))
            if k == SWAP:
                layout[a], layout[b] = j, i
        elif k == INIT1:
            events.append((INIT1, fresh))
            layout.insert(a, fresh)
            fresh += 1
        else:
            events.append((POST1, layout.pop(a)))
    return events, layout


def _match(rule_events, circ_events) -> Optional[dict]:
    """Injective rule-id -> circuit-id map making the event lists equal; it
    binds every id the circuit's events name."""
    phi: dict[int, int] = {}
    for re, ce in zip(rule_events, circ_events):
        if re[0] != ce[0]:
            return None
        for r, c in zip(re[1:], ce[1:]):
            if phi.setdefault(r, c) != c:
                return None
    return phi if len(set(phi.values())) == len(phi) else None


def apply_at(
    c: Circuit, rule: RewriteRule, offset: int, direction: str = "lr"
) -> Optional[Circuit]:
    """Rewrite the segment of ``c`` at ``offset`` along ``rule``; None if the
    segment does not match the source side.  The result is always
    semantically equal to ``c``, by a check: the semantics is a functor, so
    the step is sound when the emitted gates, swaps included, denote the
    relation of the segment on the ``w0`` wires at the offset.  Only those
    gates are checked, and a failed check raises ``RuntimeError``."""
    if direction not in ("lr", "rl"):
        raise ValueError(f"direction must be 'lr' or 'rl', got {direction!r}")
    src, dst = (rule.lhs, rule.rhs) if direction == "lr" else (rule.rhs, rule.lhs)
    k = len(src.gates)
    if offset < 0 or offset + k > len(c.gates):
        return None

    prefix = c.gates[:offset]
    segment = c.gates[offset : offset + k]
    w0 = c.n_in + sum(map(_delta, prefix))

    circ_events, circ_final = _replay_ids(segment, w0)
    src_events, src_final = _replay_ids(src.gates, src.n_in)
    dst_events, dst_final = _replay_ids(dst.gates, dst.n_in)

    phi = _match(src_events, circ_events)
    if phi is None:
        return None

    # Pass-through rule inputs never occur in the matched events; pin them to
    # circuit wires that the segment does not touch, so the emitted side can
    # reference them.
    touched = set(phi.values())
    spare = [w for w in range(w0) if w not in touched]
    for rid in range(src.n_in):
        if rid not in phi:
            if not spare:
                return None
            phi[rid] = spare.pop(0)

    # Emit the replacement side, inserting fresh wires at the top; positions
    # are recovered from the evolving layout.
    layout = list(range(w0))
    fresh = w0 + k + 1  # beyond any id the segment replay may have created
    emitted: list[Gate] = []
    phi_dst = dict(phi)
    for ev in dst_events:
        kind = ev[0]
        if kind == INIT1:
            phi_dst[ev[1]] = fresh
            emitted.append(init1(len(layout)))
            layout.append(fresh)
            fresh += 1
        elif kind == POST1:
            p = layout.index(phi_dst[ev[1]])
            emitted.append(post1(p))
            del layout[p]
        else:
            i = layout.index(phi_dst[ev[1]])
            j = layout.index(phi_dst[ev[2]])
            emitted.append(cnot(i, j) if kind == CNOT else swap(i, j))
            if kind == SWAP:
                layout[i], layout[j] = layout[j], layout[i]

    # The surviving wires must land exactly where the original segment left
    # them, with the emitted side's outputs standing in for the source side's
    # position by position.
    want = list(circ_final)
    for src_id, dst_id in zip(src_final, dst_final):
        want[circ_final.index(phi[src_id])] = phi_dst[dst_id]
    emitted += swap_network(layout, want)
    if not _same_relation(w0, len(circ_final), segment, emitted):
        raise RuntimeError(f"rule {rule.name} at offset {offset} ({direction}) changed the relation")
    # the prefix and the suffix are unchanged, so the whole is legal
    return Circuit._spliced(c.n_in, prefix + tuple(emitted) + c.gates[offset + k :], c.n_out)


def _same_relation(w0: int, w1: int, segment, emitted) -> bool:
    """Whether ``emitted``, run from ``w0`` wires, is legal, ends at ``w1``
    and denotes the relation of ``segment``: equal runs of the two first,
    their output expressions and their domain rows but the rows ``0 = 0``
    that a ``post1`` of a constant 1 adds, and their canonical forms only
    when the runs differ."""
    from . import symbolic

    try:
        if width_after(emitted, w0) != w1:
            return False
    except CircuitError:
        return False
    runs = []
    for gates in (segment, emitted):
        wires, domain = [1 << j for j in range(w0)], []
        ok = symbolic.run(wires, gates, 1 << w0, domain)
        runs.append((ok, wires, [row for row in domain if row]))
    if runs[0] == runs[1]:
        return True
    return symbolic.relation_of(w0, segment, w1) == symbolic.relation_of(w0, emitted, w1)


# -- verification --------------------------------------------------------------


def verify_all() -> list:
    """Semantic and exhaustive state-map checks over the whole corpus, by
    ``lawsuites.verify_rules``: only ``verify`` loads them, not ``replay``."""
    from .lawsuites import verify_rules

    return verify_rules(all_rules())
