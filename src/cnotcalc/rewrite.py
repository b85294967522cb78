"""Rewrite rules and a local rewrite engine.

The identities of ``identities``, the axioms CNT1..CNT9 (the two-sided CNT4
and CNT7 each contribute two rules) and the derived-identity fixtures,
become rules here: each table is built on first use, and each rule is
machine-checked for semantic equality when it loads.

``apply_at`` replaces one contiguous gate segment matching a rule's source
side, under a consistent injective re-indexing of the wires it touches.
Matching is performed on persistent wire identities, so insertions and
deletions inside the segment do not confuse the bookkeeping; a swap network
re-establishes the original wire layout after the replacement.  The engine
demonstrates derivations; it does not search modulo monoidal interchange and
claims no normal forms - ``equal_circ`` is the decision procedure.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .circuit import Circuit, swap_network
from .gates import CNOT, INIT1, POST1, SWAP, Gate, cnot, init1, post1, swap
from .identities import _axiom_circuits, _lemma_circuits
from .record import Record
from .relation import all_columns


class RewriteRule(Record):
    __slots__ = ("name", "lhs", "rhs")

    def __init__(self, name: str, lhs: Circuit, rhs: Circuit):
        self._init(name, lhs, rhs)


class Derivation(Record):
    """A replayable proof: rule applications from a starting circuit."""

    __slots__ = ("start", "steps")

    def __init__(self, start: Circuit, steps: Iterable[tuple[str, int, str]]):
        """steps: (rule name, gate offset, "lr"|"rl") each, stored as tuples."""
        self._init(start, tuple(tuple(s) for s in steps))


class RuleLoadError(ValueError):
    pass


def _check(name: str, lhs: Circuit, rhs: Circuit) -> RewriteRule:
    if (lhs.n_in, lhs.n_out) != (rhs.n_in, rhs.n_out):
        raise RuleLoadError(f"rule {name}: sides have different arities")
    if lhs.semantics() != rhs.semantics():
        raise RuleLoadError(f"rule {name}: sides are not semantically equal")
    return RewriteRule(name, lhs, rhs)


# The rule tables, each built on first use, and the checked rules.
_AXIOMS: Optional[dict[str, tuple[Circuit, Circuit]]] = None
_LEMMAS: Optional[dict[str, tuple[Circuit, Circuit]]] = None
_RULE_CACHE: dict[str, RewriteRule] = {}


def _axiom_table() -> dict[str, tuple[Circuit, Circuit]]:
    global _AXIOMS
    if _AXIOMS is None:
        _AXIOMS = _axiom_circuits()
    return _AXIOMS


def _lemma_table() -> dict[str, tuple[Circuit, Circuit]]:
    global _LEMMAS
    if _LEMMAS is None:
        _LEMMAS = _lemma_circuits()
    return _LEMMAS


def axiom(name: str) -> RewriteRule:
    """One of the eleven defining identities (CNT4/CNT7 come in two forms)."""
    table = _axiom_table()
    if name not in table:
        raise RuleLoadError(f"unknown axiom {name!r}; valid: {sorted(table)}")
    if name not in _RULE_CACHE:
        _RULE_CACHE[name] = _check(name, *table[name])
    return _RULE_CACHE[name]


def lemma_fixture(name: str) -> RewriteRule:
    """A derived identity from the fixture corpus."""
    table = _lemma_table()
    if name not in table:
        raise RuleLoadError(f"unknown lemma fixture {name!r}; valid: {sorted(table)}")
    key = "lemma:" + name
    if key not in _RULE_CACHE:
        _RULE_CACHE[key] = _check(name, *table[name])
    return _RULE_CACHE[key]


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


def _replay_ids(gates, start_width: int, first_fresh: int):
    """Replay gates over persistent wire ids.

    Returns (events, final_layout, touched_ids).  Events mirror the gates
    with positions resolved to ids; init events carry their fresh id.
    """
    layout = list(range(start_width))
    fresh = first_fresh
    events = []
    touched = set()
    for g in gates:
        k, a, b = g.kind, g.a, g.b
        if k == CNOT or k == SWAP:
            i, j = layout[a], layout[b]
            events.append((k, i, j))
            touched.update((i, j))
            if k == SWAP:
                layout[a], layout[b] = j, i
        elif k == INIT1:
            events.append((INIT1, fresh))
            touched.add(fresh)
            layout.insert(a, fresh)
            fresh += 1
        else:
            wire = layout.pop(a)
            events.append((POST1, wire))
            touched.add(wire)
    return events, layout, touched


def _match(rule_events, circ_events) -> Optional[dict]:
    """Injective rule-id -> circuit-id map making the event lists equal."""
    phi: dict[int, int] = {}
    used: set[int] = set()

    def bind(rid, cid) -> bool:
        if rid in phi:
            return phi[rid] == cid
        if cid in used:
            return False
        phi[rid] = cid
        used.add(cid)
        return True

    for re, ce in zip(rule_events, circ_events):
        if re[0] != ce[0]:
            return None
        if not all(bind(r, c) for r, c in zip(re[1:], ce[1:])):
            return None
    return phi


def apply_at(
    c: Circuit, rule: RewriteRule, offset: int, direction: str = "lr"
) -> Optional[Circuit]:
    """Rewrite the segment of ``c`` at ``offset`` along ``rule``; None if the
    segment does not match the source side.  The result is always
    semantically equal to ``c``."""
    if direction not in ("lr", "rl"):
        raise ValueError(f"direction must be 'lr' or 'rl', got {direction!r}")
    src, dst = (rule.lhs, rule.rhs) if direction == "lr" else (rule.rhs, rule.lhs)
    k = len(src.gates)
    if offset < 0 or offset + k > len(c.gates):
        return None

    prefix = c.gates[:offset]
    segment = c.gates[offset : offset + k]
    suffix = c.gates[offset + k :]
    w0 = c.n_in + sum(g.delta for g in prefix)

    circ_events, circ_final, touched = _replay_ids(segment, w0, first_fresh=w0)
    src_events, src_final, _ = _replay_ids(src.gates, src.n_in, first_fresh=src.n_in)
    dst_events, dst_final, _ = _replay_ids(dst.gates, dst.n_in, first_fresh=dst.n_in)

    phi = _match(src_events, circ_events)
    if phi is None:
        return None

    # Pass-through rule inputs never occur in the matched events; pin them to
    # untouched circuit wires so the emitted side can reference them.
    bound = set(phi.values())
    spare = [w for w in range(w0) if w not in touched and w not in bound]
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
    for q in range(len(src_final)):
        idx = circ_final.index(phi[src_final[q]])
        want[idx] = phi_dst[dst_final[q]]
    emitted += swap_network(layout, want)
    return Circuit(c.n_in, prefix + tuple(emitted) + suffix)


def replay(d: Derivation) -> list[Circuit]:
    """All intermediate circuits of a derivation; raises on a failed step."""
    out = [d.start]
    current = d.start
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
        out.append(nxt)
        current = nxt
    return out


# -- verification --------------------------------------------------------------


class RuleReport(Record):
    __slots__ = ("name", "semantic_ok", "state_map_ok")

    def __init__(self, name: str, semantic_ok: bool, state_map_ok: bool):
        self._init(name, semantic_ok, state_map_ok)

    @property
    def ok(self) -> bool:
        return self.semantic_ok and self.state_map_ok


def verify_rules(rules) -> list[RuleReport]:
    reports = []
    for rule in rules:
        sem = rule.lhs.semantics() == rule.rhs.semantics()
        columns, lanes = all_columns(rule.lhs.n_in), 1 << rule.lhs.n_in
        states = rule.lhs.eval_all(columns, lanes) == rule.rhs.eval_all(columns, lanes)
        reports.append(RuleReport(rule.name, sem, states))
    return reports


def verify_all() -> list[RuleReport]:
    """Semantic and exhaustive state-map checks over the whole corpus."""
    return verify_rules(all_rules())
