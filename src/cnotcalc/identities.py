"""The identities of CNOT as pairs of circuits: the paper's axioms
CNT1..CNT9 (the two-sided CNT4 and CNT7 each give two pairs) and a corpus
of derived identities.

Each table is built when it is called; ``rewrite`` builds each one once,
on first use, and checks every pair for semantic equality as it loads it.
"""

from __future__ import annotations

from .circuit import (
    Circuit,
    circuit,
    clause_circuit,
    fanin,
    fanout,
    identity_circuit,
    omega,
    omega_nm,
)
from .gates import cnot, init0, init1, notg, post0, post1, swap


def _axiom_circuits() -> dict[str, tuple[Circuit, Circuit]]:
    cnt7a_lhs = circuit(1, init1(0), init1(1), cnot(0, 1), cnot(1, 2), post1(0))
    cnt7a_rhs = circuit(1, init1(0), init1(1), cnot(0, 1), post1(0))
    return {
        # three alternating cnots make a swap
        "CNT1": (
            circuit(2, cnot(0, 1), cnot(1, 0), cnot(0, 1)),
            circuit(2, swap(0, 1)),
        ),
        # cnot is an involution
        "CNT2": (circuit(2, cnot(0, 1), cnot(0, 1)), identity_circuit(2)),
        # cnots sharing the control wire commute
        "CNT3": (
            circuit(3, cnot(1, 0), cnot(1, 2)),
            circuit(3, cnot(1, 2), cnot(1, 0)),
        ),
        # a |1> control stays 1, so it may be cut after the gate
        "CNT4a": (
            circuit(1, init1(0), cnot(0, 1)),
            circuit(1, init1(0), cnot(0, 1), post1(0), init1(0)),
        ),
        "CNT4b": (
            circuit(2, cnot(0, 1), post1(0)),
            circuit(2, post1(0), init1(0), cnot(0, 1), post1(0)),
        ),
        # cnots sharing the operating wire commute
        "CNT5": (
            circuit(3, cnot(0, 1), cnot(2, 1)),
            circuit(3, cnot(2, 1), cnot(0, 1)),
        ),
        # |1><1| is the empty circuit
        "CNT6": (circuit(0, init1(0), post1(0)), identity_circuit(0)),
        # a control holding 0 does nothing
        "CNT7a": (cnt7a_lhs, cnt7a_rhs),
        "CNT7b": (cnt7a_lhs.dagger(), cnt7a_rhs.dagger()),
        # the three-cnot ladder contracts
        "CNT8": (
            circuit(3, cnot(0, 1), cnot(1, 2), cnot(0, 1)),
            circuit(3, cnot(1, 2), cnot(0, 2)),
        ),
        # in a degenerate circuit any wire may be cut
        "CNT9": (
            circuit(1, init1(0), init1(1), cnot(0, 1), post1(0), post1(0)),
            circuit(
                1,
                init1(0),
                init1(1),
                post1(2),
                cnot(0, 1),
                init1(2),
                post1(0),
                post1(0),
            ),
        ),
    }


def _pair(g: Circuit) -> Circuit:
    """The graph pairing <restriction(g), g> as a circuit."""
    rest = g.compose(g.dagger())
    return fanout(g.n_in).compose(rest.tensor(g))


def _lemma_circuits() -> dict[str, tuple[Circuit, Circuit]]:
    cut1 = circuit(1, post1(0), init1(0))
    sample_cnot = circuit(2, cnot(0, 1))
    sample_clause = clause_circuit([0, 1], 1, 2)
    id1 = identity_circuit(1)

    # the degenerate map absorbs anything tensored or composed with it
    fixtures = {
        "omega-absorb": (omega().tensor(omega()), omega()),
        "omega-tensor-absorb": (sample_cnot.tensor(omega()), omega_nm(2, 2)),
        "omega-post-absorb": (omega_nm(1, 2).compose(fanin(1)), omega_nm(1, 1)),
        "omega-pre-absorb": (fanout(1).compose(omega_nm(2, 1)), omega_nm(1, 1)),
        "cnot-triple": (
            circuit(3, cnot(0, 1), cnot(1, 2), cnot(0, 1)),
            circuit(3, cnot(1, 0), cnot(0, 2), cnot(1, 0)),
        ),
        "zero-cancel": (circuit(0, init0(0), post0(0)), identity_circuit(0)),
        "cnot-slide": (
            circuit(3, cnot(0, 1), cnot(1, 2)),
            circuit(3, cnot(0, 2), cnot(1, 2), cnot(0, 1)),
        ),
        "not-slide": (
            circuit(3, cnot(1, 2), notg(1), cnot(1, 0), notg(1)),
            circuit(3, notg(1), cnot(1, 0), notg(1), cnot(1, 2)),
        ),
        "not-involution": (circuit(1, notg(0), notg(0)), id1),
        "copy-discard-zero": (
            fanout(1).compose(circuit(2, post0(1))),
            circuit(1, post0(0), init0(0)),
        ),
        "copy-discard-one": (
            fanout(1).compose(circuit(2, post1(1))),
            cut1,
        ),
        "literal-through-fanin": (
            fanin(1).tensor(id1).compose(circuit(2, cnot(1, 0))),
            circuit(3, cnot(2, 0), cnot(2, 1)).compose(fanin(1).tensor(id1)),
        ),
        "cut-as-clause": (cut1, clause_circuit([0], 1, 1)),
        "latch-witness": (
            fanout(1).compose(cut1.tensor(id1)).compose(fanin(1)),
            cut1,
        ),
        "clause-idem": (sample_clause.compose(sample_clause), sample_clause),
    }

    # graph-pairing route recovers the map itself (instantiated at a sample
    # partial isomorphism): pair f, re-derive the input by pairing the
    # inverse, merge the two input copies, and consume the pair again.
    f = circuit(1, notg(0), post1(0), init1(0))
    pf, pfo = _pair(f), _pair(f.dagger())
    full_copy = (
        pf
        .compose(id1.tensor(pfo))
        .compose(circuit(3, swap(1, 2)))
        .compose(fanin(1).tensor(id1))
        .compose(circuit(2, swap(0, 1)))
        .compose(pfo.dagger())
    )
    fixtures["full-copy"] = (full_copy, f)
    return fixtures
