"""Executable law suites: copy-map laws, torsor laws, inverse-category laws,
and the checks of the rewrite rules.

Used by the ``verify`` CLI command and by the acceptance tests.  Every suite
returns True only when each instance of its law holds exactly; the random
suites are fully determined by their seed.
"""

from __future__ import annotations

from .circuit import (
    Circuit,
    fanin,
    fanout,
    identity_circuit,
    permutation_circuit,
    plus_map,
)
from .fuzzing import random_circuit, trial_rng
from .record import Record
from .relation import all_columns


def block_swap(n: int, m: int) -> Circuit:
    """The symmetry exchanging an n-block with an m-block of wires."""
    return permutation_circuit(list(range(n, n + m)) + list(range(n)))


def exchange(m: int, k: int) -> Circuit:
    """(A1, A2, B1, B2) -> (A1, B1, A2, B2) with |A|=m, |B|=k blocks."""
    perm = (
        list(range(m))
        + list(range(2 * m, 2 * m + k))
        + list(range(m, 2 * m))
        + list(range(2 * m + k, 2 * m + 2 * k))
    )
    return permutation_circuit(perm)


def copy_naturality(seed: int = 0, trials: int = 25, max_arity: int = 3) -> bool:
    """f . copy == copy . (f x f) for random circuits f."""
    for i in range(trials):
        rng = trial_rng(seed, i)
        n = rng.randrange(max_arity + 1)
        f = random_circuit(rng, n, depth=12, max_width=n + 2)
        m = f.n_out
        lhs = f.compose(fanout(m)).semantics()
        rhs = fanout(n).compose(f.tensor(f)).semantics()
        if lhs != rhs:
            return False
    return True


def copy_cocommutative(arities=(1, 2, 3)) -> bool:
    return all(
        fanout(n).compose(block_swap(n, n)).semantics() == fanout(n).semantics()
        for n in arities
    )


def copy_coassociative(arities=(1, 2, 3)) -> bool:
    for n in arities:
        idn = identity_circuit(n)
        left = fanout(n).compose(fanout(n).tensor(idn)).semantics()
        right = fanout(n).compose(idn.tensor(fanout(n))).semantics()
        if left != right:
            return False
    return True


def copy_separable(arities=(1, 2, 3)) -> bool:
    return all(
        fanout(n).compose(fanin(n)).semantics() == identity_circuit(n).semantics()
        for n in arities
    )


def copy_semi_frobenius(arities=(1, 2, 3)) -> bool:
    for n in arities:
        idn = identity_circuit(n)
        middle = fanin(n).compose(fanout(n)).semantics()
        left = fanout(n).tensor(idn).compose(idn.tensor(fanin(n))).semantics()
        right = idn.tensor(fanout(n)).compose(fanin(n).tensor(idn)).semantics()
        if not left == middle == right:
            return False
    return True


def copy_uniform(splits=((1, 1), (1, 2), (2, 1))) -> bool:
    for m, k in splits:
        direct = fanout(m + k).semantics()
        routed = fanout(m).tensor(fanout(k)).compose(exchange(m, k)).semantics()
        if direct != routed:
            return False
    return True


def copy_suite(seed: int = 0) -> list[tuple[str, bool]]:
    return [
        ("copy-naturality", copy_naturality(seed)),
        ("copy-cocommutative", copy_cocommutative()),
        ("copy-coassociative", copy_coassociative()),
        ("copy-separable", copy_separable()),
        ("copy-semi-frobenius", copy_semi_frobenius()),
        ("copy-uniform-copying", copy_uniform()),
    ]


# -- torsor laws ---------------------------------------------------------------


def _para_table(n: int) -> list[int]:
    """The third output block of the parity accumulator, as a mask, at the
    index ``a | b << n | c << 2n`` of its input blocks a, b and c."""
    lanes = 1 << 3 * n
    out, defined = plus_map(n).eval_all(all_columns(3 * n), lanes)
    if defined != (1 << lanes) - 1:
        raise RuntimeError("parity accumulator must be total")
    third = out[2 * n :]
    return [sum((column >> k & 1) << i for i, column in enumerate(third)) for k in range(lanes)]


def torsor_laws(n: int) -> bool:
    """Para-associativity, para-identity, commutativity, characteristic 2."""
    p = _para_table(n)
    N = 1 << n
    space = range(N)
    for a in space:
        for b in space:
            if p[a + b * N + b * N * N] != a or p[b + b * N + a * N * N] != a:
                return False
            if p[a + b * N + a * N * N] != b:
                return False
            for c in space:
                if p[a + b * N + c * N * N] != p[c + b * N + a * N * N]:
                    return False
    # the five-variable laws, each a comparison of slices over e
    for a in space:
        for b in space:
            ab = p[a + b * N :: N * N]  # c -> p(a, b, c)
            for c in space:
                abc = ab[c]
                for d in space:
                    dcb = p[d + c * N + b * N * N]
                    first = p[abc + d * N :: N * N]  # e -> p(p(a, b, c), d, e)
                    if first != p[a + dcb * N :: N * N]:
                        return False
                    if first != [ab[x] for x in p[c + d * N :: N * N]]:
                        return False
    return True


def plus_naturality(seed: int = 0, trials: int = 20, max_arity: int = 2) -> bool:
    """(f x f x f) . plus == plus . (f x f x f) for random circuits f."""
    for i in range(trials):
        rng = trial_rng(seed, i)
        n = rng.randrange(max_arity + 1)
        f = random_circuit(rng, n, depth=10, max_width=n + 2)
        m = f.n_out
        triple = f.tensor(f).tensor(f)
        lhs = triple.compose(plus_map(m)).semantics()
        rhs = plus_map(n).compose(triple).semantics()
        if lhs != rhs:
            return False
    return True


def torsor_suite(seed: int = 0, arities=(1, 2, 3)) -> list[tuple[str, bool]]:
    out = [(f"torsor-laws-n{n}", torsor_laws(n)) for n in arities]
    out.append(("plus-naturality", plus_naturality(seed)))
    return out


# -- inverse-category laws -------------------------------------------------------


def inverse_laws(seed: int = 0, trials: int = 500, wires: int = 5, depth: int = 30) -> bool:
    """c c^ c == c and restriction idempotents commute, on random circuits."""
    for i in range(trials):
        rng = trial_rng(seed, i)
        n = rng.randrange(wires + 1)
        r = random_circuit(rng, n, depth).semantics()
        rd = r.dagger()
        rbar = r.compose(rd)
        if rbar.compose(r) != r:
            return False
        if rd.compose(r).compose(rd) != rd:
            return False
        s = random_circuit(rng, n, depth).semantics()
        sbar = s.compose(s.dagger())
        if rbar.compose(sbar) != sbar.compose(rbar):
            return False
    return True


def total_or_degenerate(seed: int = 0, trials: int = 500, depth: int = 30) -> bool:
    """State preparations are total or nowhere defined."""
    for i in range(trials):
        rng = trial_rng(seed, i)
        rel = random_circuit(rng, 0, depth).semantics()
        if not (rel.is_total() or rel.is_empty()):
            return False
    return True


def run_all(seed: int = 0) -> list[tuple[str, bool]]:
    out = copy_suite(seed)
    out += torsor_suite(seed)
    out.append(("inverse-laws", inverse_laws(seed)))
    out.append(("total-or-degenerate", total_or_degenerate(seed)))
    return out


# -- the rewrite rules ---------------------------------------------------------


class RuleReport(Record):
    __slots__ = ("name", "semantic_ok", "state_map_ok")

    def __init__(self, name: str, semantic_ok: bool, state_map_ok: bool):
        self._init(name, semantic_ok, state_map_ok)

    @property
    def ok(self) -> bool:
        return self.semantic_ok and self.state_map_ok


def verify_rules(rules) -> list[RuleReport]:
    """Each rule's two sides compared by their semantics and by their state
    maps on every input; ``rewrite.verify_all`` runs it on the corpus."""
    reports = []
    for rule in rules:
        sem = rule.lhs.semantics() == rule.rhs.semantics()
        columns, lanes = all_columns(rule.lhs.n_in), 1 << rule.lhs.n_in
        states = rule.lhs.eval_all(columns, lanes) == rule.rhs.eval_all(columns, lanes)
        reports.append(RuleReport(rule.name, sem, states))
    return reports
