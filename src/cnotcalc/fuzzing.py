"""Seeded random circuit generation and the fuzzing trials.

Each trial draws from its own sub-stream derived from (seed, trial index),
so trials are order-independent and could run concurrently; reports are
ordered by trial index either way.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Optional

from .circuit import Circuit, cnot, init0, init1, notg, post0, post1, swap
from .relation import all_bitvecs
from .synth import synth


def trial_rng(seed: int, index: int) -> random.Random:
    return random.Random((seed * 1_000_003 + index) & 0xFFFFFFFFFFFF)


def random_circuit(
    rng: random.Random,
    n_in: int,
    depth: int,
    max_width: Optional[int] = None,
    allow_post: bool = True,
) -> Circuit:
    """A valid random circuit; width stays within [0, max_width]."""
    if max_width is None:
        max_width = n_in + 4
    choice, randrange = rng.choice, rng.randrange
    gates: list = []
    width = n_in
    for _ in range(depth):
        kind = choice(_menu(width, max_width, allow_post))
        if kind == "cnot":
            c = randrange(width)
            t = randrange(width - 1)
            if t >= c:
                t += 1
            gates.append(cnot(c, t))
        elif kind == "swap":
            a = randrange(width)
            b = randrange(width - 1)
            if b >= a:
                b += 1
            gates.append(swap(a, b))
        elif kind == "init1":
            gates.append(init1(randrange(width + 1)))
            width += 1
        elif kind == "init0":
            gates.extend(init0(randrange(width + 1)))
            width += 1
        elif kind == "post1":
            gates.append(post1(randrange(width)))
            width -= 1
        elif kind == "post0":
            gates.extend(post0(randrange(width)))
            width -= 1
        else:
            gates.extend(notg(randrange(width)))
    return Circuit(n_in, gates)


@lru_cache(maxsize=256)
def _menu(width: int, max_width: int, allow_post: bool) -> tuple[str, ...]:
    """The gate kinds ``random_circuit`` draws from at one width; their
    order and multiplicity fix what each ``rng.choice`` returns."""
    menu: list[str] = []
    if width >= 2:
        menu += ["cnot"] * 4 + ["swap"]
    if width < max_width:
        menu += ["init1", "init0"]
    if width >= 1:
        menu += ["not"]
        if allow_post:
            menu += ["post1", "post0"]
    return tuple(menu) or ("init1",)


def oracle_trial(c: Circuit) -> Optional[str]:
    """Gatewise evaluation must agree with the semantics on every input."""
    rel = c.semantics()
    for x in all_bitvecs(c.n_in):
        if c.eval_state(x) != rel.apply(x):
            return f"eval/apply disagree on input {list(x)}"
    return None


def synth_roundtrip_trial(c: Circuit) -> Optional[str]:
    """Synthesis from the semantics must reproduce the semantics."""
    rel = c.semantics()
    again = synth(rel).semantics()
    if again != rel:
        return "semantics(synth(semantics(c))) differs from semantics(c)"
    return None


def fuzz(
    wires: int = 5,
    depth: int = 30,
    seed: int = 0,
    trials: int = 1000,
) -> tuple[int, Optional[tuple[int, Circuit, str]]]:
    """Run oracle and round-trip checks; returns (trials run, first failure)."""
    for i in range(trials):
        rng = trial_rng(seed, i)
        n_in = rng.randrange(wires + 1)
        c = random_circuit(rng, n_in, depth)
        for check in (oracle_trial, synth_roundtrip_trial):
            message = check(c)
            if message is not None:
                return i + 1, (i, c, message)
    return trials, None
