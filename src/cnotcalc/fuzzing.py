"""Seeded random circuit generation and the fuzzing trials.

Each trial draws from its own sub-stream derived from (seed, trial index),
so trials are order-independent and could run concurrently; reports are
ordered by trial index either way.

``random_circuit`` draws every number through ``rng.getrandbits``, as
``random.Random``'s own ``choice`` and ``randrange`` do, so a ``trial_rng``
stream gives the circuits it always gave.  A subclass of ``random.Random``
changes the draws only by overriding ``getrandbits``.

The trials import what they check when they run: ``verify`` draws its
circuits from this module and runs no trial, so it compiles neither the
file formats nor ``semantics_reader``, ``synth`` and ``normalize``.
"""

from __future__ import annotations

import random
from functools import lru_cache

from .circuit import Circuit
from .gates import GATES, Gate
from .relation import AffineRelation, all_columns


def trial_rng(seed: int, index: int) -> random.Random:
    return random.Random((seed * 1_000_003 + index) & 0xFFFFFFFFFFFF)


def random_circuit(
    rng: random.Random,
    n_in: int,
    depth: int,
    max_width: Optional[int] = None,
    allow_post: bool = True,
) -> Circuit:
    """A valid random circuit; width stays within [0, max_width].

    Each gate is a ``choice`` of kind from ``_menu`` and one ``randrange``
    per wire argument.  Both are drawn inline, as ``random.Random`` draws
    them: redraw ``getrandbits(n.bit_length())`` until it is below ``n``.
    """
    if max_width is None:
        max_width = n_in + 4
    bits = rng.getrandbits
    gates: list[Gate] = []
    width = n_in
    for _ in range(depth):
        menu, k = _menu(width, max_width, allow_post)
        r = bits(k)
        while r >= len(menu):
            r = bits(k)
        kind = menu[r]
        grow = GATES[kind][2]
        n = width + 1 if grow > 0 else width  # an insertion has width + 1 places
        k = n.bit_length()
        a = bits(k)
        while a >= n:
            a = bits(k)
        if kind == "cnot" or kind == "swap":  # a second, distinct wire
            n = width - 1
            k = n.bit_length()
            b = bits(k)
            while b >= n:
                b = bits(k)
            if b >= a:
                b += 1
            gates += _gates(kind, a, b)
        else:
            gates += _gates(kind, a)
            width += grow
    return Circuit(n_in, gates)


@lru_cache(maxsize=4096)
def _gates(kind: str, *args: int) -> tuple[Gate, ...]:
    """The gates of one drawn kind, built once: gates are immutable."""
    gates = GATES[kind][0](*args)
    return gates if type(gates) is tuple else (gates,)


@lru_cache(maxsize=256)
def _menu(width: int, max_width: int, allow_post: bool) -> tuple[tuple[str, ...], int]:
    """The gate kinds ``random_circuit`` draws from at one width, and the
    bit length of their number; the kinds' order and multiplicity fix which
    one each draw picks."""
    menu: list[str] = []
    if width >= 2:
        menu += ["cnot"] * 4 + ["swap"]
    if width < max_width:
        menu += ["init1", "init0"]
    if width >= 1:
        menu += ["not"]
        if allow_post:
            menu += ["post1", "post0"]
    kinds = tuple(menu) or ("init1",)
    return kinds, len(kinds).bit_length()


def oracle_trial(c: Circuit, rel: AffineRelation) -> Optional[str]:
    """Gatewise evaluation must agree with the semantics ``rel`` of ``c`` on
    every input, all run at once; the message names the lowest that does not."""
    n = c.n_in
    columns, lanes = all_columns(n), 1 << n
    (got, defined), (want, domain) = c.eval_all(columns, lanes), rel.apply_all(columns, lanes)
    bad = defined ^ domain
    for a, b in zip(got, want):
        bad |= a ^ b
    k = (bad & -bad).bit_length() - 1
    return f"eval/apply disagree on input {[k >> j & 1 for j in range(n)]}" if bad else None


def synth_roundtrip_trial(c: Circuit, rel: AffineRelation) -> Optional[str]:
    """Synthesis from the semantics ``rel`` of ``c`` must reproduce it."""
    from .synth import synth

    again = synth(rel).semantics()
    if again != rel:
        return "semantics(synth(semantics(c))) differs from semantics(c)"
    return None


def file_trial(c: Circuit, rel: AffineRelation) -> Optional[str]:
    """The reader that ``equal`` and ``semantics`` run on a file must give
    the semantics ``rel`` of ``c`` from ``c``'s file."""
    from .circuit_formats import format_circuit
    from .semantics_reader import parse_semantics

    if parse_semantics(format_circuit(c))[1] != rel:
        return "parse_semantics(format_circuit(c)) differs from semantics(c)"
    return None


def fuzz(
    wires: int = 5,
    depth: int = 30,
    seed: int = 0,
    trials: int = 1000,
) -> tuple[int, Optional[tuple[int, Circuit, str]]]:
    """Run the oracle, round-trip and file checks; returns (trials run,
    first failure)."""
    for i in range(trials):
        rng = trial_rng(seed, i)
        n_in = rng.randrange(wires + 1)
        c = random_circuit(rng, n_in, depth)
        rel = c.semantics()
        for check in (oracle_trial, synth_roundtrip_trial, file_trial):
            message = check(c, rel)
            if message is not None:
                return i + 1, (i, c, message)
    return trials, None
