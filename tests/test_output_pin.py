"""The gate lists the commands print, pinned as one digest.

``synth``, ``normalize`` and ``construct`` choose one circuit among many
equal ones; which one is behaviour too, so a change that keeps every
semantics but reorders or rewrites gates shows here.  The relations that
``semantics`` prints and that ``synth`` reads are pinned as a second digest,
the circuits ``apply_at`` rewrites to as a third, and what the command line
prints, its errors included, as a fourth.
"""

import hashlib
import random

from cnotcalc import cli, rewrite
from cnotcalc.circuit import (
    Circuit,
    clause_circuit,
    cnot,
    fanout,
    hat,
    identity_circuit,
    omega_nm,
    plus_map,
    swap_network,
)
from cnotcalc.formats import format_circuit, format_relation, parse_synth_input
from cnotcalc.fuzzing import random_circuit, trial_rng
from cnotcalc.normalize import normalize_idempotent
from cnotcalc.rewrite import all_rules, apply_at
from cnotcalc.synth import synth


def random_circuits():
    """200 seeded random circuits, a quarter of them without post-selection."""
    for i in range(200):
        rng = trial_rng(17, i)
        yield i, random_circuit(rng, rng.randrange(7), rng.randrange(1, 60), allow_post=i % 4 != 0)


def corpus():
    """Synth of the random circuits' relations and of their converses
    (total, partial and empty ones), normalize of ``c ; c-dagger`` for 50 of
    the circuits, then the named constructions."""
    for i, c in random_circuits():
        rel = c.semantics()
        yield synth(rel)
        yield synth(rel.dagger())
        if i % 4 == 0:
            yield normalize_idempotent(c.compose(c.dagger()))
    for n in range(9):
        yield fanout(n)
        yield plus_map(n)
        for m in range(9):
            yield omega_nm(n, m)
    for support, rhs, n in [((), 0, 0), ((), 1, 2), ((0,), 0, 1), ((0, 2), 1, 3), ((1, 3, 4), 0, 6)]:
        yield clause_circuit(support, rhs, n)
    for bits in [(), (0,), (1,), (1, 0, 1, 1), (0, 0, 1, 0, 1, 1, 0, 1)]:
        yield hat(bits)


# sha256 of the format_circuit text of corpus(), as the code printed it
# when synth still solved for both extensions with linear systems
OUTPUT_DIGEST = "138b613d488a2c4c97befcc093d24064ee2cf533ff9e9d0c3edb5423dfd4e2f0"


def test_printed_circuits_pinned():
    h = hashlib.sha256()
    count = 0
    for c in corpus():
        h.update(format_circuit(c).encode())
        count += 1
    assert count == 400 + 50 + 18 + 81 + 5 + 5
    assert h.hexdigest() == OUTPUT_DIGEST


def _parity_line(names, coef, point, unsat):
    """``parity`` over the names of the set bits of ``coef``, satisfied by
    ``point``; the line ``parity = 1``, which nothing satisfies, if
    ``unsat``."""
    if unsat:
        return "parity = 1"
    terms = [name for j, name in enumerate(names) if coef >> j & 1]
    return " ".join(["parity", *terms, "=", str((coef & point).bit_count() & 1)])


def _bits_line(keyword, rng, count):
    return " ".join([keyword, *(str(rng.randrange(2)) for _ in range(count))])


def synth_inputs():
    """Seeded ``graph``, ``system`` and ``affine`` texts of 0-12 inputs and
    0-8 outputs: parity lines through a random point, and about one line in
    ten that no point satisfies."""
    rng = random.Random(23)
    for _ in range(60):
        n, m = rng.randrange(13), rng.randrange(9)
        point = rng.getrandbits(n + m)
        x = [f"x{j}" for j in range(n)]
        wires = [str(j) for j in range(n)]
        graph, system, affine = [f"graph {n} {m}"], [f"system {n}"], [f"affine {n} {m}"]
        for _ in range(rng.randrange(n + m + 2)):
            coef, unsat = rng.getrandbits(n + m), rng.randrange(10) == 0
            graph.append(_parity_line(x + [f"y{i}" for i in range(m)], coef, point, unsat))
            system.append(_parity_line(wires, coef, point, unsat))
            if rng.randrange(3) == 0:
                affine.append(system[-1])
        affine += [_bits_line("row", rng, n) for _ in range(m)]
        affine.append(_bits_line("shift", rng, m))
        for lines in (graph, system, affine):
            yield "\n".join(lines + ["end"]) + "\n"


def relation_corpus():
    """The semantics of the random circuits, then the relations that
    ``parse_synth_input`` reads from ``synth_inputs()``."""
    for _, c in random_circuits():
        yield c.semantics()
    for text in synth_inputs():
        yield parse_synth_input(text)


# sha256 of the format_relation text of relation_corpus(), as the code
# printed it when each of its constructors laid out its own rows
RELATION_DIGEST = "b27dc4f7948e128ca5f5b57e09574526b8cc7276314143f83cc30f4e00a8f23f"


def test_printed_relations_pinned():
    h = hashlib.sha256()
    count = 0
    for r in relation_corpus():
        h.update(format_relation(r).encode())
        count += 1
    assert count == 200 + 180
    assert h.hexdigest() == RELATION_DIGEST


def rewrite_hosts():
    """For every rule and direction, three seeded hosts around the side it
    rewrites: a post-free random prefix on 0-2 wires more than the side
    takes, the side on a run of the prefix's output wires with identity
    wires below and above it, then a random suffix."""
    for r, rule in enumerate(all_rules()):
        for direction in ("lr", "rl"):
            side = rule.lhs if direction == "lr" else rule.rhs
            for i in range(3):
                rng = trial_rng(29, 6 * r + 3 * (direction == "rl") + i)
                prefix = random_circuit(
                    rng, side.n_in + rng.randrange(3), rng.randrange(8), allow_post=False
                )
                below = rng.randrange(prefix.n_out - side.n_in + 1)
                above = prefix.n_out - side.n_in - below
                middle = identity_circuit(below).tensor(side).tensor(identity_circuit(above))
                suffix = random_circuit(rng, middle.n_out, rng.randrange(8))
                yield rule, direction, prefix.compose(middle).compose(suffix)


def rewrites():
    """(rule name, direction, offset, result) of ``apply_at`` at every
    offset of every host where the rule applies."""
    for rule, direction, host in rewrite_hosts():
        for k in range(len(host.gates) + 1):
            out = apply_at(host, rule, k, direction)
            if out is not None:
                yield rule.name, direction, k, out


# sha256 of the offsets and format_circuit text of rewrites(), as the code
# printed them when apply_at ran its own swap network
REWRITE_DIGEST = "6baeb945646da83b3f9cccce0bc0bb312726baff630fdd8cd995deb4a1c988d5"


def test_rewrites_pinned(monkeypatch):
    networks = []  # per result, whether its swap network emits a gate

    def counted(layout, target):
        gates = swap_network(layout, target)
        networks.append(bool(gates))
        return gates

    monkeypatch.setattr(rewrite, "swap_network", counted)
    h = hashlib.sha256()
    count = 0
    for name, direction, k, out in rewrites():
        h.update(f"{name} {direction} {k}\n".encode())
        h.update(format_circuit(out).encode())
        count += 1
    assert count == len(networks) == 337
    assert sum(networks) == 45
    assert h.hexdigest() == REWRITE_DIGEST


def cli_files():
    """Seeded input files by name: random circuits, one of 3,000 gates with
    a bad line past the reader's first window, an idempotent, the synth
    inputs, and a derivation of three steps."""
    rng = trial_rng(31, 0)
    host = random_circuit(rng, 6, 300, allow_post=False)
    total = random_circuit(rng, 5, 40, allow_post=False)
    partial = random_circuit(rng, 4, 60)
    long_lines = format_circuit(random_circuit(rng, 8, 3000)).splitlines()
    pair, m = [cnot(0, 1), cnot(0, 1)], total.n_out
    graph, system, affine = list(synth_inputs())[3:6]
    return {
        "host": format_circuit(Circuit(6, pair * 3 + list(host.gates)), name="host"),
        "total": format_circuit(total, name="t"),
        "total_again": "# the same\n" + format_circuit(total.compose(Circuit(m, pair))),
        "total_other": format_circuit(total.compose(Circuit(m, pair[:1])), name="u"),
        "partial": format_circuit(partial, name="p"),
        "idempotent": format_circuit(partial.compose(partial.dagger()), name="i"),
        "late_error": "\n".join(long_lines[:2500] + ["cnot 0 x"] + long_lines[2500:]),
        "no_end": "circuit x : 2 -> 2\ncnot 0 1\n\n# no end\n",
        "nothing": "circuit z : 0 -> 0\nend\n",
        "graph": graph,
        "system": system,
        "affine": affine,
        "derivation": "CNT2 0 lr\nCNT2 0 lr\n# last\nCNT2 0 lr\n",
        "bad_step": "CNT2 0 lr\nCNT2 99999 lr\n",
        "bad_rule": "CNT2 0 lr\nnosuch 0 lr\n",
    }


def cli_commands():
    """About forty command lines, file arguments by name."""
    plain = [
        ("replay", "host", "derivation"),
        *(("construct", *params) for params in [
            ("fanout", "5"), ("fanin", "4"), ("omega",), ("omega", "2", "3"), ("plus", "3"),
            ("hat", "0110"), ("clause", "5", "1", "0", "2", "4"),
        ]),
        ("synth", "graph"), ("synth", "system"), ("synth", "affine"),
        ("normalize", "idempotent"), ("semantics", "partial"), ("semantics", "total"),
        ("eval", "total", "--input", "10110"), ("eval", "nothing", "--input", ""),
        ("equal", "total", "total_again"),
        ("equal", "total", "total_other"), ("fuzz", "--trials", "3"),
    ]
    yield from plain
    for argv in plain:
        yield (*argv, "--json")
    yield from [
        ("semantics", "late_error"), ("equal", "total", "late_error"), ("semantics", "no_end"),
        ("replay", "host", "bad_step"), ("replay", "host", "bad_rule"),
        ("normalize", "total_other"),
    ]


# sha256 of the argv, exit code, stdout and stderr of cli_commands(), as
# the code printed them when replay joined its blocks before printing
CLI_DIGEST = "6ad41ec53adcce6b78d40b45274969ae2591f6a75403cdf1dee9eb19b0a953e6"


def test_command_output_pinned(tmp_path, capsys):
    paths = {}
    for name, text in cli_files().items():
        paths[name] = tmp_path / name
        paths[name].write_text(text)
    h = hashlib.sha256()
    count = 0
    for argv in cli_commands():
        code = cli.run([str(paths.get(arg, arg)) for arg in argv])
        out, err = capsys.readouterr()
        h.update(f"{argv} {code}\n{out}\n{err}\n".encode())
        count += 1
    assert count == 2 * 19 + 6
    assert h.hexdigest() == CLI_DIGEST
