"""The random circuit generator, pinned to the recursive form it replaced."""

import hashlib
import random

import pytest

from cnotcalc.circuit import GATES, circuit, cnot, init0, init1, notg, post0, post1, swap
from cnotcalc import fuzzing
from cnotcalc.formats import FormatError, format_circuit, parse_circuit
from cnotcalc.fuzzing import fuzz, oracle_trial, random_circuit, trial_rng
from cnotcalc.relation import AffineRelation, all_bitvecs


def old_random_circuit(rng, n_in, depth, max_width=None, allow_post=True):
    """The generator as it was: a menu list built per gate, nested macro
    tuples flattened by ``circuit``."""
    if max_width is None:
        max_width = n_in + 4
    gates = []
    width = n_in
    for _ in range(depth):
        menu = []
        if width >= 2:
            menu += ["cnot"] * 4 + ["swap"]
        if width < max_width:
            menu += ["init1", "init0"]
        if width >= 1:
            menu += ["not"]
            if allow_post:
                menu += ["post1", "post0"]
        if not menu:
            menu = ["init1"]
        kind = rng.choice(menu)
        if kind == "cnot":
            c = rng.randrange(width)
            t = rng.randrange(width - 1)
            if t >= c:
                t += 1
            gates.append(cnot(c, t))
        elif kind == "swap":
            a = rng.randrange(width)
            b = rng.randrange(width - 1)
            if b >= a:
                b += 1
            gates.append(swap(a, b))
        elif kind == "init1":
            gates.append(init1(rng.randrange(width + 1)))
            width += 1
        elif kind == "init0":
            gates.append(init0(rng.randrange(width + 1)))
            width += 1
        elif kind == "post1":
            gates.append(post1(rng.randrange(width)))
            width -= 1
        elif kind == "post0":
            gates.append(post0(rng.randrange(width)))
            width -= 1
        else:
            gates.append(notg(rng.randrange(width)))
    return circuit(n_in, *gates)


class LoggedRandom(random.Random):
    """Records every ``getrandbits(k)`` call and its result.

    ``random.Random`` serves ``choice`` and ``randrange`` from
    ``getrandbits`` (``_randbelow_with_getrandbits``, which it also picks
    for a subclass that overrides ``getrandbits``), so this log holds every
    draw of the old generator, rejected redraws included.
    """

    calls: list

    def getrandbits(self, k):
        out = super().getrandbits(k)
        self.calls.append((k, out))
        return out


def logged_trial_rng(seed, index):
    rng = LoggedRandom()
    rng.setstate(trial_rng(seed, index).getstate())
    rng.calls = []
    return rng


# (n_in, depth, max_width, allow_post) as the law suites, fuzz and the tests
# call it, plus the edges: no room to grow, and n_in above max_width.
SHAPES = [(n, 12, n + 2, True) for n in range(4)]
SHAPES += [(n, 10, n + 2, True) for n in range(3)]
SHAPES += [(n, d, None, True) for n in range(9) for d in (6, 10, 15, 25, 30, 40)]
SHAPES += [(n, 20, None, False) for n in range(5)]
SHAPES += [(0, 8, 0, True), (0, 8, 0, False), (5, 12, 2, True), (3, 0, None, True)]


def test_same_circuit_and_draws_as_old_generator():
    for shape in SHAPES:
        for seed in range(3):
            for index in range(8):
                new_rng = logged_trial_rng(seed, index)
                old_rng = logged_trial_rng(seed, index)
                new = random_circuit(new_rng, *shape)
                old = old_random_circuit(old_rng, *shape)
                assert new == old and new.n_out == old.n_out, shape
                # a choice of kind and a first wire per gate, at least
                assert len(old_rng.calls) >= 2 * shape[1], shape
                assert new_rng.calls == old_rng.calls, shape
                assert new_rng.getstate() == old_rng.getstate(), shape


def test_plain_trial_rng_stream_unchanged():
    # the law suites and fuzz pass trial_rng streams, as fuzz draws them
    for seed in range(3):
        for index in range(20):
            a, b = trial_rng(seed, index), trial_rng(seed, index)
            n = a.randrange(6)
            assert b.randrange(6) == n
            assert random_circuit(a, n, 30) == old_random_circuit(b, n, 30)
            assert a.getstate() == b.getstate()


def law_suite_circuits(count):
    """Circuits drawn as the law suites and ``fuzz`` draw them: six per
    index, two of them from one stream."""
    for i in range(count):
        rng = trial_rng(0, i)  # inverse_laws
        n = rng.randrange(6)
        yield random_circuit(rng, n, 30)
        yield random_circuit(rng, n, 30)
        yield random_circuit(trial_rng(1, i), 0, 30)  # total_or_degenerate
        rng = trial_rng(2, i)  # copy_naturality
        n = rng.randrange(4)
        yield random_circuit(rng, n, depth=12, max_width=n + 2)
        rng = trial_rng(3, i)  # plus_naturality
        n = rng.randrange(3)
        yield random_circuit(rng, n, depth=10, max_width=n + 2)
        rng = trial_rng(4, i)  # fuzz --wires 8
        n = rng.randrange(9)
        yield random_circuit(rng, n, 30)


# sha256 of the circuit files of law_suite_circuits(2000), as the
# generator drew them when it still called choice and randrange
LAW_SUITE_DIGEST = "5f3dc061908a928396c79284dcf4ea345eb37c01a923062e3ddf142997da3895"


def test_law_suite_circuits_pinned():
    h = hashlib.sha256()
    count = 0
    for c in law_suite_circuits(2000):
        h.update(format_circuit(c).encode())
        count += 1
    assert count == 12_000
    assert h.hexdigest() == LAW_SUITE_DIGEST


def test_gate_cache_is_bounded():
    assert fuzzing._gates.cache_info().maxsize is not None
    assert fuzzing._menu.cache_info().maxsize is not None


# -- fuzz: one semantics per trial ----------------------------------------------


def old_fuzz(wires, depth, seed, trials):
    """``fuzz`` as it was: each check computes the semantics itself."""

    def oracle_trial(c):
        rel = c.semantics()
        for x in all_bitvecs(c.n_in):
            if c.eval_state(x) != rel.apply(x):
                return f"eval/apply disagree on input {list(x)}"
        return None

    def synth_roundtrip_trial(c):
        rel = c.semantics()
        if fuzzing.synth(rel).semantics() != rel:
            return "semantics(synth(semantics(c))) differs from semantics(c)"
        return None

    for i in range(trials):
        rng = trial_rng(seed, i)
        c = random_circuit(rng, rng.randrange(wires + 1), depth)
        for check in (oracle_trial, synth_roundtrip_trial):
            message = check(c)
            if message is not None:
                return i + 1, (i, c, message)
    return trials, None


def plant_synth_failure(monkeypatch, n_in=3):
    """Synthesis that returns a nowhere-defined circuit for every non-empty
    relation on ``n_in`` inputs."""
    synth = fuzzing.synth

    def planted(rel):
        if rel.n_in == n_in and not rel.is_empty():
            rel = AffineRelation.empty(rel.n_in, rel.n_out)
        return synth(rel)

    monkeypatch.setattr(fuzzing, "synth", planted)


def plant_apply_failure(monkeypatch):
    """``apply_all`` that is undefined on the all-ones input of 4 wires, in
    whichever lane carries it: the oracle runs every input at once, and
    ``apply``, which ``old_fuzz`` reads, runs it at one lane."""
    apply_all = AffineRelation.apply_all

    def planted(rel, columns, lanes):
        out, defined = apply_all(rel, columns, lanes)
        if len(columns) == 4:
            defined &= ~(columns[0] & columns[1] & columns[2] & columns[3])
        return out, defined

    monkeypatch.setattr(AffineRelation, "apply_all", planted)


def plant_both_failures(monkeypatch):
    """Both checks fail on every non-empty relation on 4 inputs, so the
    order of the checks decides the message."""
    plant_synth_failure(monkeypatch, n_in=4)
    apply_all = AffineRelation.apply_all

    def planted(rel, columns, lanes):
        out, defined = apply_all(rel, columns, lanes)
        return out, 0 if len(columns) == 4 else defined

    monkeypatch.setattr(AffineRelation, "apply_all", planted)


@pytest.mark.parametrize("plant", [plant_synth_failure, plant_apply_failure, plant_both_failures])
@pytest.mark.parametrize("seed", [0, 5])
def test_planted_failure_as_old_fuzz_reports_it(monkeypatch, plant, seed):
    plant(monkeypatch)
    got = fuzz(wires=5, depth=30, seed=seed, trials=300)
    want = old_fuzz(wires=5, depth=30, seed=seed, trials=300)
    assert got[1] is not None and got[1][0] > 0  # found, and not at once
    assert got == want


def test_no_failure_as_old_fuzz():
    assert fuzz(wires=4, depth=20, seed=3, trials=60) == old_fuzz(4, 20, 3, 60) == (60, None)


def test_gate_kinds_come_from_one_table():
    # every kind of the table parses to what its builder builds, and no
    # other kind parses; random circuits draw every kind and only those
    for kind, (builder, count, delta) in GATES.items():
        args = range(1, 1 + count)
        built = builder(*args)
        built = built if type(built) is tuple else (built,)
        text = f"circuit x : 3 -> {3 + delta}\n{kind} {' '.join(map(str, args))}\nend\n"
        assert parse_circuit(text)[1] == circuit(3, built), kind
    for kind in ["toffoli", "CNOT", "init", "post", "h", "end1"]:
        with pytest.raises(FormatError, match=f"unknown gate {kind!r}"):
            parse_circuit(f"circuit x : 3 -> 3\n{kind} 1 2\nend\n")
    drawn = set()
    for width in range(4):
        for max_width in range(6):
            for allow_post in (True, False):
                drawn.update(fuzzing._menu(width, max_width, allow_post)[0])
    assert drawn == set(GATES)


def test_a_reader_that_differs_from_the_semantics_is_reported(monkeypatch):
    # the file check runs the reader of ``equal`` and ``semantics`` on each
    # trial's file: one that loses every non-empty relation on 3 inputs is
    # caught at the first such trial, after the other two checks pass
    parse = fuzzing.parse_semantics

    def planted(text):
        name, rel = parse(text)
        if rel.n_in == 3 and not rel.is_empty():
            rel = AffineRelation.empty(rel.n_in, rel.n_out)
        return name, rel

    def drawn(i):
        rng = trial_rng(0, i)
        return random_circuit(rng, rng.randrange(6), 30)

    monkeypatch.setattr(fuzzing, "parse_semantics", planted)
    first = next(
        i for i in range(300) if (c := drawn(i)).n_in == 3 and not c.semantics().is_empty()
    )
    ran, (index, c, message) = fuzz(wires=5, depth=30, seed=0, trials=300)
    assert first > 0 and (ran, index, c) == (first + 1, first, drawn(first))
    assert message == "parse_semantics(format_circuit(c)) differs from semantics(c)"


def test_a_not_appended_fails_the_oracle():
    # a post-free circuit is total, so with a ``not`` appended it differs
    # from its own relation on every input, and the lowest is named
    for i in range(300):
        rng = trial_rng(11, i)
        n = 1 + rng.randrange(8)
        c = random_circuit(rng, n, rng.randrange(30), allow_post=False)
        mutant = circuit(n, c.gates, notg(rng.randrange(c.n_out)))
        assert oracle_trial(c, c.semantics()) is None
        assert oracle_trial(mutant, c.semantics()) == f"eval/apply disagree on input {[0] * n}"
