"""The random circuit generator, pinned to the recursive form it replaced."""

import random

from cnotcalc.circuit import circuit, cnot, init0, init1, notg, post0, post1, swap
from cnotcalc.fuzzing import random_circuit, trial_rng


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
    """Records every public choice/randrange call and its result."""

    calls: list

    def choice(self, seq):
        out = super().choice(seq)
        self.calls.append(("choice", tuple(seq), out))
        return out

    def randrange(self, *args):
        out = super().randrange(*args)
        self.calls.append(("randrange", args, out))
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
                assert new == old and new.validate() == old.validate(), shape
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
