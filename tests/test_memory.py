"""What a command holds at once, measured with ``tracemalloc``.

A gate is one small object.  The parser holds the distinct gate lines, the
list of gates and one window of text, not every line of the file, and a
relation's reader one window and the rows read so far.  ``equal`` and
``semantics`` hold no gate list: they run each window's gates as they read
them, so their peak does not grow with the file, and they build a wire's
expression only once a gate reaches it.  A plain command holds one printed
block, not its output several times over.  Output goes to a sink on the
null device, since pytest's capture would keep all of it.
"""

import os
import random
import sys
import tracemalloc

import pytest

from cnotcalc import cli, rewrite
from cnotcalc.circuit import Circuit, cnot, fanout, swap
from cnotcalc.formats import format_circuit, parse_circuit, parse_relation


def peak_of(call) -> int:
    """The most memory that ``call()`` has allocated and not yet freed at
    any one time."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def sink(monkeypatch):
    with open(os.devnull, "w") as null:
        monkeypatch.setattr(sys, "stdout", null)
        yield


def random_gates(rng: random.Random, wires: int, count: int) -> list:
    gates = []
    for _ in range(count):
        a, b = rng.sample(range(wires), 2)
        gates.append((cnot if rng.randrange(4) else swap)(a, b))
    return gates


def test_parse_holds_one_window_of_lines():
    text = format_circuit(Circuit(64, random_gates(random.Random(5), 64, 100_000)))
    parse_circuit(text)  # the comment pattern and the builders warmed up
    assert peak_of(lambda: parse_circuit(text)) < 4 * len(text)


def test_parse_holds_one_small_window_of_lines():
    # On 4 wires the 24 distinct gate lines repeat throughout, so beyond the
    # list of gates and the circuit's tuple, 16 B a gate, a parse holds
    # little but its window.
    text = format_circuit(Circuit(4, random_gates(random.Random(5), 4, 100_000)))
    parse_circuit(text)
    assert peak_of(lambda: parse_circuit(text)) < 16 * 100_000 + (64 << 10)


def test_parse_with_macros_and_comments_holds_one_window_of_lines():
    lines = format_circuit(Circuit(64, random_gates(random.Random(5), 64, 100_000))).splitlines()
    lines.insert(1, "not 3")
    for at in range(len(lines) - 1, 0, -100):
        lines.insert(at, "# a comment")
    text = "\n".join(lines) + "\n"
    assert parse_circuit(text)[1].n_out == 64
    assert peak_of(lambda: parse_circuit(text)) < 4 * len(text)


def test_relation_parse_holds_one_window_of_lines():
    # A 128 x 128 graph: 128 rows of 40 input terms and one output each,
    # about 23 KB of text, which the rows themselves take little of.
    rng = random.Random(3)
    lines = ["graph 128 128"]
    for i in range(128):
        terms = [f"x{j}" for j in sorted(rng.sample(range(128), 40))]
        lines.append(" ".join(["parity", *terms, f"y{i}", "=", str(rng.randrange(2))]))
    text = "\n".join(lines) + "\nend\n"
    assert parse_relation(text).n_out == 128
    assert peak_of(lambda: parse_relation(text)) < 4 * len(text)


def test_a_gate_is_one_small_object():
    pairs = [(a, b) for a in range(100) for b in range(101) if a != b]
    held = [None] * len(pairs)

    def build():
        for i, (a, b) in enumerate(pairs):
            held[i] = cnot(a, b)

    assert peak_of(build) < 100 * len(pairs)
    assert len(set(held)) == len(pairs)


@pytest.mark.parametrize("command", ["equal", "semantics"])
def test_equal_and_semantics_hold_no_gate_list(tmp_path, sink, command):
    # Each window's lines are run as they are read: ten times the gates
    # leave the peak where it was.
    peaks = []
    for count in (10_000, 100_000):
        rng = random.Random(count)
        paths = []
        for name in "ab":
            paths.append(tmp_path / f"{name}{count}")
            paths[-1].write_text(format_circuit(Circuit(64, random_gates(rng, 64, count))))
        argv = [command, *map(str, paths[: 2 if command == "equal" else 1])]
        assert cli.run(argv) == (1 if command == "equal" else 0)
        peaks.append(peak_of(lambda: cli.run(argv)))
    assert peaks[1] < 256 << 10
    assert abs(peaks[1] - peaks[0]) < 32 << 10


def test_a_wide_header_costs_nothing_before_a_bad_line(tmp_path, capsys):
    # A wire's expression is built when a gate first touches it: 20,000
    # wires built at the header would take about 27 MB before the error.
    path = tmp_path / "wide"
    path.write_text("circuit wide : 20000 -> 20000\nfoo 1\nend\n")
    for argv in (["semantics", str(path)], ["equal", str(path), str(path)]):
        assert cli.run(argv) == 2
        assert capsys.readouterr().err == "error: line 2, column 1: unknown gate 'foo'\n"
        assert peak_of(lambda: cli.run(argv)) < 1 << 20
        capsys.readouterr()


@pytest.mark.parametrize(
    "line, error",
    [("cnot 0 20000", "gate 0 cnot(0, 20000): wire"), ("init1 20001", "gate 0 init1(20001): insertion index")],
)
def test_a_wide_header_costs_nothing_before_a_gate_out_of_range(tmp_path, capsys, line, error):
    # The register's width is checked before a gate's wires are built.
    path = tmp_path / "wide"
    path.write_text(f"circuit wide : 20000 -> 20000\n{line}\nend\n")
    for argv in (["semantics", str(path)], ["equal", str(path), str(path)]):
        assert cli.run(argv) == 2
        assert capsys.readouterr().err == f"error: line 2, column 1: {error} out of range at width 20000\n"
        assert peak_of(lambda: cli.run(argv)) < 1 << 20
        capsys.readouterr()


def test_replay_holds_one_block(tmp_path, monkeypatch, sink):
    rng = random.Random(7)
    circuits = [Circuit(16, random_gates(rng, 16, 4000)) for _ in range(20)]
    longest = max(len(format_circuit(c, name=f"step{i}")) for i, c in enumerate(circuits))
    monkeypatch.setattr(rewrite, "replay", lambda derivation: circuits)
    (tmp_path / "c").write_text("circuit c : 16 -> 16\ncnot 0 1\nend\n")
    (tmp_path / "d").write_text("# every step is in the patched replay\n")
    argv = ["replay", str(tmp_path / "c"), str(tmp_path / "d")]
    assert cli.run(argv) == 0
    assert peak_of(lambda: cli.run(argv)) < 3 * longest


def test_construct_holds_one_block(monkeypatch, sink):
    built = fanout(3000)
    printed = len(format_circuit(built, name="fanout"))
    monkeypatch.setattr(cli, "fanout", lambda n: built)
    assert cli.run(["construct", "fanout", "3000"]) == 0
    assert peak_of(lambda: cli.run(["construct", "fanout", "3000"])) < 4 * printed
