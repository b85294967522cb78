"""Text formats: round trips and error reporting."""

import io

import pytest
from hypothesis import example, given, reject, settings, strategies as st

import oracles
from cnotcalc import lexing

from cnotcalc.circuit import (
    GATES, Circuit, CircuitError, Gate, circuit, cnot, init0, init1, notg, post0, post1, swap,
)
from cnotcalc.normalize import Clause, ClausalForm
from cnotcalc.relation import ENUMERATION_LIMIT, AffineRelation
from cnotcalc.formats import (
    FormatError,
    _column_of,
    _int,
    format_circuit,
    format_relation,
    format_system,
    parse_circuit,
    parse_derivation,
    parse_relation,
    parse_synth_input,
    parse_system,
)
from cnotcalc.fuzzing import random_circuit, trial_rng
from cnotcalc.semantics_reader import parse_semantics
from cnotcalc.gf2 import BitVec, GF2Matrix
from cnotcalc.synth import AffineMapSpec, synth_total_graph
from oracles import enumerate_graph, layout_affine_block


class TestCircuitFormat:
    def test_print_parse_roundtrip(self):
        for i in range(25):
            rng = trial_rng(101, i)
            c = random_circuit(rng, rng.randrange(5), 15)
            name, back = parse_circuit(format_circuit(c, name="t"))
            assert name == "t" and back == c

    def test_macros_accepted_and_expanded(self):
        text = """\
# a one-wire inverter built from macros
circuit inv : 1 -> 1
not 0
end
"""
        _, c = parse_circuit(text)
        assert c == circuit(1, notg(0))

    def test_comments_and_blanks_ignored(self):
        text = "circuit x : 2 -> 2\n\n# nothing\ncnot 0 1  # flip\nend\n"
        _, c = parse_circuit(text)
        assert c == circuit(2, cnot(0, 1))

    def test_header_mismatch_caught(self):
        with pytest.raises(FormatError, match="outputs"):
            parse_circuit("circuit x : 1 -> 3\ninit1 0\nend\n")

    def test_bad_gate_line_reports_position(self):
        with pytest.raises(FormatError, match="line 2"):
            parse_circuit("circuit x : 1 -> 1\ncnot 0\nend\n")

    def test_invalid_width_trace_caught(self):
        with pytest.raises(FormatError, match="^line 2, column 1: gate 0 cnot.*out of range"):
            parse_circuit("circuit x : 1 -> 1\ncnot 0 1\nend\n")
        # a macro line covers all of its gates, blank and comment lines none
        text = "circuit x : 1 -> 1\n# c\n\nnot 0\ninit0 1\n\nswap 0 1\nnot 5\nend\n"
        with pytest.raises(FormatError, match=r"^line 8, column 1: gate 8 init1\(5\)"):
            parse_circuit(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("circuit x : 8 -> 8\ncnot 3 3\nend\n", "line 2, column 1: cnot(3, 3): control equals target"),
            ("circuit x : 1 -> 1\nnot -1\nend\n", "line 2, column 1: init1(-1): negative wire index"),
            ("circuit x : 2 -> 2\nswap 0 -2\nend\n", "line 2, column 1: swap(0, -2): negative wire index"),
            # reported although line 2 has a width error: every distinct line
            # is built before the widths are checked
            ("circuit x : 1 -> 1\ncnot 0 1\npost1 -1\nend\n", "line 3, column 1: post1(-1): negative wire index"),
            # wires 3 and 1 are known when line 4 is met: the direct path
            ("circuit x : 4 -> 4\ncnot 3 1\n\ncnot 3 3\ncnot 3 3\nend\n", "line 4, column 1: cnot(3, 3): control equals target"),
        ],
    )
    def test_gate_that_no_width_admits(self, text, message):
        with pytest.raises(FormatError) as info:
            parse_circuit(text)
        assert str(info.value) == message

    def test_missing_end(self):
        with pytest.raises(FormatError, match="end"):
            parse_circuit("circuit x : 1 -> 1\nnot 0\n")

    def test_repeated_lines_parse_like_distinct_ones(self):
        lines = ["cnot 0 1", "swap 1 2", "cnot 0 1", "not 2", "  cnot 0 1  # again"]
        lines += ["init0 0", "post0 0", "not 2", "swap 1 2", "cnot 2 0"]
        text = "circuit r : 3 -> 3\n" + "\n".join(lines) + "\nend\n"
        _, c = parse_circuit(text)
        expected = circuit(
            3, cnot(0, 1), swap(1, 2), cnot(0, 1), notg(2), cnot(0, 1),
            init0(0), post0(0), notg(2), swap(1, 2), cnot(2, 0),
        )
        assert c.gates == expected.gates

    def test_bad_integer_on_repeated_line_reports_first_occurrence(self):
        text = "circuit x : 2 -> 2\ncnot 0 1\ncnot 0  z1\ncnot 0  z1\nend\n"
        with pytest.raises(FormatError) as info:
            parse_circuit(text)
        assert str(info.value) == "line 3, column 9: expected an integer, got 'z1'"


# uniform (st.integers favours 0), with bools and floats that equal ints
# but would print as lines no parser reads back: they must not build
_WIRE = st.sampled_from([*range(-2, 8), False, True, 1.0, 2.0])


@st.composite
def built_circuits(draw):
    """A circuit of gates from the four builders and from ``Gate(kind, args)``
    over wires -2..7, bools and floats, keeping each gate that builds and
    fits its width, on an input arity that builds."""
    try:
        c = Circuit(draw(st.sampled_from([*range(9), False, True, 2.0])))
    except CircuitError:
        reject()
    for kind in draw(st.lists(st.sampled_from(["cnot", "swap", "init1", "post1"]), max_size=12)):
        builder, arity, _ = GATES[kind]
        args = st.tuples(*[_WIRE] * arity)
        try:
            if draw(st.booleans()):
                g = builder(*draw(args))
            else:
                g = Gate(kind, draw(st.one_of(args, st.lists(_WIRE, max_size=3).map(tuple))))
            c = Circuit(c.n_in, c.gates + (g,))
        except CircuitError:
            pass
    return c


_random_circuits = st.builds(
    lambda seed, n, depth: random_circuit(trial_rng(seed, 0), n, depth),
    st.integers(0, 10**6), st.integers(0, 6), st.integers(0, 25),
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(built_circuits(), _random_circuits))
def test_every_circuit_round_trips(c):
    assert parse_circuit(format_circuit(c))[1] == c


def old_format_relation(r):
    """``format_relation`` as it was: every column of every row tested."""
    n, m = r.n_in, r.n_out
    lines = [f"graph {n} {m}"]
    for row in r.constraint_masks:
        terms = [f"x{j}" for j in range(n) if (row >> j) & 1]
        terms += [f"y{j}" for j in range(m) if (row >> (n + j)) & 1]
        rhs = (row >> (n + m)) & 1
        lines.append(" ".join(["parity", *terms, "=", str(rhs)]))
    return "\n".join(lines) + "\n"


@st.composite
def wide_relations(draw):
    """Relations of up to 300 + 300 variables: sparse rows of one to three
    terms, a few dense rows, sometimes x_j = y_j for every j both sides
    have, and now and then the row 0 = 1."""
    n, m = draw(st.integers(0, 300)), draw(st.integers(0, 300))
    nv = n + m
    bit = st.integers(0, max(nv, 1) - 1).map(lambda j: 1 << j) if nv else st.just(0)
    rows = [
        sum(set(draw(st.lists(bit, min_size=1, max_size=3)))) | draw(st.integers(0, 1)) << nv
        for _ in range(draw(st.integers(0, 40)))
    ]
    rows += draw(st.lists(st.integers(0, (1 << (nv + 1)) - 1), max_size=4))
    if draw(st.booleans()):
        rows += [(1 << j) | (1 << (n + j)) for j in range(min(n, m))]
    if draw(st.integers(0, 9)) == 0:
        rows.append(1 << nv)
    return AffineRelation(n, m, rows)


class TestRelationFormat:
    def test_fanout_canonical_text(self):
        rel = circuit(1, init0(0), cnot(1, 0)).semantics()
        assert format_relation(rel) == "graph 1 2\nparity x0 y1 = 0\nparity y0 y1 = 0\n"

    def test_empty_relation_text(self):
        text = format_relation(AffineRelation.empty(1, 1))
        assert text == "graph 1 1\nparity = 1\n"
        assert parse_relation(text) == AffineRelation.empty(1, 1)

    def test_roundtrip_random(self):
        for i in range(25):
            rng = trial_rng(102, i)
            rel = random_circuit(rng, rng.randrange(5), 15).semantics()
            assert parse_relation(format_relation(rel)) == rel

    def test_bad_variable_reported(self):
        with pytest.raises(FormatError, match="z0"):
            parse_relation("graph 1 1\nparity z0 = 1\n")

    @settings(deadline=None, max_examples=60)
    @given(wide_relations())
    def test_set_bits_match_column_scan(self, rel):
        assert format_relation(rel) == old_format_relation(rel)

    def test_set_bits_on_the_widest_identity(self):
        rel = AffineRelation.identity(300)
        assert format_relation(rel) == old_format_relation(rel)

    def test_out_of_range_variable(self):
        with pytest.raises(FormatError, match="out of range"):
            parse_relation("graph 1 1\nparity y3 = 0\n")

    def test_bad_rhs_reports_its_own_column(self):
        with pytest.raises(FormatError) as info:
            parse_relation("graph 1 1\nparity x0 y0 = z\n")
        assert str(info.value) == "line 2, column 16: expected an integer, got 'z'"


class TestSystemFormat:
    def test_roundtrip(self):
        cf = ClausalForm(
            3, (Clause(frozenset({0, 2}), 1), Clause(frozenset({1}), 0))
        )
        assert parse_system(format_system(cf)) == cf

    def test_unsat_clause(self):
        cf = ClausalForm(2, (Clause(frozenset(), 1),))
        text = format_system(cf)
        assert "parity = 1" in text
        assert parse_system(text) == cf

    def test_bad_rhs_reports_its_own_column(self):
        with pytest.raises(FormatError) as info:
            parse_system("system 1\nparity 0 = 2\n")
        assert str(info.value) == "line 2, column 12: right-hand side must be 0 or 1"


@st.composite
def affine_files(draw, width=10):
    """(n, m, matrix rows, shift, parity lines) of an ``affine`` file with
    n, m <= ``width`` and 0-4 parity lines, each a tuple of distinct wires
    and an rhs; small n makes some sets of parity lines inconsistent."""
    n, m = draw(st.integers(0, width)), draw(st.integers(0, width))

    def bits(k):
        return st.lists(st.integers(0, 1), min_size=k, max_size=k)

    matrix = draw(st.lists(bits(n), min_size=m, max_size=m))
    parity = st.tuples(
        st.lists(st.integers(0, max(n - 1, 0)), unique=True, max_size=n).map(tuple)
        if n else st.just(()),
        st.integers(0, 1),
    )
    return n, m, matrix, draw(bits(m)), draw(st.lists(parity, max_size=4))


def affine_text(case):
    n, m, matrix, shift, parities = case
    text = f"affine {n} {m}\n"
    text += "".join("row " + " ".join(map(str, row)) + "\n" for row in matrix)
    text += "shift " + " ".join(map(str, shift)) + "\n"
    text += "".join(
        " ".join(["parity", *map(str, wires), "=", str(rhs)]) + "\n"
        for wires, rhs in parities
    )
    return text + "end\n"


class TestSynthInput:
    def test_graph_header_dispatches(self):
        rel = parse_synth_input("graph 1 1\nparity x0 y0 = 1\n")
        assert rel == AffineRelation(1, 1, [0b011 | (1 << 2)])

    def test_affine_block(self):
        text = """\
affine 2 1
row 1 1
shift 1
end
"""
        rel = parse_synth_input(text)
        # inputs preserved: (x0, x1) -> (x0, x1, x0 + x1 + 1)
        assert rel.n_in == 2 and rel.n_out == 3
        got = {(tuple(x), tuple(y)) for x, y in enumerate_graph(rel)}
        assert got == {
            ((a, b), (a, b, a ^ b ^ 1)) for a in (0, 1) for b in (0, 1)
        }

    def test_affine_block_with_domain(self):
        text = "affine 1 1\nrow 1\nshift 0\nparity 0 = 1\nend\n"
        rel = parse_synth_input(text)
        got = {(tuple(x), tuple(y)) for x, y in enumerate_graph(rel)}
        assert got == {((1,), (1, 1))}

    def test_row_count_checked(self):
        with pytest.raises(FormatError, match="row"):
            parse_synth_input("affine 2 2\nrow 1 0\nshift 0 0\nend\n")

    def test_repeated_shift_rejected_at_the_repeat(self):
        with pytest.raises(FormatError) as info:
            parse_synth_input("affine 2 1\nrow 1 0\nshift 0\nshift 1\nend\n")
        assert str(info.value) == "line 4, column 1: repeated 'shift' line"

    @settings(deadline=None)
    @given(affine_files())
    @example((1, 1, [[1]], [0], [((0,), 0), ((0,), 1)]))  # inconsistent domain
    @example((2, 0, [], [], [((), 1)]))  # 'parity = 1' alone
    @example((0, 0, [], [], []))
    def test_affine_block_is_restricted_graph(self, case):
        """One system for the affine block equals the restriction to the
        parity lines composed with the graph of the map."""
        n, m, matrix, shift, parities = case
        spec = AffineMapSpec(GF2Matrix(matrix, cols=n), BitVec(shift))
        dom = [sum(1 << w for w in wires) | rhs << n for wires, rhs in parities]
        want = AffineRelation.restriction_on(n, dom).compose(spec.graph_relation())
        assert parse_synth_input(affine_text(case)) == want

    @settings(deadline=None)
    @given(affine_files(width=40))
    def test_affine_block_matches_its_old_layout(self, case):
        n, m, matrix, shift, parities = case
        map_rows = [sum(b << j for j, b in enumerate(row)) for row in matrix]
        dom = [sum(1 << w for w in wires) | rhs << n for wires, rhs in parities]
        want = layout_affine_block(n, map_rows, sum(b << i for i, b in enumerate(shift)), dom)
        assert parse_synth_input(affine_text(case)) == want

    @settings(deadline=None)
    @given(affine_files())
    def test_graph_relation_is_the_synthesized_graph(self, case):
        n, m, matrix, shift, _ = case
        spec = AffineMapSpec(GF2Matrix(matrix, cols=n), BitVec(shift))
        assert spec.graph_relation() == synth_total_graph(spec).semantics()

    def test_system_header_gives_idempotent(self):
        rel = parse_synth_input("system 2\nparity 0 1 = 1\n")
        got = {(tuple(x), tuple(y)) for x, y in enumerate_graph(rel)}
        assert got == {((0, 1), (0, 1)), ((1, 0), (1, 0))}


class TestDerivationFormat:
    def test_parse(self):
        steps = parse_derivation("CNT2 0 lr\n# comment\nomega-absorb 3 rl\n")
        assert steps == [("CNT2", 0, "lr"), ("omega-absorb", 3, "rl")]

    def test_bad_direction(self):
        with pytest.raises(FormatError, match="direction"):
            parse_derivation("CNT2 0 up\n")


class TestStrictIntegers:
    """Every integer is ``-?[0-9]+``.  ``int()`` would also read a ``+``
    sign, ``_`` separators and non-ASCII digits."""

    @pytest.mark.parametrize(
        "parse, text, where, token",
        [
            (parse_circuit, "circuit x : 2 -> 2\ncnot 1_0 +0\nend\n", "line 2, column 6", "1_0"),
            (parse_circuit, "circuit x : 2 -> 2\ncnot 0 +1\nend\n", "line 2, column 8", "+1"),
            (parse_circuit, "circuit x : 2 -> 2\ncnot ١ 0\nend\n", "line 2, column 6", "١"),
            (parse_circuit, "circuit x : +2 -> 2\nend\n", "line 1, column 13", "+2"),
            (parse_relation, "graph 2 1\nparity x+1 y0 = 0\n", "line 2, column 8", "+1"),
            (parse_relation, "graph 1 1\nparity x0 y0 = +1\n", "line 2, column 16", "+1"),
            (parse_relation, "graph 1_0 1\n", "line 1, column 7", "1_0"),
            (parse_system, "system 2\nparity ١ = 1\n", "line 2, column 8", "١"),
            (parse_synth_input, "affine 1 1\nrow +1\nshift 0\nend\n", "line 2, column 5", "+1"),
            (parse_synth_input, "affine 1 1\nrow 1\nshift 0_0\nend\n", "line 3, column 7", "0_0"),
            (parse_derivation, "CNT2 +0 lr\n", "line 1, column 6", "+0"),
        ],
        ids=[
            "circuit-underscore", "circuit-plus", "circuit-arabic-digit", "circuit-header",
            "graph-term", "graph-rhs", "graph-header", "system", "affine-row",
            "affine-shift", "derivation",
        ],
    )
    def test_rejected_with_its_location(self, parse, text, where, token):
        with pytest.raises(FormatError) as info:
            parse(text)
        assert str(info.value) == f"{where}: expected an integer, got {token!r}"

    LONG = "7" * 5000  # past the digits int() converts

    @pytest.mark.parametrize(
        "parse, text, where",
        [
            (parse_circuit, f"circuit x : 2 -> 2\ncnot 0 {LONG}\nend\n", "line 2, column 8"),
            (parse_circuit, f"circuit x : -{LONG} -> 2\nend\n", "line 1, column 13"),
            (parse_relation, f"graph 1 1\nparity x{LONG} y0 = 0\n", "line 2, column 8"),
            (parse_synth_input, f"affine 1 1\nrow {LONG}\nshift 0\nend\n", "line 2, column 5"),
            (parse_derivation, f"CNT2 {LONG} lr\n", "line 1, column 6"),
        ],
        ids=["circuit-gate", "circuit-header", "graph-term", "affine-row", "derivation"],
    )
    def test_too_long_with_its_location(self, parse, text, where):
        with pytest.raises(FormatError) as info:
            parse(text)
        assert str(info.value) == f"{where}: integer too long (5000 digits)"

    def test_minus_sign_still_read(self):
        assert parse_derivation("CNT2 -1 lr\n") == [("CNT2", -1, "lr")]


class TestCircuitHeaderArity:
    @pytest.mark.parametrize(
        "text, where, arity",
        [
            ("circuit x : -1 -> 0\nfoo\nend\n", "line 1, column 13", -1),
            ("circuit x : 0 -> -2\nend\n", "line 1, column 18", -2),
            ("\n# c\ncircuit x : -3 -> -3\n", "line 3, column 13", -3),
        ],
    )
    def test_negative_arity_fails_at_the_header(self, text, where, arity):
        # before any gate line is read: 'foo' and a missing 'end' go unreported
        with pytest.raises(FormatError) as info:
            parse_circuit(text)
        assert str(info.value) == f"{where}: arity must be nonnegative, got {arity}"


# -- the bulk circuit parser versus the line-by-line one it replaced ----------

_OLD_ARITY = {"cnot": 2, "swap": 2, "init1": 1, "post1": 1, "init0": 1, "post0": 1, "not": 1}
_OLD_BUILDERS = {
    "cnot": cnot, "swap": swap, "init1": init1, "post1": post1,
    "init0": init0, "post0": post0, "not": notg,
}


def old_parse_circuit(text):
    """The parser as it was: one logical line at a time, in file order."""
    lines = []
    for i, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            lines.append((i, body))
    if not lines:
        raise FormatError("empty circuit file", 1)
    lineno, header = lines[0]
    tokens = header.split()
    if len(tokens) != 6 or tokens[0] != "circuit" or tokens[2] != ":" or tokens[4] != "->":
        raise FormatError("expected header 'circuit <name> : <n_in> -> <n_out>'", lineno)
    name = tokens[1]
    n_in = _int(tokens[3], lineno, header, 3)
    n_out = _int(tokens[5], lineno, header, 5)
    for k, i in ((n_in, 3), (n_out, 5)):  # checked before any gate line
        if k < 0:
            raise FormatError(
                f"arity must be nonnegative, got {k}", lineno, _column_of(header, i)
            )
    gates = []
    origins = []  # the line number of each gate
    terminated = False
    for lineno, body in lines[1:]:
        if body == "end":
            terminated = True
            break
        tokens = body.split()
        kind = tokens[0]
        if kind not in _OLD_BUILDERS:
            raise FormatError(f"unknown gate {kind!r}", lineno)
        if len(tokens) != 1 + _OLD_ARITY[kind]:
            raise FormatError(f"gate {kind} takes {_OLD_ARITY[kind]} argument(s)", lineno)
        args = [_int(t, lineno, body, i) for i, t in enumerate(tokens[1:], 1)]
        try:
            built = _OLD_BUILDERS[kind](*args)
        except CircuitError as e:  # a gate that no width admits
            raise FormatError(str(e), lineno) from None
        built = built if isinstance(built, tuple) else (built,)
        gates.extend(built)
        origins += [lineno] * len(built)
    if not terminated:
        raise FormatError("missing 'end' terminator", lines[-1][0])
    try:
        c = Circuit(n_in, gates)
    except CircuitError as e:
        raise FormatError(str(e), origins[e.index]) from None
    if c.n_out != n_out:
        raise FormatError(
            f"header declares {n_in} -> {n_out} but gates yield {c.n_out} outputs",
            lines[0][0],
        )
    return name, c


def outcome(parse, text):
    """What a parse gives: the circuit, or the exception's type and text."""
    try:
        name, c = parse(text)
    except Exception as e:
        return type(e), str(e)
    return name, c.n_in, c.gates, c.n_out


_WIDTH_CHANGE = {"cnot": 0, "swap": 0, "not": 0, "init1": 1, "init0": 1, "post1": -1, "post0": -1}
_BAD_LINES = [
    "foo 1", "CNOT 0 1", "circuit x : 1 -> 1", "cnot 0", "not", "swap 0 1 2",
    "cnot 0 x", "init1 -", "post0 1.0", "cnot\t1\t1_0x", "init0 ++1", "end now",
    "cnot 1_0 +0", "swap \u0661 0", "init1 +0", "post1 0_0",
]
_BAD_HEADERS = [
    "circuit x : 2 > 2", "circuit x 2 -> 2", "circuit x : a -> 1", "circuit x : 1 -> b",
    "graph 1 1", "end", "circuit x : -1 -> 0", "circuit : 1 -> 1",
    "circuit x : 1 -> -1", "circuit x : +1 -> 1", "circuit x : 1_0 -> 10",
]


PERCENT = st.sampled_from(range(100))  # uniform; st.integers favours 0


@st.composite
def circuit_files(draw, wires=(0, 4)):
    """(text, body lines) of a circuit file on ``wires[0]`` to ``wires[1]``
    input wires: mostly gates legal at the running width, in varied
    spacing, with comments, blank lines, macros, repeats of the file's own
    lines, sometimes a gate out of range, a malformed line, a bad header, a
    wrong n_out, a missing 'end' or text after it; mixed line endings."""
    n_in = draw(st.integers(*wires))
    width = n_in
    bodies = []
    for _ in range(draw(st.integers(0, 24))):
        roll = draw(PERCENT)
        if roll < 12 and bodies:
            line = draw(st.sampled_from(bodies))
        elif roll < 22:
            line = draw(st.sampled_from(["", "   ", "# note", "\t# x = 1", "#"]))
        elif roll < 25:
            line = draw(st.sampled_from(_BAD_LINES))
        else:
            kinds = [k for k, d in _WIDTH_CHANGE.items() if width + d >= 0]
            kinds = [k for k in kinds if k not in ("cnot", "swap") or width >= 2]
            kinds = [k for k in kinds if k != "not" or width >= 1]
            kind = draw(st.sampled_from(kinds))
            top = width + 1 if kind.startswith("init") else width
            if roll < 28:
                top += 2  # may leave the register: a validation error
            args = draw(st.lists(st.integers(0, max(top - 1, 0)), min_size=_OLD_ARITY[kind],
                                 max_size=_OLD_ARITY[kind], unique=True))
            if len(args) < _OLD_ARITY[kind]:
                continue
            width += _WIDTH_CHANGE[kind]
            sep = draw(st.sampled_from([" ", " ", "  ", "\t"]))
            line = sep.join([kind, *map(str, args)])
            line = draw(st.sampled_from(["", " ", "\t"])) + line
            line += draw(st.sampled_from(["", "", " ", "  # c", "#x"]))
        bodies.append(line)
    header = f"circuit f{len(bodies)} : {n_in} -> {width}"
    roll = draw(PERCENT)
    if roll >= 92:
        header = draw(st.sampled_from(_BAD_HEADERS))
    elif roll >= 84:
        header = f"circuit f : {n_in} -> {width + 1}"
    lines = [draw(st.sampled_from(["", "# file", "  "])) for _ in range(draw(st.integers(0, 2)))]
    lines += [header, *bodies]
    if draw(PERCENT) < 90:
        lines.append(draw(st.sampled_from(["end", "  end", "end # done"])))
        lines += draw(st.lists(st.sampled_from(["cnot 0 0", "junk", "", "end"]), max_size=3))
    ends = draw(st.lists(st.sampled_from(["\n", "\n", "\r\n", "\r", "\x0c"]),
                         min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    if draw(st.booleans()) and text.endswith("\n"):
        text = text[:-1]  # no newline at the end of the file
    return text, bodies


_ODD_SPELLINGS = ["0{k}", "00{k}", "+{k}", "-{k}", "{k}_0", "٢", "-0"]
_SEPARATORS = [" ", " ", "\t", "  ", " \t ", "\t\t"]


def spell(draw, k):
    """The wire number k as a file may write it: mostly canonically."""
    if draw(PERCENT) < 85:
        return str(k)
    return draw(st.sampled_from(_ODD_SPELLINGS)).format(k=k)


def respell(draw, line):
    """The gate line, written with other spacing, spellings and comments."""
    kind, *args = line.split()
    sep = draw(st.sampled_from(_SEPARATORS))
    text = sep.join([kind, *(spell(draw, int(a)) for a in args)])
    return draw(st.sampled_from(["", " ", "\t"])) + text + draw(
        st.sampled_from(["", " ", "# c", "  #x 1 2"])
    )


@st.composite
def wide_files(draw, canonical=False):
    """(text, body lines) of a circuit file on 256 to 300 wires whose gates
    lie mostly on wires 250 and up: a cnot or swap of a wire with itself at
    times, and with ``canonical`` unset, odd spellings of wire numbers
    (``007``, ``-0``, ``+1``, ``1_0``, a non-ASCII digit), tabs and runs of
    spaces, and ``#`` in the middle of a line or on a last line with no line
    break after it."""
    n_in = draw(st.integers(256, 300))
    width = n_in
    bodies = []
    for _ in range(draw(st.integers(0, 30))):
        if bodies and draw(PERCENT) < 15:
            bodies.append(draw(st.sampled_from(bodies)))
            continue
        kinds = [k for k, d in _WIDTH_CHANGE.items() if width + d >= 251]
        kind = draw(st.sampled_from(kinds))
        top = width + 1 if kind.startswith("init") else width
        args = [draw(st.integers(250, top - 1)) for _ in range(_OLD_ARITY[kind])]
        if len(args) == 2 and draw(PERCENT) < 5:
            args[1] = args[0]
        width += _WIDTH_CHANGE[kind]
        if canonical:
            line = " ".join([kind, *map(str, args)])
        else:
            sep = draw(st.sampled_from(_SEPARATORS))
            line = sep.join([kind, *(spell(draw, k) for k in args)])
            line += draw(st.sampled_from(["", "", "\t", " # c 1", "#x"]))
        bodies.append(line)
    lines = [f"circuit w : {n_in} -> {width}", *bodies, "end"]
    text = "\n".join(lines) + "\n"
    if not canonical:
        text += draw(st.sampled_from(["", "# tail", "#", "\n# tail\n"]))
    return text, bodies


class TestBulkParserMatchesOld:
    @settings(max_examples=200, deadline=None)
    @given(circuit_files())
    @example(("", []))
    @example(("# only a comment\n\n", []))
    @example(("circuit x : 1 -> 1\n", []))
    @example(("circuit x : 1 -> 1\nnot 0\n\n# tail\n  \n", []))
    @example(("circuit x : 1 -> 1\r\nnot 0\r\nend\r\n", []))
    @example(("circuit x : 2 -> 2\ncnot 0 1\ncnot 0 q\ncnot 0 q\nfoo\n", []))
    def test_one_file(self, file):
        text, _ = file
        assert outcome(parse_circuit, text) == outcome(old_parse_circuit, text)

    def test_error_in_second_file_after_shared_lines(self):
        b = "circuit b : 2 -> 2\n\nswap 0 1\ncnot 0 1\ncnot 1 z\nend\n"
        with pytest.raises(FormatError) as info:
            parse_circuit(b)
        assert str(info.value) == "line 5, column 8: expected an integer, got 'z'"
        assert outcome(parse_circuit, b) == outcome(old_parse_circuit, b)

    @pytest.mark.parametrize(
        "brk", ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    )
    def test_comment_ends_at_every_line_break(self, brk):
        # each line break that str.splitlines splits at ends a comment, and
        # a comment between "\r" and "\n" keeps them two line breaks
        lines = ["circuit x : 2 -> 2", "# c", "cnot 0 1 # c", "", "#", "cnot 0 q", "end"]
        for text, line in [(brk.join(lines), 6), ("\r# c\n".join(lines), 11)]:
            assert outcome(parse_circuit, text) == outcome(old_parse_circuit, text)
            assert outcome(parse_circuit, text)[1].startswith(f"line {line}, column 8:")
        with pytest.raises(FormatError, match="^line 3, column 8:"):
            parse_derivation(brk.join(["CNT2 0 lr #c", "#", "CNT2 0 up"]))

    # The direct path builds a primitive line whose wire numbers are all in
    # the call's table of canonical ones; every other line takes the general
    # path.  These files mix the two, on wide registers, in odd spellings.

    @pytest.mark.parametrize("token", ["007", "-0", "-3", "+1", "1_0", "٢", "0", "300"])
    @pytest.mark.parametrize("kind", ["cnot", "swap", "init1", "post1", "not"])
    def test_spelling_after_canonical_lines(self, kind, token):
        # the canonical numbers are in the table before the odd one is met
        arity = _OLD_ARITY[kind]
        other = ["cnot 7 1", "swap 3 0", "init1 300", "post1 2", "cnot 300 2", "swap 1 7"]
        line = " ".join([kind, *[token] * arity])
        mixed = " ".join([kind, token, "1"][: 1 + arity])
        for body in (line, mixed):
            text = "\n".join(["circuit x : 301 -> 301", *other, body, *other, "end"])
            assert outcome(parse_circuit, text) == outcome(old_parse_circuit, text)

    @settings(max_examples=150, deadline=None)
    @given(wide_files())
    @example(("circuit x : 8 -> 8\ncnot 3 3\nend\n", []))
    @example(("circuit x : 8 -> 8\nswap 1 2\nswap 5 5\nend\n", []))
    @example(("circuit x : 300 -> 300\ncnot 299 256\ncnot 299\t\t256\nend\n# tail", []))
    @example(("circuit x : 300 -> 300\ncnot 299 256 # c\ncnot 299#c 256\nend\n#", []))
    @example(("circuit x : 2 -> 2\r# c\nend\r#", []))
    def test_wide_file(self, file):
        text, _ = file
        assert outcome(parse_circuit, text) == outcome(old_parse_circuit, text)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_respelled_lines_after_canonical_ones(self, data):
        # a's gates, lines that bring the width back to a's input width,
        # then a's gates again with each line spelled anew: few of the
        # respelled bodies are in the memo, and their wire numbers meet the
        # table that the canonical lines filled
        a, a_lines = data.draw(wide_files(canonical=True))
        header, *rest = a.splitlines()
        n_in = int(header.split()[3])
        width = n_in + sum(_WIDTH_CHANGE[line.split()[0]] for line in a_lines)
        back = [f"init1 {width}"] * (n_in - width) + [f"post1 {n_in}"] * (width - n_in)
        respelled = [respell(data.draw, line) for line in a_lines]
        text = "\n".join([header, *a_lines, *back, *respelled, *rest[len(a_lines):]]) + "\n"
        assert outcome(parse_circuit, text) == outcome(old_parse_circuit, text)



# Line ends that str.splitlines splits at, a comment ends at, and a window
# of the reader never ends after, save "\n".
_LINE_ENDS = ["\n", "\n", "\r\n", "\r", "\x0b", "\x0c", "\u2028"]


@st.composite
def rejoined_files(draw):
    """(text, body lines) of ``circuit_files``, its lines joined again with
    any of ``_LINE_ENDS``, and at times a gate out of range followed by a
    line that no width admits."""
    text, bodies = draw(circuit_files())
    lines = text.splitlines()
    if draw(PERCENT) < 25:
        at = draw(st.integers(0, len(lines)))
        lines[at:at] = [draw(st.sampled_from(["cnot 0 9", "post1 9", "init1 9"])),
                        draw(st.sampled_from(["cnot 2 2", "swap 1 1", ""]))]
    ends = draw(st.lists(st.sampled_from(_LINE_ENDS), min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    if draw(st.booleans()):
        text = text[:-1]  # no line end after the last line
    return text, bodies


class TestWindowedReaderMatchesOld:
    """``parse_circuit`` reads a window of lines at a time, cut just after a
    line feed; at any window size it gives what the parser that read every
    line at once gave, errors at the same line and column."""

    WINDOWS = [1, 2, 7, 64, 1 << 14, lexing._WINDOW]

    @settings(max_examples=200, deadline=None)
    @given(rejoined_files())
    @example(("\n\n# c\r\n  \ncircuit x : 1 -> 1\nnot 0 # c\r\nend\n", []))
    @example(("circuit x : 2 -> 2\ncnot 0 1\ncnot +1 0\nend\n", []))
    @example(("circuit x : 2 -> 2\ncnot 0 1_0\nend\n", []))
    @example(("circuit x : 2 -> 2\r\ncnot 0 9\ncnot 1 1\nend\n", []))
    @example(("circuit x : 2 -> 2\ncnot 0 9\nend\n", []))
    @example(("circuit x : 2 -> 2\ncnot 0 1\n\n# no end\n\n", []))
    @example(("circuit x : 2 -> 2\nend\nfoo\ncnot 0 0\n", []))
    @example(("circuit x : 2 -> 2\u2028cnot 0 1\x0bswap 0 1\x0cfoo\rend", []))
    def test_one_file(self, file):
        text, _ = file
        expected = outcome(oracles.old_parse_circuit, text)
        for window in self.WINDOWS:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(lexing, "_WINDOW", window)
                assert outcome(parse_circuit, text) == expected

    # Sizes, in bytes and in characters, of the reads of an opened file.
    CHUNKS = [1, 2, 7, 64, 1 << 14]

    @staticmethod
    def opened(text: str, size: int = 8192, newline=None) -> io.TextIOWrapper:
        """``text`` as a file opened for reading as UTF-8, that reads
        ``size`` bytes from disk and decodes ``size`` characters at a time:
        under ``newline=None`` line ends are translated, under ``""`` not."""
        raw = io.BufferedReader(io.BytesIO(text.encode("utf-8")), buffer_size=size)
        fh = io.TextIOWrapper(raw, encoding="utf-8", newline=newline)
        fh._CHUNK_SIZE = size
        return fh

    @settings(max_examples=200, deadline=None)
    @given(rejoined_files())
    @example(("circuit x : 1 -> 1\r\nnot 0 # c\r\n\r\nend\r\n", []))
    @example(("circuit x : 2 -> 2\r\ncnot 0 9\r\ncnot 1 1\rend\n", []))
    @example(("circuit x : 2 -> 2\ncnot 0 1\r\n\r# no end\r\n", []))
    @example(("circuit x : 2 -> 2\nend\nfoo\ncnot 0 0\n", []))
    def test_one_file_in_chunks(self, file):
        text, _ = file
        read = self.opened(text).read()
        for whole, newline in [(text, ""), (read, None)]:
            expected = outcome(oracles.old_parse_circuit, whole)
            for size in self.CHUNKS:
                for window in self.WINDOWS:
                    with pytest.MonkeyPatch.context() as patch:
                        patch.setattr(lexing, "_WINDOW", window)
                        fh = self.opened(text, size, newline)
                        assert outcome(parse_circuit, fh) == expected


# Lines that make a circuit file wrong at a width, or at every width, or
# its relation empty: ``init0 0`` puts a wire holding 0 at the bottom, and
# ``post1 0`` selects it on 1.
_DETOURS = ["cnot 0 199", "post1 199", "init1 199", "swap 198 0", "cnot 2 2", "swap 1 1",
            "init0 0\npost1 0", "not 1\ninit0 0\n# c\npost1 0\ncnot 0 1"]


@st.composite
def streamed_files(draw):
    """The text of a ``circuit_files`` file past 20 wires, and past the 64
    that a reader builds first, among whose gate lines up to three lines or
    groups of lines are put: a gate out of range, post-selections that
    empty the relation, or a malformed line, so each of them is met before
    and after the others."""
    text, bodies = draw(circuit_files(wires=(ENUMERATION_LIMIT + 1, 150)))
    lines = text.splitlines()
    header = next(i for i, line in enumerate(lines) if line.split("#")[0].strip())
    extras = st.one_of(st.sampled_from(_DETOURS), st.sampled_from(_BAD_LINES))
    for extra in draw(st.lists(extras, max_size=3)):
        at = draw(st.integers(header + 1, header + 1 + len(bodies)))  # among the gate lines
        lines[at:at] = extra.split("\n")
        bodies += extra.split("\n")
    ends = draw(st.lists(st.sampled_from(_LINE_ENDS), min_size=len(lines), max_size=len(lines)))
    return "".join(line + end for line, end in zip(lines, ends))


def semantics_outcome(read, source):
    """What reading a circuit file's relation gives: its name and relation,
    or the exception's type and text."""
    try:
        return read(source)
    except Exception as e:
        return type(e), str(e)


def parsed_semantics(source):
    name, c = parse_circuit(source)
    return name, c.semantics()


class TestStreamedSemanticsMatchesParse:
    """``parse_semantics`` runs each gate line as it splits it and holds no
    gate list; at any window size, from a text or an open file, it
    gives what ``parse_circuit`` and ``Circuit.semantics`` give, and raises
    the errors they raise, in the same order: a malformed line or a missing
    'end' anywhere before a gate out of range, and a wrong n_out last."""

    WINDOWS = [1, 2, 7, 64, 1 << 12]

    @settings(max_examples=200, deadline=None)
    @given(streamed_files())
    @example("circuit x : 21 -> 21\ncnot 0 99\nfoo\nend\n")
    @example("circuit x : 21 -> 21\ncnot 0 99\ncnot 3 3\nend\n")
    @example("circuit x : 21 -> 21\ncnot 2 1\nswap 1 2\ncnot 2 2\nend\n")
    @example("circuit x : 21 -> 21\ncnot 0 99\ncnot 0 1\n")
    @example("circuit x : 21 -> 21\ninit0 0\npost1 0\ncnot 0 99\nend\n")
    @example("circuit x : 21 -> 21\ninit0 0\npost1 0\nfoo\nend\n")
    @example("circuit x : 21 -> 20\ninit0 0\npost1 0\nend\n")
    @example("circuit x : 21 -> 22\nnot 20\n\n# c\ninit1 21\ncnot 21 0\nend\n")
    @example("circuit x : 21 -> 21\nnot 20\n\n# c\ninit0 23\nend\n")
    @example("circuit x : 21 -> 22\ninit1 22\nend\n")
    @example("circuit x : 130 -> 131\ninit1 65\nend\n")
    @example("circuit x : 130 -> 130\ncnot 0 1\ncnot 129 64\ncnot 0 199\nend\n")
    # ``cnot 0 250`` is read at width 500, then again on the direct path at
    # width 300, with 64 wires built, and runs; at width 240 it is out of
    # range
    @example("\n".join(["circuit x : 300 -> 240", *["init1 0"] * 200, "cnot 0 250",
                        *["post1 0"] * 200, "cnot 0 250", *["post1 0"] * 60, "cnot 0 250",
                        "end", ""]))
    # a macro line in the window before the failing line, which a step reads
    @example("circuit x : 21 -> 20\ncnot 0 20\nnot 3\ncnot 0 20\npost1 0\ncnot 0 20\nend\n")
    # ``init1`` one past the width, just after a ``post1`` shrank the built wires
    @example("circuit x : 130 -> 130\npost1 0\ninit1 130\nend\n")
    @example("circuit x : 130 -> 130\ninit1 130\npost1 0\npost1 0\ninit1 130\nend\n")
    # macro lines whose gates reach past the 64 built wires, the last one
    # inserting at the top of the register
    @example("circuit x : 130 -> 130\nnot 100\npost0 129\ninit0 129\nend\n")
    # a blank line, a comment and a macro before the failing line of the
    # same window: the gate index counts the macro's gates and no blank line
    @example("circuit x : 130 -> 130\ncnot 0 1\n\n# c\nnot 5\n\ncnot 0 199\nend\n")
    # a width error in a later window than the macros before it
    @example("\n".join(["circuit x : 130 -> 130", "not 3", "init0 7", "post0 7",
                        *["cnot 0 1"] * 12, "cnot 129 130", "end", ""]))
    # ``post1 62`` on the first unbuilt wire, once two ``post1``s have left
    # 62 of the 64 built wires
    @example("circuit x : 130 -> 127\ncnot 62 0\npost1 0\npost1 0\npost1 62\nend\n")
    def test_one_file(self, text):
        expected = semantics_outcome(parsed_semantics, text)
        for window in self.WINDOWS:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(lexing, "_WINDOW", window)
                assert semantics_outcome(parse_semantics, text) == expected
                assert semantics_outcome(parse_semantics, io.StringIO(text)) == expected

    def test_width_error_waits_for_the_rest_of_the_file(self):
        # the width error is the file's only fault: it is raised at its own
        # line once the end is read; a bad line or a missing 'end' after it
        # is raised instead
        head = "circuit x : 22 -> 22\ncnot 0 1\ncnot 21 30\ncnot 0 1\n"
        with pytest.raises(FormatError, match="^line 3, column 1: gate 1 cnot\\(21, 30\\): wire"):
            parse_semantics(head + "end\n")
        with pytest.raises(FormatError, match="^line 5, column 1: unknown gate 'foo'$"):
            parse_semantics(head + "foo\nend\n")
        with pytest.raises(FormatError, match="^line 4, column 1: missing 'end' terminator$"):
            parse_semantics(head)
