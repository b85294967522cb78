"""Text formats: round trips and error reporting."""

import pytest

from cnotcalc.circuit import circuit, cnot, init0, notg, post0, swap
from cnotcalc.normalize import Clause, ClausalForm
from cnotcalc.relation import AffineRelation
from cnotcalc.formats import (
    FormatError,
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
        with pytest.raises(FormatError, match="out of range"):
            parse_circuit("circuit x : 1 -> 1\ncnot 0 1\nend\n")

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
        got = {(tuple(x), tuple(y)) for x, y in rel.enumerate_graph()}
        assert got == {
            ((a, b), (a, b, a ^ b ^ 1)) for a in (0, 1) for b in (0, 1)
        }

    def test_affine_block_with_domain(self):
        text = "affine 1 1\nrow 1\nshift 0\nparity 0 = 1\nend\n"
        rel = parse_synth_input(text)
        got = {(tuple(x), tuple(y)) for x, y in rel.enumerate_graph()}
        assert got == {((1,), (1, 1))}

    def test_row_count_checked(self):
        with pytest.raises(FormatError, match="row"):
            parse_synth_input("affine 2 2\nrow 1 0\nshift 0 0\nend\n")

    def test_system_header_gives_idempotent(self):
        rel = parse_synth_input("system 2\nparity 0 1 = 1\n")
        got = {(tuple(x), tuple(y)) for x, y in rel.enumerate_graph()}
        assert got == {((0, 1), (0, 1)), ((1, 0), (1, 0))}


class TestDerivationFormat:
    def test_parse(self):
        steps = parse_derivation("CNT2 0 lr\n# comment\nomega-absorb 3 rl\n")
        assert steps == [("CNT2", 0, "lr"), ("omega-absorb", 3, "rl")]

    def test_bad_direction(self):
        with pytest.raises(FormatError, match="direction"):
            parse_derivation("CNT2 0 up\n")
