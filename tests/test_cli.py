"""End-to-end CLI behaviour: outputs, exit codes, determinism."""

import gc
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import cnotcalc
from cnotcalc.cli import FAIL, OK, USAGE, run
from cnotcalc.commandline import COMMANDS
from cnotcalc.circuit import circuit, cnot, init0, swap
from cnotcalc.formats import format_circuit

SRC = Path(cnotcalc.__file__).parent.parent


def cli_process(*argv, flags=()):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, *flags, "-m", "cnotcalc.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )


@pytest.fixture
def fanout_file(tmp_path):
    p = tmp_path / "fanout1.cnot"
    p.write_text(format_circuit(circuit(1, init0(0), cnot(1, 0)), name="fanout1"))
    return str(p)


@pytest.fixture
def run_cli(capsys):
    def go(*argv):
        code = run(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return go


class TestEval:
    def test_defined(self, run_cli, fanout_file):
        code, out, _ = run_cli("eval", fanout_file, "--input", "1")
        assert code == 0 and out.strip() == "11"

    def test_undefined(self, run_cli, tmp_path):
        p = tmp_path / "omega.cnot"
        from cnotcalc.circuit import omega

        p.write_text(format_circuit(omega(), name="omega"))
        code, out, _ = run_cli("eval", str(p), "--input", "")
        assert code == 0 and out.strip() == "undefined"

    def test_wrong_length(self, run_cli, fanout_file):
        code, _, err = run_cli("eval", fanout_file, "--input", "101")
        assert code == 2 and "error" in err

    def test_missing_file(self, run_cli):
        code, _, err = run_cli("eval", "/nonexistent.cnot", "--input", "0")
        assert code == 2 and "cannot read" in err


class TestSemantics:
    def test_canonical_lines(self, run_cli, fanout_file):
        code, out, _ = run_cli("semantics", fanout_file)
        assert code == 0
        assert out == "graph 1 2\nparity x0 y1 = 0\nparity y0 y1 = 0\n"

    def test_json_mirror(self, run_cli, fanout_file):
        code, out, _ = run_cli("semantics", fanout_file, "--json")
        assert code == 0
        data = json.loads(out)
        assert data["command"] == "semantics"
        assert data["relation"][0] == "graph 1 2"

    def test_wide_header_without_gates_under_a_second(self, tmp_path):
        # 31 bytes that declare 5,000 wires: formatting costs per set bit,
        # not per column of every row
        p = tmp_path / "big.cnot"
        p.write_text("circuit big : 5000 -> 5000\nend\n")
        start = time.perf_counter()
        proc = cli_process("semantics", str(p))
        elapsed = time.perf_counter() - start
        assert proc.returncode == 0 and proc.stderr == ""
        lines = proc.stdout.splitlines()
        assert lines[0] == "graph 5000 5000" and len(lines) == 5001
        assert lines[1:] == [f"parity x{j} y{j} = 0" for j in range(5000)]
        assert elapsed < 1.0


class TestEqual:
    def test_equal_pair(self, run_cli, tmp_path):
        a = tmp_path / "a.cnot"
        b = tmp_path / "b.cnot"
        a.write_text(
            format_circuit(circuit(2, cnot(0, 1), cnot(1, 0), cnot(0, 1)), "a")
        )
        b.write_text(format_circuit(circuit(2, swap(0, 1)), "b"))
        code, out, _ = run_cli("equal", str(a), str(b))
        assert code == 0 and out.strip() == "equal"

    def test_unequal_pair_exit_code(self, run_cli, tmp_path):
        a = tmp_path / "a.cnot"
        b = tmp_path / "b.cnot"
        a.write_text(format_circuit(circuit(2, cnot(0, 1)), "a"))
        b.write_text(format_circuit(circuit(2, cnot(1, 0)), "b"))
        code, out, _ = run_cli("equal", str(a), str(b))
        assert code == 1 and out.strip() == "unequal"

    def test_arity_mismatch_is_an_input_error(self, run_cli, tmp_path):
        a = tmp_path / "a.cnot"
        b = tmp_path / "b.cnot"
        a.write_text("circuit a : 1 -> 1\nend\n")
        b.write_text("circuit b : 2 -> 2\nend\n")
        code, out, err = run_cli("equal", str(a), str(b))
        assert (code, out, err) == (2, "", "error: arity mismatch: 1->1 vs 2->2\n")

    def test_negative_header_arity_has_a_location(self, run_cli, tmp_path):
        p = tmp_path / "neg.cnot"
        p.write_text("circuit x : -1 -> 0\ncnot 0 1\nend\n")
        code, out, err = run_cli("semantics", str(p))
        assert code == 2 and out == ""
        assert err == "error: line 1, column 13: arity must be nonnegative, got -1\n"

    def test_error_in_second_file_names_its_own_line(self, run_cli, tmp_path):
        # the second file repeats the first file's lines at other line numbers
        a = tmp_path / "a.cnot"
        b = tmp_path / "b.cnot"
        a.write_text("circuit a : 3 -> 3\ncnot 0 1\nswap 1 2\nend\n")
        b.write_text("circuit b : 3 -> 3\n\nswap 1 2\ncnot 0 1\ncnot 2  q\nend\n")
        code, out, err = run_cli("equal", str(a), str(b))
        assert code == 2 and out == ""
        assert err == "error: line 5, column 9: expected an integer, got 'q'\n"
        b.write_text("circuit b : 3 -> 3\nswap 1 2\ncnot 0 1\npost1 7\nend\n")
        code, _, err = run_cli("equal", str(a), str(b))
        assert code == 2
        assert err == "error: line 4, column 1: gate 2 post1(7): wire out of range at width 3\n"

    def test_second_file_not_utf8_is_named(self, run_cli, tmp_path):
        a = tmp_path / "ok.cnot"
        b = tmp_path / "bad.cnot"
        a.write_text("circuit a : 2 -> 2\ncnot 0 1\nend\n")
        b.write_bytes(b"circuit b : 2 -> 2\n\xffcnot 0 1\nend\n")
        code, out, err = run_cli("equal", str(a), str(b))
        assert code == 2 and out == ""
        assert err == (
            f"error: cannot read {b}: 'utf-8' codec can't decode byte 0xff"
            " in position 19: invalid start byte\n"
        )


class TestUndecodableFile:
    """A file is parsed a window at a time as it is read, yet a byte that is
    not UTF-8 anywhere in it is the error, at its offset in the file, as
    when the file was read whole: also where the parse has already stopped.
    A pipe cannot be read again, so its error names the file and no offset."""

    GATES = "cnot 0 1\n" * 5000  # 45,000 bytes, many windows
    FILES = {
        "past the first chunk": f"circuit x : 2 -> 2\n{GATES}# \xff\n{GATES}end\n",
        "after end": f"circuit x : 2 -> 2\ncnot 0 1\nend\n{GATES}# \xff\n",
        "after a bad line": f"circuit x : 2 -> 2\nfoo 1\n{GATES}\xff\n{GATES}end\n",
    }

    @staticmethod
    def encoded(text):
        """``text`` as UTF-8, with each U+00FF the bare byte 0xff."""
        return text.encode("utf-8").replace("\xff".encode("utf-8"), b"\xff")

    def write(self, path, text):
        data = self.encoded(text)
        path.write_bytes(data)
        return data.index(b"\xff")

    @pytest.mark.parametrize("place", FILES)
    @pytest.mark.parametrize("first", [True, False], ids=["semantics", "equal"])
    def test_circuit_file(self, run_cli, tmp_path, place, first):
        bad, ok = tmp_path / "bad.cnot", tmp_path / "ok.cnot"
        at = self.write(bad, self.FILES[place])
        ok.write_text("circuit y : 2 -> 2\ncnot 0 1\nend\n")
        argv = ["semantics", str(bad)] if first else ["equal", str(ok), str(bad)]
        code, out, err = run_cli(*argv)
        assert code == 2 and out == ""
        assert err == (
            f"error: cannot read {bad}: 'utf-8' codec can't decode byte 0xff"
            f" in position {at}: invalid start byte\n"
        )

    @pytest.mark.parametrize("place", FILES)
    def test_piped_into_stdin(self, place):
        done = subprocess.run(
            [sys.executable, "-m", "cnotcalc.cli", "semantics", "/dev/stdin"],
            input=self.encoded(self.FILES[place]), capture_output=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        assert done.returncode == 2 and done.stdout == b""
        assert done.stderr.decode() == (
            "error: cannot read /dev/stdin: 'utf-8' codec can't decode byte 0xff:"
            " invalid start byte\n"
        )

    @pytest.mark.parametrize("command, text", [
        ("synth", "graph 1 1\nparity x0 y0 = 0\nend\n" + "#\n" * 40_000 + "\xff\n"),
        ("synth", "graph 1 1\nparity x0 z0 = 0\nend\n\xff\n"),
        ("replay", "CNT2 0 lr\nCNT2 zero lr\n" + "#\n" * 40_000 + "\xff\n"),
    ], ids=["synth after end", "synth after a bad line", "replay after a bad line"])
    def test_other_files(self, run_cli, tmp_path, fanout_file, command, text):
        bad = tmp_path / "bad"
        at = self.write(bad, text)
        argv = [command, str(bad)] if command == "synth" else [command, fanout_file, str(bad)]
        code, out, err = run_cli(*argv)
        assert code == 2 and out == ""
        assert err == (
            f"error: cannot read {bad}: 'utf-8' codec can't decode byte 0xff"
            f" in position {at}: invalid start byte\n"
        )


class TestNormalizeSynth:
    def test_normalize_identity(self, run_cli, tmp_path):
        p = tmp_path / "id.cnot"
        p.write_text("circuit id2 : 2 -> 2\nend\n")
        code, out, _ = run_cli("normalize", str(p))
        assert code == 0
        assert out.splitlines()[0] == "circuit clausal : 2 -> 2"

    def test_normalize_rejects_non_idempotent(self, run_cli, tmp_path):
        p = tmp_path / "c.cnot"
        p.write_text("circuit c : 2 -> 2\ncnot 0 1\nend\n")
        code, _, err = run_cli("normalize", str(p))
        assert code == 2 and "idempotent" in err

    def test_synth_graph_file(self, run_cli, tmp_path):
        p = tmp_path / "rel.graph"
        p.write_text("graph 1 1\nparity x0 y0 = 1\n")
        code, out, _ = run_cli("synth", str(p))
        assert code == 0
        # returned circuit must have the declared arity
        assert out.splitlines()[0].endswith(": 1 -> 1")

    def test_synth_rejects_non_iso(self, run_cli, tmp_path):
        p = tmp_path / "rel.graph"
        p.write_text("graph 2 1\nparity x0 y0 = 0\n")
        code, _, err = run_cli("synth", str(p))
        assert code == 2 and "partial isomorphism" in err

    @pytest.mark.parametrize("kind", ["affine", "system", "graph"])
    @pytest.mark.parametrize(
        "parity, message",
        [
            ("parity 0 = 2", "right-hand side must be 0 or 1"),
            ("parity 0 = 1 1", "expected a single bit after '='"),
        ],
    )
    def test_synth_rejects_bad_affine_parity(
        self, run_cli, tmp_path, parity, message, kind
    ):
        if kind == "graph":
            parity = parity.replace("parity 0", "parity x0")
        header = {
            "affine": "affine 1 1\nrow 1\nshift 0",
            "system": "system 1",
            "graph": "graph 1 1",
        }
        p = tmp_path / f"bad.{kind}"
        p.write_text(f"{header[kind]}\n{parity}\nend\n")
        code, _, err = run_cli("synth", str(p))
        lineno = header[kind].count("\n") + 2
        assert code == 2 and err.startswith(f"error: line {lineno}, column ")
        assert err.endswith(f": {message}\n")

    @pytest.mark.parametrize(
        "text, location",
        [
            ("graph 1 1\nparity x0 x0 = 1\n", "line 2, column 11"),
            ("system 2\nparity 0 1 0 = 1\n", "line 2, column 12"),
            ("affine 1 1\nrow 1\nshift 0\nparity 0 0 = 1\nend\n", "line 4, column 10"),
        ],
        ids=["graph", "system", "affine"],
    )
    def test_synth_rejects_repeated_term(self, run_cli, tmp_path, text, location):
        # over GF(2) a term given twice cancels, so it cannot mean one term
        p = tmp_path / "repeat.txt"
        p.write_text(text)
        code, out, err = run_cli("synth", str(p))
        assert code == 2 and out == ""
        assert err.startswith(f"error: {location}: repeated term ")

    def test_synth_rejects_repeated_shift(self, run_cli, tmp_path):
        # a second shift line used to override the first
        p = tmp_path / "twice.affine"
        p.write_text("affine 2 1\nrow 1 0\nshift 0\nshift 1\n")
        code, out, err = run_cli("synth", str(p))
        assert code == 2 and out == ""
        assert err == "error: line 4, column 1: repeated 'shift' line\n"

    @pytest.mark.parametrize(
        "text, location, arity",
        [
            ("graph -1 2\nparity x0 = 1\n", "line 1, column 7", -1),
            ("graph 2 -1\n", "line 1, column 9", -1),
            ("system -3\nparity 0 = 1\n", "line 1, column 8", -3),
            ("affine -1 2\nrow\nshift 0 0\n", "line 1, column 8", -1),
        ],
        ids=["graph-in", "graph-out", "system", "affine"],
    )
    def test_synth_rejects_negative_arity(self, run_cli, tmp_path, text, location, arity):
        p = tmp_path / "negative.txt"
        p.write_text(text)
        code, out, err = run_cli("synth", str(p))
        assert code == 2 and out == ""
        assert err == f"error: {location}: arity must be nonnegative, got {arity}\n"


class TestVerifyReplayConstruct:
    def test_verify_passes(self, run_cli):
        code, out, _ = run_cli("verify")
        assert code == 0
        assert "all checks passed" in out
        assert "PASS  rule CNT1" in out

    def test_replay(self, run_cli, tmp_path):
        c = tmp_path / "c.cnot"
        c.write_text("circuit c : 2 -> 2\ncnot 0 1\ncnot 0 1\nend\n")
        d = tmp_path / "d.deriv"
        d.write_text("CNT2 0 lr\n")
        code, out, _ = run_cli("replay", str(c), str(d))
        assert code == 0
        assert "circuit step0" in out and "circuit step1" in out

    def test_replay_failure(self, run_cli, tmp_path):
        c = tmp_path / "c.cnot"
        c.write_text("circuit c : 2 -> 2\ncnot 0 1\nend\n")
        d = tmp_path / "d.deriv"
        d.write_text("CNT2 0 lr\n")
        code, _, err = run_cli("replay", str(c), str(d))
        assert code == 2 and "does not match" in err

    def test_replay_unknown_rule_names_the_step_and_every_rule(self, run_cli, tmp_path):
        from cnotcalc.rewrite import axiom_names, lemma_names

        c = tmp_path / "c.cnot"
        c.write_text("circuit c : 2 -> 2\ncnot 0 1\ncnot 0 1\nend\n")
        d = tmp_path / "d.deriv"
        d.write_text("CNT2 0 lr\nnosuch 0 lr\n")
        code, out, err = run_cli("replay", str(c), str(d))
        assert code == 2 and out == ""
        assert err == (
            f"error: step 1: unknown rule 'nosuch'; axioms: {axiom_names()};"
            f" lemmas: {lemma_names()}\n"
        )
        assert len(axiom_names()) == 11 and len(lemma_names()) == 16

    def test_construct_hat(self, run_cli):
        code, out, _ = run_cli("construct", "hat", "01")
        assert code == 0
        assert out.splitlines()[0] == "circuit hat : 0 -> 2"

    def test_construct_clause(self, run_cli):
        code, out, _ = run_cli("construct", "clause", "3", "1", "0", "2")
        assert code == 0
        assert out.splitlines()[0] == "circuit clause : 3 -> 3"

    @pytest.mark.parametrize(
        "params, wire", [(["3", "1", "1", "1"], 1), (["4", "0", "2", "0", "3", "2"], 2)]
    )
    def test_construct_clause_rejects_a_repeated_wire(self, run_cli, params, wire):
        # x1 + x1 = 0 over GF(2): the clause 3 1 1 1 reads 0 = 1, not x1 = 1
        code, out, err = run_cli("construct", "clause", *params)
        assert code == 2 and out == ""
        assert err == f"error: repeated wire {wire}\n"

    @pytest.mark.parametrize(
        "params, told",
        [(["omega", "1"], "0 or 2"), (["omega", "1", "2", "3"], "0 or 2"), (["fanout"], "1"),
         (["hat", "01", "1"], "1")],
    )
    def test_construct_argument_count(self, run_cli, params, told):
        code, out, err = run_cli("construct", *params)
        assert code == 2 and out == ""
        assert err == f"error: construct {params[0]} takes {told} argument(s)\n"

    def test_construct_omega_n_m(self, run_cli):
        code, out, _ = run_cli("construct", "omega", "1", "2")
        assert code == 0 and out.splitlines()[0] == "circuit omega : 1 -> 2"

    def test_construct_clause_bad_wire(self, run_cli):
        code, out, err = run_cli("construct", "clause", "4", "1", "x")
        assert code == 2 and out == ""
        assert err == "error: expected an integer, got 'x'\n"

    @pytest.mark.parametrize(
        "params", [["fanout", "1_0"], ["plus", "+3"], ["fanin", "٣"], ["fanout", " 3"],
                   ["clause", "4", "1", "0_1"]]
    )
    def test_construct_rejects_loose_integers(self, run_cli, params):
        code, out, err = run_cli("construct", *params)
        assert code == 2 and out == ""
        assert err == f"error: expected an integer, got {params[-1]!r}\n"

    def test_construct_integer_too_long(self, run_cli):
        code, out, err = run_cli("construct", "fanout", "7" * 5000)
        assert code == 2 and out == ""
        assert err == "error: integer too long (5000 digits)\n"

    @pytest.mark.parametrize(
        "params", [["fanout", "9" * 20], ["fanin", "9" * 20], ["plus", "9" * 20],
                   ["omega", "9" * 20, "2"], ["omega", "2", "1" + "0" * 19]]
    )
    def test_construct_arity_above_maxsize(self, run_cli, params):
        # no gate list has more than sys.maxsize wires, so the arity is
        # refused before anything is allocated
        assert run_cli("construct", *params) == (USAGE, "", "error: arity too large (20 digits)\n")

    @pytest.mark.parametrize(
        "name,header,gates",
        [
            ("fanout", "1200 -> 2400", 5 * 1200),
            ("fanin", "2400 -> 1200", 5 * 1200),
            ("plus", "3600 -> 3600", 2 * 1200),
        ],
    )
    def test_construct_large_without_recursion(self, run_cli, name, header, gates):
        code, out, err = run_cli("construct", name, "1200")
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines[0] == f"circuit {name} : {header}"
        assert len(lines) == gates + 2 and lines[-1] == "end"


class TestJsonMirrors:
    def test_every_command_emits_valid_json(self, run_cli, tmp_path):
        circ_file = tmp_path / "c.cnot"
        circ_file.write_text("circuit c : 2 -> 2\ncnot 0 1\ncnot 0 1\nend\n")
        idem = tmp_path / "e.cnot"
        idem.write_text("circuit e : 1 -> 1\nend\n")
        rel = tmp_path / "r.graph"
        rel.write_text("graph 1 1\nparity x0 y0 = 0\n")
        deriv = tmp_path / "d.deriv"
        deriv.write_text("CNT2 0 lr\n")
        invocations = [
            ("eval", str(circ_file), "--input", "10"),
            ("semantics", str(circ_file)),
            ("equal", str(circ_file), str(circ_file)),
            ("normalize", str(idem)),
            ("synth", str(rel)),
            ("verify",),
            ("replay", str(circ_file), str(deriv)),
            ("fuzz", "--trials", "3"),
            ("construct", "omega"),
        ]
        for argv in invocations:
            code, out, _ = run_cli(*argv, "--json")
            assert code == 0, argv
            data = json.loads(out)
            assert data["command"] == argv[0]


class TestFuzzCommand:
    def test_small_run_deterministic(self, run_cli):
        code1, out1, _ = run_cli("fuzz", "--trials", "20", "--seed", "9")
        code2, out2, _ = run_cli("fuzz", "--trials", "20", "--seed", "9")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_json_report(self, run_cli):
        code, out, _ = run_cli("fuzz", "--trials", "5", "--json")
        data = json.loads(out)
        assert code == 0 and data["ok"] is True and data["trials"] == 5

    @pytest.mark.parametrize("option, value", [("--trials", "-5"), ("--wires", "-1"), ("--depth", "-1")])
    def test_negative_counts_rejected(self, run_cli, option, value):
        code, out, err = run_cli("fuzz", option, value)
        assert code == 2 and out == ""
        assert err == f"error: {option} must be nonnegative, got {value}\n"

    @pytest.mark.parametrize(
        "option, value",
        [
            ("--trials", "1_0"),
            ("--wires", "\u0662"),
            ("--depth", "+3"),
            ("--seed", "0x1"),
            ("--trials", ""),
        ],
    )
    def test_loose_integers_rejected(self, run_cli, option, value):
        code, out, err = run_cli("fuzz", option, value)
        assert code == 2 and out == ""
        assert err == f"error: expected an integer, got {value!r}\n"

    def test_integer_too_long(self, run_cli):
        code, out, err = run_cli("fuzz", "--seed", "-" + "7" * 5000)
        assert code == 2 and out == ""
        assert err == "error: integer too long (5000 digits)\n"

    def test_wires_above_enumeration_limit_rejected(self, run_cli, monkeypatch):
        import cnotcalc.fuzzing as fuzzing_mod

        def no_fuzz(*args):
            raise AssertionError("fuzz started")

        # the handler imports fuzz from its module when it runs
        monkeypatch.setattr(fuzzing_mod, "fuzz", no_fuzz)
        code, out, err = run_cli("fuzz", "--wires", "21", "--trials", "0")
        assert code == 2 and out == ""
        assert err == "error: --wires must be at most 20, got 21\n"

    def test_wires_at_enumeration_limit_allowed(self, run_cli):
        code, out, _ = run_cli("fuzz", "--wires", "20", "--trials", "0")
        assert code == 0 and out == "0 trials passed (wires<=20 depth=30 seed=0)\n"

    def test_zero_trials_allowed(self, run_cli):
        code, out, _ = run_cli("fuzz", "--trials", "0", "--wires", "0", "--depth", "0")
        assert code == 0 and out.startswith("0 trials passed")

    def test_counterexample_printed(self, run_cli, monkeypatch):
        import cnotcalc.fuzzing as fuzzing_mod
        from cnotcalc.circuit import circuit
        from cnotcalc.gates import notg

        def fake_fuzz(wires, depth, seed, trials):
            return 1, (0, circuit(1, notg(0)), "synthetic failure")

        monkeypatch.setattr(fuzzing_mod, "fuzz", fake_fuzz)
        code, out, _ = run_cli("fuzz", "--trials", "1")
        assert code == 1
        assert "synthetic failure" in out and "circuit counterexample0" in out


# malformed command lines and the start of the one error line each gives
MALFORMED = [
    ((), "error: no command given; commands: eval, semantics, equal, "),
    (("bogus",), "error: unknown command 'bogus'; commands: eval, "),
    (("--json", "verify"), "error: unknown command '--json'; "),
    (("equal", "a"), "error: equal: missing FILE2; usage: cnotcalc equal FILE1 FILE2\n"),
    (("semantics",), "error: semantics: missing FILE; "),
    (("replay", "c"), "error: replay: missing DERIVATION; "),
    (("construct",), "error: construct: missing NAME; "),
    (("equal", "a", "b", "c"), "error: equal: unexpected argument 'c'; "),
    (("verify", "x"), "error: verify: unexpected argument 'x'; usage: cnotcalc verify\n"),
    (("fuzz", "--tri", "2"), "error: fuzz: unknown option '--tri'; "),
    (("fuzz", "--trials=2", "--w", "3"), "error: fuzz: unknown option '--w'; "),
    (("equal", "a", "b", "--bogus"), "error: equal: unknown option '--bogus'; "),
    (("equal", "-x", "a", "b"), "error: equal: unknown option '-x'; "),
    (("semantics", "f", "--json=1"), "error: semantics: unknown option '--json=1'; "),
    (("fuzz", "--input", "1"), "error: fuzz: unknown option '--input'; "),
    (("fuzz", "--trials"), "error: fuzz: option --trials needs a value; "),
    (("fuzz", "--trials", "--json"), "error: fuzz: option --trials needs a value; "),
    (("eval", "f", "--input"), "error: eval: option --input needs a value; "),
    (("eval", "f"), "error: eval: missing option --input; usage: cnotcalc eval FILE --input BITS\n"),
    (("construct", "nosuch"), "error: unknown construction 'nosuch'\n"),
]


class TestCommandLine:
    """The command-line reader: ``COMMANDS`` read by one small loop."""

    @pytest.mark.parametrize("argv, error", MALFORMED, ids=[" ".join(a) or "-" for a, _ in MALFORMED])
    def test_malformed_exits_2_with_one_error_line(self, run_cli, argv, error):
        code, out, err = run_cli(*argv)
        assert (code, out) == (USAGE, "")
        assert err.startswith(error) and err.count("\n") == 1

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_help_after_every_command(self, run_cli, command, flag):
        # help wins over the missing positionals and options
        code, out, err = run_cli(command, flag)
        assert (code, err) == (OK, "")
        assert out.startswith(f"usage: cnotcalc {command}") and COMMANDS[command][0] in out
        assert run_cli(command, "x", "--json", flag) == (code, out, err)

    def test_top_level_help(self, run_cli):
        code, out, err = run_cli("-h")
        assert (code, err) == (OK, "") and out == run_cli("--help")[1]
        assert out.splitlines()[0] == "usage: cnotcalc [-h]"

    def test_option_with_equals_and_last_value_wins(self, run_cli):
        spaced = run_cli("fuzz", "--trials", "4", "--seed", "9")
        assert spaced[0] == OK and spaced[1].startswith("4 trials passed")
        assert run_cli("fuzz", "--trials=4", "--seed=9") == spaced
        assert run_cli("fuzz", "--trials", "50", "--seed=1", "--trials=4", "--seed", "9") == spaced
        code, out, _ = run_cli("fuzz", "--trials=0", "--wires=")
        assert (code, out) == (USAGE, "")

    def test_empty_option_value(self, run_cli, tmp_path):
        from cnotcalc.circuit import omega

        p = tmp_path / "omega.cnot"
        p.write_text(format_circuit(omega(), name="omega"))
        assert run_cli("eval", str(p), "--input=") == (OK, "undefined\n", "")
        assert run_cli("eval", str(p), "--input", "") == (OK, "undefined\n", "")

    @pytest.mark.parametrize("where", [1, 2, 4])
    def test_json_anywhere_after_the_command(self, run_cli, fanout_file, where):
        # before or after the file, after the option's value
        argv = ["eval", fanout_file, "--input", "1"]
        argv.insert(where, "--json")
        code, out, err = run_cli(*argv)
        assert (code, err) == (OK, "")
        assert json.loads(out) == {"command": "eval", "defined": True, "output": "11"}
        assert run_cli(*argv, "--json") == (code, out, err)

    def test_double_dash_ends_the_options(self, run_cli):
        code, out, err = run_cli("semantics", "--", "--json")
        assert (code, out) == (USAGE, "") and err.startswith("error: cannot read --json: ")
        assert run_cli("construct", "--", "fanout", "-h")[2] == "error: expected an integer, got '-h'\n"
        assert run_cli("construct", "fanout", "--", "2") == run_cli("construct", "fanout", "2")

    @pytest.mark.parametrize("argv", [("omega", "-1", "2"), ("omega", "--", "-1", "2"), ("omega", "2", "-1")])
    def test_negative_number_is_a_positional(self, run_cli, argv):
        # it reaches the handler, which refuses it
        assert run_cli("construct", *argv) == (USAGE, "", "error: negative arity\n")

    def test_negative_option_value(self, run_cli):
        assert run_cli("fuzz", "--seed", "-3", "--trials", "2")[1].endswith("seed=-3)\n")


def _readme_commands() -> dict[str, str]:
    """command -> synopsis, from the command block of README's "Command line"."""
    text = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## Command line\n", 1)[1].split("```\n", 2)[1]
    synopses = [line.split("#", 1)[0].split(None, 1)[1].strip() for line in block.splitlines()]
    return {synopsis.split()[0]: synopsis for synopsis in synopses}


def test_table_help_and_readme_name_the_same_commands(run_cli):
    # the docs cannot fall behind the command table
    code, out, _ = run_cli("--help")
    listing = out.split("\ncommands:\n", 1)[1].splitlines()
    synopses = [line[2:] for line in listing if line[:2] == "  " and line[2] != " "]
    helped = {synopsis.split()[0]: synopsis for synopsis in synopses}
    assert code == OK and list(helped) == list(COMMANDS)
    assert _readme_commands() == helped


class TestInternalError:
    @pytest.mark.parametrize(
        "error", [RuntimeError("bad state\nsecond line"), RecursionError("maximum recursion depth exceeded")]
    )
    def test_crash_exits_3_with_one_line(self, run_cli, monkeypatch, error):
        import cnotcalc.cli as cli_mod

        def crash(args):
            raise error

        monkeypatch.setattr(cli_mod, "_cmd_construct", crash)
        code, out, err = run_cli("construct", "fanout", "2")
        assert code == 3 and out == ""
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith(f"error: internal error: {type(error).__name__}: ")

    def test_synth_checks_what_it_prints(self, run_cli, monkeypatch, tmp_path):
        # a synthesis that drops its first cnot is caught before printing
        import cnotcalc.synth as synth_mod
        from cnotcalc.circuit import Circuit

        real = synth_mod.synth

        def dropped(rel):
            c = real(rel)
            first = next(i for i, g in enumerate(c.gates) if g.kind == "cnot")
            return Circuit(c.n_in, c.gates[:first] + c.gates[first + 1:])

        monkeypatch.setattr(synth_mod, "synth", dropped)
        p = tmp_path / "rel.graph"
        p.write_text("graph 1 1\nparity x0 y0 = 1\n")
        code, out, err = run_cli("synth", str(p))
        assert code == 3 and out == ""
        assert err == ("error: internal error: RuntimeError: synth built a circuit "
                       "whose semantics differs from the relation\n")

    def test_normalize_checks_what_it_prints(self, run_cli, monkeypatch, tmp_path):
        # a clausal circuit that drops its first cnot is caught before printing
        import cnotcalc.normalize as normalize_mod
        from cnotcalc.circuit import Circuit

        real = normalize_mod.clausal_to_circuit

        def dropped(cf):
            c = real(cf)
            first = next(i for i, g in enumerate(c.gates) if g.kind == "cnot")
            return Circuit(c.n_in, c.gates[:first] + c.gates[first + 1:])

        monkeypatch.setattr(normalize_mod, "clausal_to_circuit", dropped)
        p = tmp_path / "idem.circ"
        p.write_text("circuit h : 2 -> 2\ncnot 0 1\npost0 1\ninit0 1\ncnot 0 1\nend\n")
        code, out, err = run_cli("normalize", str(p))
        assert code == 3 and out == ""
        assert err == ("error: internal error: RuntimeError: normalize built a circuit "
                       "whose semantics differs from the idempotent\n")

    def test_input_errors_still_exit_2(self, run_cli):
        code, _, err = run_cli("construct", "fanout", "x")
        assert code == 2 and err.startswith("error: expected an integer")


class TestClosedStdout:
    """A reader that stops early, as ``| head`` does, is not an error of
    cnotcalc: exit 141 (128 + SIGPIPE) and nothing on stderr."""

    def spawn(self, *argv):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        return subprocess.Popen(
            [sys.executable, "-m", "cnotcalc.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )

    def test_closed_while_writing(self):
        # about 200 kB of gates, more than a pipe holds
        proc = self.spawn("construct", "fanout", "3000")
        assert proc.stdout.readline() == b"circuit fanout : 3000 -> 6000\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141 and err == b""

    def test_closed_before_the_final_flush(self):
        proc = self.spawn("construct", "omega")
        proc.stdout.close()  # long before the interpreter has started
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141 and err == b""


class TestMain:
    """``main``, the process entry point, freezes the heap once the command
    is done, so that interpreter shutdown skips collecting it.  ``run``, the
    in-process entry point, never touches the collector."""

    @pytest.mark.parametrize("code", [OK, FAIL, USAGE])
    def test_freezes_after_run_then_exits_with_its_code(self, monkeypatch, code):
        import cnotcalc.cli as cli_mod

        calls = []

        def fake_run(argv):
            calls.append(("run", argv))
            return code

        monkeypatch.setattr(cli_mod, "run", fake_run)
        monkeypatch.setattr(gc, "freeze", lambda: calls.append(("freeze",)))
        monkeypatch.setattr(sys, "argv", ["cnotcalc", "construct", "omega"])
        with pytest.raises(SystemExit) as exit_:
            cli_mod.main()
        assert exit_.value.code == code
        assert calls == [("run", ["construct", "omega"]), ("freeze",)]

    def test_run_leaves_the_collector_alone(self, run_cli):
        before = gc.get_freeze_count(), gc.isenabled()
        code, out, _ = run_cli("construct", "omega")
        assert code == 0 and out.startswith("circuit omega")
        assert (gc.get_freeze_count(), gc.isenabled()) == before


@pytest.fixture
def circuit_files(tmp_path):
    texts = {
        "swap3": "circuit a : 2 -> 2\ncnot 0 1\ncnot 1 0\ncnot 0 1\nend\n",
        "swap": "circuit b : 2 -> 2\nswap 0 1\nend\n",
        "cnot": "circuit c : 2 -> 2\ncnot 1 0\nend\n",
        # partial: the first two are defined where x0 = x1 and give x0 there,
        # the third is defined where x1 = 0
        "partial_a": "circuit d : 2 -> 1\ncnot 0 1\npost0 1\nend\n",
        "partial_b": "circuit e : 2 -> 1\ncnot 1 0\npost0 0\nend\n",
        "partial_c": "circuit f : 2 -> 1\npost0 1\nend\n",
        "cnot_twice": "circuit g : 2 -> 2\ncnot 0 1\ncnot 0 1\nend\n",
        "idempotent": "circuit h : 2 -> 2\ncnot 0 1\npost0 1\ninit0 1\ncnot 0 1\nend\n",
        "graph": "graph 1 1\nparity x0 y0 = 1\n",
        "derivation": "CNT2 0 lr\n",
    }
    paths = {"missing": str(tmp_path / "missing.cnot")}
    for name, text in texts.items():
        path = tmp_path / f"{name}.cnot"
        path.write_text(text)
        paths[name] = str(path)
    return paths


class TestProcess:
    """``python -m cnotcalc.cli`` runs ``main``, which the in-process tests
    above do not: exit codes and output as a process sees them."""

    @pytest.mark.parametrize(
        "argv, code, first_line, lines, error",
        [
            (("equal", "swap3", "swap"), 0, "equal", 1, ""),
            (("equal", "swap", "cnot"), 1, "unequal", 1, ""),
            (("semantics", "missing"), 2, None, 0, "error: cannot read "),
            (("--help",), 0, "usage: cnotcalc [-h]", None, ""),
            (("construct", "fanout", "3000"), 0, "circuit fanout : 3000 -> 6000", 15002, ""),
            # the commands that import their layers when they run
            (("synth", "graph"), 0, "circuit synth : 1 -> 1", None, ""),
            (("normalize", "idempotent"), 0, "circuit clausal : 2 -> 2", None, ""),
            (("replay", "cnot_twice", "derivation"), 0, "circuit step0 : 2 -> 2", 6, ""),
            (("fuzz", "--trials", "1"), 0, "1 trials passed (wires<=5 depth=30 seed=0)", 1, ""),
            # usage errors are one line too
            (("equal", "swap"), 2, None, 0, "error: equal: missing FILE2; "),
            (("bogus",), 2, None, 0, "error: unknown command 'bogus'; "),
        ],
    )
    def test_exit_code_and_output(self, circuit_files, argv, code, first_line, lines, error):
        proc = cli_process(*(circuit_files.get(arg, arg) for arg in argv))
        assert proc.returncode == code
        out = proc.stdout.splitlines()
        if first_line is not None:
            assert out[0] == first_line
        if lines is not None:
            assert len(out) == lines
        if error:
            assert proc.stderr.startswith(error) and proc.stderr.count("\n") == 1
        else:
            assert proc.stderr == ""

    def test_verify_under_optimize(self):
        # -O strips assert statements: the checks must not rest on them
        proc = cli_process("verify", flags=("-O",))
        assert proc.returncode == 0 and proc.stderr == ""
        assert proc.stdout.splitlines()[-1] == "all checks passed"

    @pytest.mark.parametrize(
        "pair, code", [(("partial_a", "partial_b"), OK), (("partial_a", "partial_c"), FAIL)]
    )
    def test_equal_on_a_partial_pair_is_the_same_under_optimize(self, circuit_files, pair, code):
        paths = [circuit_files[name] for name in pair]
        plain = cli_process("equal", *paths)
        optimized = cli_process("equal", *paths, flags=("-O",))
        assert plain.returncode == code
        assert (optimized.returncode, optimized.stdout) == (plain.returncode, plain.stdout)
