"""Every command that reads a file answers every file: exit 0 or 1 with a
report, or exit 2 with one ``error:`` line, and never an internal error or
a traceback.

The files are valid circuit, relation and derivation files, mutated a few
edits at a time: a token, a line or a character replaced, dropped or
repeated.  The commands run in-process through ``cli.run``.  Drawn
integers have at most three digits, since a header may still declare any
number of wires.
"""

import contextlib
import io

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cnotcalc import cli

CIRCUITS = [
    "circuit c : 3 -> 3\ncnot 0 1\nnot 2\ninit0 1\npost1 1\nswap 0 2\nend\n",
    "circuit c : 2 -> 2\ncnot 0 1\ncnot 0 1\nend\n",
    # the restriction idempotent on x0 = x1, which normalize takes
    "circuit i : 2 -> 2\ninit1 2\ncnot 0 2\ncnot 1 2\npost1 2\nend\n",
    "circuit p : 2 -> 1\n# c\ninit0 2\npost0 0\n\npost1 1\nend\n",
]
RELATIONS = [
    "graph 2 2\nparity x0 y1 = 0\nparity x1 y0 = 1\nend\n",
    "system 3\nparity 0 1 = 1\nend\n",
    "affine 2 2\nrow 1 0\nrow 1 1\nshift 0 1\nparity 0 1 = 0\nend\n",
]
DERIVATIONS = ["CNT2 0 lr\n", "CNT2 0 rl\n# c\n"]
TOKENS = ["cnot", "swap", "init1", "post1", "init0", "post0", "not", "circuit", "end",
          "graph", "system", "affine", "parity", "row", "shift", "x0", "y1", "=", ":",
          "->", "#", "-1", "+1", "1_0", "007", "lr", "rl", "CNT2", ""]
SMALL = st.integers(0, 999).map(str)  # at most three digits


@st.composite
def mutated(draw, seeds):
    """One of ``seeds``, edited up to four times."""
    lines = draw(st.sampled_from(seeds)).split("\n")
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["token", "token", "drop", "repeat", "char"]))
        if edit == "token":
            tokens = lines[at].split(" ")
            i = draw(st.integers(0, len(tokens) - 1))
            tokens[i] = draw(st.one_of(SMALL, st.sampled_from(TOKENS)))
            lines[at] = " ".join(tokens)
        elif edit == "drop":
            del lines[at]
            if not lines:
                lines = [""]
        elif edit == "repeat":
            lines.insert(at, lines[at])
        else:
            text = lines[at]
            i = draw(st.integers(0, len(text)))
            char = draw(st.sampled_from(["", "0", "9", " ", "\t", "#", "\xe9"]))
            lines[at] = text[:i] + char + text[i + 1:]
    return "\n".join(lines)


def run(argv):
    """The exit code and stderr of ``cnotcalc`` run on ``argv``."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, err.getvalue()


def answered(code, err):
    if code == 2:
        return err.startswith("error: ") and err.count("\n") == 1
    return code in (0, 1) and err == ""


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    mutated(CIRCUITS), mutated(CIRCUITS), mutated(RELATIONS), mutated(DERIVATIONS),
    st.sampled_from(["", "0", "1", "01", "110", "2"]),
)
def test_every_file_gets_an_answer(tmp_path_factory, first, second, relation, derivation, bits):
    folder = tmp_path_factory.getbasetemp()
    paths = {}
    for name, text in [("c1", first), ("c2", second), ("r", relation), ("d", derivation)]:
        paths[name] = str(folder / f"totality_{name}")
        with open(paths[name], "w", encoding="utf-8") as fh:
            fh.write(text)
    c1, c2, r, d = paths.values()
    for argv in (["semantics", c1], ["equal", c1, c2], ["eval", c1, "--input", bits],
                 ["normalize", c1], ["synth", r], ["replay", c1, d]):
        code, err = run(argv)
        assert answered(code, err), (argv, code, err)


def test_the_files_before_mutation_are_answered_in_full(tmp_path):
    # the mutations start from files that reach each command's work
    def path(name, text):
        (tmp_path / name).write_text(text)
        return str(tmp_path / name)

    runs = [["semantics", path(f"c{i}", c)] for i, c in enumerate(CIRCUITS)]
    runs += [["synth", path(f"r{i}", r)] for i, r in enumerate(RELATIONS)]
    runs += [["normalize", path("i", CIRCUITS[2])],
             ["eval", path("e", CIRCUITS[0]), "--input", "110"]]
    runs += [["replay", path("c", CIRCUITS[1]), path(f"d{i}", d)]
             for i, d in enumerate(DERIVATIONS)]
    for argv in runs:
        assert run(argv) == (0, ""), argv
