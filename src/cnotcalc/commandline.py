"""The grammar of the command line: ``COMMANDS``, the one table of the
commands with their positionals and options, the usage text written from
it, and ``_read_argv``, which reads a command line against it.

A command line is a command name, then in any order its positionals, its
options and ``--json``.  An option is written in full, as ``--opt VALUE``
or ``--opt=VALUE``; given twice, the last value wins.  ``--`` ends the
options, so every word after it is a positional.  A word that starts with
``-`` and a digit, such as ``-1``, is a positional.  ``-h`` or ``--help``,
alone or after a command, prints usage on stdout.  Any other malformed
command line (no command, an unknown command, a missing or extra
positional, an unknown or abbreviated option, an option without its value,
a missing required option) raises ``CliInputError`` with one line that says
what is wrong.
"""

from __future__ import annotations

from types import SimpleNamespace

from .relation import ENUMERATION_LIMIT


class CliInputError(Exception):
    pass


# command -> (help line, positionals, options).  A positional is the name of
# the argument it fills; one ending in "..." takes every word left.  An
# option maps to (metavar, default), and the default None makes it required.
# Every command also takes the flag --json.  The handler of ``name`` is the
# function ``cli._cmd_<name>``, looked up when the command runs.
COMMANDS = {
    "eval": ("run a circuit on a basis state (BITS: wire 0 leftmost)",
             ("file",), {"input": ("BITS", None)}),
    "semantics": ("print the canonical constraint system", ("file",), {}),
    "equal": ("decide semantic equality of two circuits", ("file1", "file2"), {}),
    "normalize": ("canonical clausal circuit of an idempotent", ("file",), {}),
    "synth": ("synthesize a circuit from a relation file", ("file",), {}),
    "verify": ("check the axiom corpus and the law suites", (), {}),
    "replay": ("replay a derivation file against a circuit", ("file", "derivation"), {}),
    "fuzz": (f"random-circuit oracle and round-trip checks (N at most {ENUMERATION_LIMIT})",
             (), {"wires": ("N", "5"), "depth": ("D", "30"), "seed": ("S", "0"),
                  "trials": ("T", "1000")}),
    "construct": ("print a built-in circuit: fanout, fanin, omega, plus, hat or clause",
                  ("name", "params..."), {}),
}
HELP = ("-h", "--help")


def _synopsis(command: str) -> str:
    _, positionals, options = COMMANDS[command]
    words = [command]
    for name in positionals:
        words.append(f"[{name[:-3].upper()} ...]" if name.endswith("...") else name.upper())
    for name, (metavar, default) in options.items():
        words.append(f"--{name} {metavar}" if default is None else f"[--{name} {metavar}]")
    return " ".join(words)


def _usage(command: str | None) -> str:
    if command is not None:
        text = f"usage: cnotcalc {_synopsis(command)} [--json]\n\n{COMMANDS[command][0]}\n"
        defaults = [f"--{name} {d}" for name, (_, d) in COMMANDS[command][2].items() if d]
        return text + (f"\ndefaults: {', '.join(defaults)}\n" if defaults else "")
    lines = ["usage: cnotcalc [-h]", "       cnotcalc COMMAND [ARGUMENT ...] [--json] [-h]",
             "", "circuit calculus for cnot gates with computational ancillae", "",
             "commands:"]
    for command, (help_line, _, _) in COMMANDS.items():
        lines += [f"  {_synopsis(command)}", f"      {help_line}"]
    return "\n".join(lines) + "\n"


def _is_option(word: str) -> bool:
    # "-" alone and "-1" (a negative number) are positionals
    return word[:1] == "-" and len(word) > 1 and not "0" <= word[1] <= "9"


def _read_argv(argv: list[str]):
    """(command, arguments) of a command line, or None once help is printed."""
    if not argv:
        raise CliInputError(f"no command given; commands: {', '.join(COMMANDS)}")
    command, words = argv[0], iter(argv[1:])
    if command in HELP:
        print(_usage(None), end="")
        return None
    if command not in COMMANDS:
        raise CliInputError(f"unknown command {command!r}; commands: {', '.join(COMMANDS)}")
    _, positionals, options = COMMANDS[command]

    def bad(message):
        return CliInputError(f"{command}: {message}; usage: cnotcalc {_synopsis(command)}")

    values = {name: default for name, (_, default) in options.items()}
    values["json"] = False
    given = []
    for word in words:
        if word == "--":
            given.extend(words)
        elif word in HELP:
            print(_usage(command), end="")
            return None
        elif not _is_option(word):
            given.append(word)
        elif word == "--json":
            values["json"] = True
        else:
            name, eq, value = word[2:].partition("=")
            if word[:2] != "--" or name not in options:
                raise bad(f"unknown option {word!r}")
            if not eq:
                value = next(words, None)
                if value is None or _is_option(value):
                    raise bad(f"option --{name} needs a value")
            values[name] = value
    if positionals and positionals[-1].endswith("..."):
        *fixed, rest = positionals
        values[rest[:-3]] = given[len(fixed):]
    else:
        fixed = positionals
        if len(given) > len(fixed):
            raise bad(f"unexpected argument {given[len(fixed)]!r}")
    if len(given) < len(fixed):
        raise bad(f"missing {fixed[len(given)].upper()}")
    values.update(zip(fixed, given))
    for name, value in values.items():
        if value is None:
            raise bad(f"missing option --{name}")
    return command, SimpleNamespace(**values)
