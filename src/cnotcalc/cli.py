"""Command-line interface.

Exit codes: 0 for success or a true answer, 1 for a false answer or a failed
check, 2 for input errors, 3 for an internal error (a bug: one line on
stderr, no traceback), and 141 (128 + SIGPIPE, the status a shell shows
for a process that SIGPIPE ended), with nothing on stderr, when the reader
closes stdout before all of the output is written, as ``| head`` may.
``--json`` prints a stable JSON mirror of the report instead of plain text;
errors stay one plain ``error:`` line on stderr.  A command holds at once
one window of input, one printed block and the circuits it works on, save
``equal`` and ``semantics``, which hold none: ``commandio`` hands files
open to readers that take them a window at a time,
``semantics_reader.parse_semantics`` runs each gate line as it splits it,
and the ``--json`` report is built only under ``--json``.  ``replay``
checks every step before it prints any, holding the start circuit, the
current one and each step's splice (its offset, the length of the segment
it replaced and the gates put in its place); it then rebuilds the circuits
one at a time as it writes them, so it holds at most two gate tuples and
one printed block at once.

``COMMANDS``, the one table of the command line, and ``_read_argv``, which
reads it, are the grammar in ``commandline``.  A malformed command line
exits 2 with one ``error:`` line on stderr; ``-h`` or ``--help`` exits 0.

The package compiles in small units, each module one concept of at most
2,000 tokens: without a bytecode cache every process compiles each module
it loads, and what the parser allocates for the largest one stays in the
process's resident memory.  Every command, ``--help`` too, loads
``commandline``, ``commandio``, ``circuit`` (with ``gates``), ``relation``,
``gf2`` and ``record``.  Each handler that reads or writes a file imports
the format it runs when it runs: ``circuit_formats`` (with ``lexing``) for
circuits and derivations, ``relation_formats`` (with ``lexing``) for
``semantics``' output and ``synth``'s input, so only those two commands
compile a relation reader.  ``Circuit.semantics`` imports ``symbolic``, so
``--help`` loads no format and no ``symbolic``, and ``eval`` and
``construct`` load no ``symbolic``; ``equal`` and ``semantics`` load
``semantics_reader`` too, and so does ``fuzz``'s file trial, which checks
it.  The layers above ``circuit`` (``normalize``, ``synth``, ``rewrite``
with its ``identities``, ``derivation``, ``fuzzing``, ``lawsuites``) are
imported by the handlers that run them, so ``equal``, ``semantics``,
``eval`` and ``construct`` never load them, and ``verify`` loads no file
format, ``derivation``, ``semantics_reader``, ``synth`` or ``normalize``.  ``circuit`` stays imported here, since
``construct`` reads its constructions from this module's namespace, and
``relation`` compiles before this module, through the package's own
import, so that the parser's peak on it is reused by the modules compiled
after it rather than stacked on top of them.

``main`` is the process entry point of ``cnotcalc`` and ``python -m
cnotcalc.cli``; once the command is done it freezes the heap, so interpreter
shutdown does not collect it.  ``run(argv)`` is the in-process entry point: it
returns the exit code and leaves the garbage collector as it found it.
"""

from __future__ import annotations

import os
import sys

from .circuit import (
    clause_circuit,
    fanin,
    fanout,
    hat,
    omega,
    omega_nm,
    plus_map,
)
from .commandio import _emit, _load_circuit, _parse, _parse_bits, _write
from .commandline import COMMANDS, CliInputError, _read_argv  # noqa: F401  (COMMANDS: bound here too)
from .relation import ENUMERATION_LIMIT

OK, FAIL, USAGE, INTERNAL, BROKEN_PIPE = 0, 1, 2, 3, 141


def _cmd_eval(args) -> int:
    _, c = _load_circuit(args.file)
    x = _parse_bits(args.input)
    if len(x) != c.n_in:
        raise CliInputError(f"circuit takes {c.n_in} bits, got {len(x)}")
    y = c.eval_state(x)
    out = "undefined" if y is None else "".join(str(b) for b in y)
    _emit(args, f"{out}\n" if out else "", lambda: {
        "command": "eval", "defined": y is not None, "output": None if y is None else out,
    })
    return OK


def _cmd_semantics(args) -> int:
    from .relation_formats import format_relation
    from .semantics_reader import parse_semantics

    _, rel = _parse(args.file, parse_semantics)
    text = format_relation(rel)
    _emit(args, text, lambda: {"command": "semantics", "relation": text.splitlines()})
    return OK


def _cmd_equal(args) -> int:
    from .semantics_reader import parse_semantics

    _, first = _parse(args.file1, parse_semantics)
    _, second = _parse(args.file2, parse_semantics)
    if (first.n_in, first.n_out) != (second.n_in, second.n_out):
        raise CliInputError(
            f"arity mismatch: {first.n_in}->{first.n_out} vs {second.n_in}->{second.n_out}"
        )
    same = first == second
    _emit(args, "equal\n" if same else "unequal\n", lambda: {"command": "equal", "equal": same})
    return OK if same else FAIL


def _cmd_normalize(args) -> int:
    from .circuit_formats import format_circuit
    from .normalize import NotIdempotentError, normalize_idempotent

    _, c = _load_circuit(args.file)
    try:
        clausal = normalize_idempotent(c)  # checked before it is printed
    except NotIdempotentError as e:
        raise CliInputError(f"not a restriction idempotent: {e}") from None
    text = format_circuit(clausal, name="clausal")
    _emit(args, text, lambda: {"command": "normalize", "circuit": text.splitlines()})
    return OK


def _cmd_synth(args) -> int:
    from .circuit_formats import format_circuit
    from .relation_formats import parse_synth_input
    from .synth import synth

    rel = _parse(args.file, parse_synth_input)
    c = synth(rel)
    if c.semantics() != rel:  # checked before it is printed
        raise RuntimeError("synth built a circuit whose semantics differs from the relation")
    text = format_circuit(c, name="synth")
    _emit(args, text, lambda: {"command": "synth", "circuit": text.splitlines()})
    return OK


def _cmd_verify(args) -> int:
    from . import lawsuites
    from .rewrite import verify_all

    lines = []
    ok = True
    for report in verify_all():
        ok &= report.ok
        lines.append(f"{'PASS' if report.ok else 'FAIL'}  rule {report.name}")
    for name, passed in lawsuites.run_all():
        ok &= passed
        lines.append(f"{'PASS' if passed else 'FAIL'}  law {name}")
    text = "\n".join(lines + ["all checks passed" if ok else "FAILURES detected", ""])
    _emit(args, text, lambda: {"command": "verify", "ok": ok, "report": lines})
    return OK if ok else FAIL


def _cmd_replay(args) -> int:
    # the circuit format compiles before rewrite: the other order raised
    # this command's median peak RSS by 70-130 KiB
    from .circuit_formats import format_circuit, parse_derivation
    from .derivation import Derivation, replay

    _, c = _load_circuit(args.file)
    steps = _parse(args.derivation, parse_derivation)
    # every step is checked before the first block is printed, and each
    # circuit is rebuilt from the one before as it is printed
    circuits = enumerate(replay(Derivation(c, tuple(steps))))
    if args.json:
        blocks = [
            format_circuit(ci, name=f"step{i}").rstrip("\n") for i, ci in circuits
        ]
        _emit(args, "", lambda: {"command": "replay", "steps": len(steps), "circuits": blocks})
    else:
        for i, ci in circuits:  # one block held at a time
            _write(format_circuit(ci, name=f"step{i}"))
    return OK


def _cmd_fuzz(args) -> int:
    from .circuit_formats import format_circuit
    from .fuzzing import fuzz
    from .lexing import integer

    wires, depth, seed, trials = map(integer, (args.wires, args.depth, args.seed, args.trials))
    for option, value in (("trials", trials), ("wires", wires), ("depth", depth)):
        if value < 0:
            raise CliInputError(f"--{option} must be nonnegative, got {value}")
    # the oracle trial holds all 2^wires inputs, 128 KiB a wire at 20 wires
    if wires > ENUMERATION_LIMIT:
        raise CliInputError(f"--wires must be at most {ENUMERATION_LIMIT}, got {wires}")
    ran, failure = fuzz(wires, depth, seed, trials)
    if failure is None:
        _emit(
            args,
            f"{ran} trials passed (wires<={wires} depth={depth} seed={seed})\n",
            lambda: {"command": "fuzz", "ok": True, "trials": ran, "seed": seed},
        )
        return OK
    index, c, message = failure
    body = format_circuit(c, name=f"counterexample{index}")
    _emit(
        args,
        f"trial {index}: {message}\n{body}",
        lambda: {
            "command": "fuzz",
            "ok": False,
            "trial": index,
            "message": message,
            "circuit": body.splitlines(),
        },
    )
    return FAIL


def _build_construct(name: str, params: list[str]):
    from .lexing import integer

    def arity(*counts):
        if len(params) not in counts:
            told = " or ".join(map(str, counts))
            raise CliInputError(f"construct {name} takes {told} argument(s)")

    def num(i):
        return integer(params[i])

    if name == "fanout":
        arity(1)
        return fanout(num(0))
    if name == "fanin":
        arity(1)
        return fanin(num(0))
    if name == "omega":
        arity(0, 2)
        return omega_nm(num(0), num(1)) if params else omega()
    if name == "plus":
        arity(1)
        return plus_map(num(0))
    if name == "hat":
        arity(1)
        return hat(_parse_bits(params[0]))
    if name == "clause":
        if len(params) < 2:
            raise CliInputError("construct clause takes: <n> <rhs> [wire ...]")
        n, rhs = num(0), num(1)
        return clause_circuit([num(i) for i in range(2, len(params))], rhs, n)
    raise CliInputError(f"unknown construction {name!r}")


def _cmd_construct(args) -> int:
    from .circuit_formats import format_circuit

    c = _build_construct(args.name, args.params)
    text = format_circuit(c, name=args.name)
    _emit(args, text, lambda: {"command": "construct", "circuit": text.splitlines()})
    return OK


def run(argv) -> int:
    try:
        code = _dispatch(argv)
        sys.stdout.flush()  # so a closed stdout shows here, not at shutdown
    except BrokenPipeError:
        # The reader has gone, as with ``| head``.  Point stdout at the null
        # device so that the flush at shutdown does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return BROKEN_PIPE
    except (CliInputError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE
    except Exception as e:
        message = " ".join(str(e).splitlines())
        print(f"error: internal error: {type(e).__name__}: {message}", file=sys.stderr)
        return INTERNAL
    return code


def _dispatch(argv) -> int:
    parsed = _read_argv(list(argv))
    if parsed is None:
        return OK
    command, args = parsed
    return globals()[f"_cmd_{command}"](args)


def main() -> None:
    code = run(sys.argv[1:])
    # Interpreter shutdown runs full cyclic collections over the whole heap,
    # about 10 ms that only free memory the OS takes back at exit anyway.
    # Frozen objects are out of their reach; atexit handlers and the final
    # flush of stdout and stderr still run.  Imported here, since nothing
    # else in the package may touch the collector.
    import gc

    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
