"""The four benchmark workloads: seeded inputs, the CLI jobs that read them,
and the oracle check of each job's output.

Sizes are fixed per workload; the seed only changes the content, so every
seed costs about the same.  Every job's answer is known by construction and
is confirmed by the independent simulator in ``oracle``.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

import gen
import oracle

SAMPLES = 64  # sample inputs per oracle check (witnesses first)


@dataclass
class Job:
    """One CLI command: its arguments, the exit code a correct answer has,
    and a check of its standard output (None when correct)."""

    label: str
    argv: list[str]
    expect_exit: int
    check: Callable[[str], Optional[str]]
    emitted_gates: Callable[[str], int] = lambda out: 0


@dataclass
class InputInfo:
    """Class and size of one generated input file."""

    cls: str  # "total", "partial" or "empty"
    wires: int
    gates: Optional[int] = None
    posts: Optional[int] = None
    codim: Optional[int] = None


@dataclass
class Workload:
    jobs: list[Job] = field(default_factory=list)
    inputs: dict[str, InputInfo] = field(default_factory=dict)


def _posts(gates) -> int:
    return sum(g[0] == "post1" for g in gates)


class _Writer:
    def __init__(self, workdir: str):
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)

    def write(self, name: str, text: str) -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path


def _single_block(out: str):
    blocks = oracle.parse_circuits(out)
    if len(blocks) != 1:
        raise oracle.OracleError(f"expected one circuit, got {len(blocks)}")
    return blocks[0]


def _gates_of_single(out: str) -> int:
    return len(_single_block(out)[3])


def _circuit_check(n_in: int, n_out: int, expected: list, inputs: list[int]):
    """A stdout check: one emitted circuit equal to ``expected`` on ``inputs``."""

    def check(out: str) -> Optional[str]:
        try:
            block = _single_block(out)
        except (oracle.OracleError, ValueError) as e:
            return f"unreadable output: {e}"
        return oracle.check_against(block, n_in, n_out, expected, inputs)

    return check


def _equal_job(label, path_a, path_b, a, b, n_in, same, witnesses, seed) -> Job:
    """``equal`` on a pair whose answer ``same`` is known by construction.

    The check also confirms the label with the simulator: an equal pair must
    agree on every sample, an unequal one must differ on some sample.
    """
    confirmed: list = []

    def check(out: str) -> Optional[str]:
        if out.strip() != ("equal" if same else "unequal"):
            return f"verdict {out.strip()!r}, known answer {'equal' if same else 'unequal'}"
        if not confirmed:
            inputs = oracle.sample_inputs(n_in, witnesses, SAMPLES, f"{seed}:{label}")
            diff = oracle.first_difference(
                oracle.simulate(n_in, a, inputs), oracle.simulate(n_in, b, inputs)
            )
            if same and diff is not None:
                confirmed.append(f"labelled equal but sample {diff} differs")
            elif not same and diff is None:
                confirmed.append("labelled unequal but no sample differs")
            else:
                confirmed.append(None)
        return confirmed[0]

    return Job(label, ["equal", path_a, path_b], 0 if same else 1, check)


# -- equal-total ------------------------------------------------------------------

TOTAL_WIRES = 64
TOTAL_GATES = 16000
TOTAL_PAIRS = 4  # half equal, half unequal
TOTAL_EDITS = 320


def equal_total(seed: int, workdir: str) -> Workload:
    rng = random.Random(f"equal-total:{seed}")
    w = _Writer(workdir)
    wl = Workload()
    n = TOTAL_WIRES
    for i in range(TOTAL_PAIRS):
        same = i % 2 == 0
        a = gen.total_circuit(rng, n, TOTAL_GATES)
        b = a if same else gen.flip(rng, n, a, rng.getrandbits(n))
        b = gen.equal_edits(rng, n, b, TOTAL_EDITS, cnt6=False)
        pa = w.write(f"t{i}a.circ", gen.format_circuit(f"t{i}a", n, a))
        pb = w.write(f"t{i}b.circ", gen.format_circuit(f"t{i}b", n, b))
        for path, gates in ((pa, a), (pb, b)):
            wl.inputs[path] = InputInfo("total", n, len(gates), 0, 0)
        label = f"equal-total pair {i} ({'equal' if same else 'unequal'})"
        wl.jobs.append(_equal_job(label, pa, pb, a, b, n, same, [], seed))
    return wl


# -- equal-partial ------------------------------------------------------------------

PARTIAL_WIRES = 256
PARTIAL_GATES = 5000
PARTIAL_POST_RATE = 0.3  # gives about a third of the gates as post-selections
PARTIAL_BASES = 4  # the last base is made empty
PARTIAL_EDITS = 100


def equal_partial(seed: int, workdir: str) -> Workload:
    """Per base: (base, edited base) is equal and (base, flipped and edited
    base) is unequal.  The last base gets a contradiction, so its pairs are
    (empty, edited empty), equal, and (empty, edited non-empty), unequal."""
    rng = random.Random(f"equal-partial:{seed}")
    w = _Writer(workdir)
    wl = Workload()
    n = PARTIAL_WIRES
    for i in range(PARTIAL_BASES):
        base, wit = gen.steered_circuit(rng, n, PARTIAL_GATES, PARTIAL_POST_RATE)
        codim = gen.domain_codim(n, base, wit)
        if i == PARTIAL_BASES - 1:
            empty = gen.make_empty(rng, n, base)
            variants = [
                ("e", empty, "empty", True),
                ("u", base, "partial", False),
            ]
            base, cls = empty, "empty"
        else:
            variants = [
                ("e", base, "partial", True),
                ("u", gen.flip(rng, n, base, wit[0]), "partial", False),
            ]
            cls = "partial"
        pa = w.write(f"p{i}.circ", gen.format_circuit(f"p{i}", n, base))
        wl.inputs[pa] = InputInfo(cls, n, len(base), _posts(base), None if cls == "empty" else codim)
        for tag, src, vcls, same in variants:
            b = gen.equal_edits(rng, n, src, PARTIAL_EDITS)
            pb = w.write(f"p{i}{tag}.circ", gen.format_circuit(f"p{i}{tag}", n, b))
            # flipped variants keep the base's size; their domain is not tracked
            wl.inputs[pb] = InputInfo(vcls, n, len(b), _posts(b), codim if vcls == "partial" and same else None)
            label = f"equal-partial base {i} {cls} vs {vcls} ({'equal' if same else 'unequal'})"
            wl.jobs.append(_equal_job(label, pa, pb, base, b, n, same, wit, seed))
    return wl


# -- compile --------------------------------------------------------------------------

COMPILE_WIDTHS = (32, 48)
COMPILE_GATES = 160  # of the steered circuits behind the synth and normalize inputs
COMPILE_POST_RATE = 0.12
FANOUT_N = 96
PLUS_N = 64
CLAUSE_N = 128


def compile_(seed: int, workdir: str) -> Workload:
    rng = random.Random(f"compile:{seed}")
    w = _Writer(workdir)
    wl = Workload()
    for n in COMPILE_WIDTHS:
        # synth, partial class: the raw graph of a witness-steered circuit
        c, wit = gen.steered_circuit(rng, n, COMPILE_GATES, COMPILE_POST_RATE, witnesses=2, band=8)
        path = w.write(f"sp{n}.rel", gen.relation_text(n, c))
        m = gen.widths(n, c)[-1]
        wl.inputs[path] = InputInfo("partial", n, len(c), _posts(c), gen.domain_codim(n, c, wit))
        inputs = oracle.sample_inputs(n, wit, SAMPLES, f"{seed}:sp{n}")
        wl.jobs.append(Job(
            f"synth partial {n}", ["synth", path], 0,
            _circuit_check(n, m, oracle.simulate(n, c, inputs), inputs), _gates_of_single,
        ))

        # synth, total class: an affine map block, x -> (x, T x + s)
        rows = [rng.getrandbits(n) for _ in range(n)]
        shift = rng.getrandbits(n)
        path = w.write(f"st{n}.rel", gen.affine_text(rows, shift, n))
        wl.inputs[path] = InputInfo("total", n, None, 0, 0)
        n_in, n_out, f = oracle.affine_ref(rows, shift, n)
        inputs = oracle.sample_inputs(n, [], SAMPLES, f"{seed}:st{n}")
        wl.jobs.append(Job(
            f"synth total {n}", ["synth", path], 0,
            _circuit_check(n_in, n_out, [f(x) for x in inputs], inputs), _gates_of_single,
        ))

        # normalize the restriction idempotent c ; c-dagger
        c, wit = gen.steered_circuit(rng, n, COMPILE_GATES, COMPILE_POST_RATE, witnesses=2, band=8)
        idem = c + gen.dagger(c)
        path = w.write(f"nm{n}.circ", gen.format_circuit(f"nm{n}", n, idem))
        wl.inputs[path] = InputInfo("partial", n, len(idem), _posts(idem), gen.domain_codim(n, c, wit))
        inputs = oracle.sample_inputs(n, wit, SAMPLES, f"{seed}:nm{n}")
        wl.jobs.append(Job(
            f"normalize {n}", ["normalize", path], 0,
            _circuit_check(n, n, oracle.simulate(n, idem, inputs), inputs), _gates_of_single,
        ))

    support = sorted(rng.sample(range(CLAUSE_N), CLAUSE_N // 2))
    rhs = rng.randrange(2)
    constructs = [
        (["fanout", str(FANOUT_N)], oracle.fanout_ref(FANOUT_N), "total"),
        (["plus", str(PLUS_N)], oracle.plus_ref(PLUS_N), "total"),
        (["clause", str(CLAUSE_N), str(rhs), *map(str, support)],
         oracle.clause_ref(CLAUSE_N, rhs, support), "partial"),
    ]
    for args, (n_in, n_out, f), cls in constructs:
        inputs = oracle.sample_inputs(n_in, [], SAMPLES, f"{seed}:{args[0]}")
        wl.inputs[f"construct {args[0]}"] = InputInfo(cls, n_in)
        wl.jobs.append(Job(
            f"construct {args[0]} {args[1]}", ["construct", *args], 0,
            _circuit_check(n_in, n_out, [f(x) for x in inputs], inputs), _gates_of_single,
        ))
    return wl


# -- rewrite --------------------------------------------------------------------------

REWRITE_WIRES = 32
REWRITE_DERIVATIONS = 4
REWRITE_STEPS = 12
REWRITE_FILLER = 300  # random gates between planted rule instances
FUZZ_TRIALS = 100

# (rule, direction, planted source side on wires a, b, c or position p).
# An empty source side (an "rl" step whose target is the identity) matches
# at any offset.
_PLANTS = [
    ("CNT1", "lr", lambda a, b, c, p: [("cnot", a, b), ("cnot", b, a), ("cnot", a, b)]),
    ("CNT1", "rl", lambda a, b, c, p: [("swap", a, b)]),
    ("CNT2", "lr", lambda a, b, c, p: [("cnot", a, b), ("cnot", a, b)]),
    ("CNT2", "rl", lambda a, b, c, p: []),
    ("CNT3", "lr", lambda a, b, c, p: [("cnot", b, a), ("cnot", b, c)]),
    ("CNT5", "lr", lambda a, b, c, p: [("cnot", a, b), ("cnot", c, b)]),
    ("CNT6", "lr", lambda a, b, c, p: [("init1", p), ("post1", p)]),
    ("CNT6", "rl", lambda a, b, c, p: []),
    ("CNT8", "lr", lambda a, b, c, p: [("cnot", a, b), ("cnot", b, c), ("cnot", a, b)]),
    ("cnot-triple", "lr", lambda a, b, c, p: [("cnot", a, b), ("cnot", b, c), ("cnot", a, b)]),
    ("cnot-slide", "lr", lambda a, b, c, p: [("cnot", a, b), ("cnot", b, c)]),
    ("not-involution", "lr", lambda a, b, c, p: [
        ("init1", p), ("cnot", p, p + 1), ("post1", p),
        ("init1", p), ("cnot", p, p + 1), ("post1", p),
    ]),
    ("not-involution", "rl", lambda a, b, c, p: []),
    ("zero-cancel", "rl", lambda a, b, c, p: []),
]


def planted_derivation(rng, n: int, steps: int, filler: int):
    """A total circuit with rule instances planted at known offsets, and the
    derivation that rewrites them.  Steps run from the last offset to the
    first, so each rewrite leaves every earlier offset in place."""
    gates: list[tuple] = []
    plan = []
    for _ in range(steps):
        gates += gen.total_circuit(rng, n, filler)
        name, direction, shape = rng.choice(_PLANTS)
        a, b, c = rng.sample(range(n), 3)
        plan.append((name, len(gates), direction))
        gates += shape(a, b, c, rng.randrange(n))
    gates += gen.total_circuit(rng, n, filler)
    text = "".join(f"{name} {off} {d}\n" for name, off, d in reversed(plan))
    return gates, text


def rewrite(seed: int, workdir: str) -> Workload:
    rng = random.Random(f"rewrite:{seed}")
    w = _Writer(workdir)
    wl = Workload()
    n = REWRITE_WIRES
    for i in range(REWRITE_DERIVATIONS):
        gates, steps = planted_derivation(rng, n, REWRITE_STEPS, REWRITE_FILLER)
        pc = w.write(f"r{i}.circ", gen.format_circuit(f"r{i}", n, gates))
        pd = w.write(f"r{i}.deriv", steps)
        wl.inputs[pc] = InputInfo("total", n, len(gates), _posts(gates), 0)
        inputs = oracle.sample_inputs(n, [], SAMPLES, f"{seed}:r{i}")
        expected = oracle.simulate(n, gates, inputs)

        def check(out, gates=gates, inputs=inputs, expected=expected):
            try:
                blocks = oracle.parse_circuits(out)
            except (oracle.OracleError, ValueError) as e:
                return f"unreadable output: {e}"
            if len(blocks) != REWRITE_STEPS + 1:
                return f"{len(blocks)} circuits printed, expected {REWRITE_STEPS + 1}"
            if blocks[0][3] != gates:
                return "step 0 differs from the input circuit"
            return oracle.check_against(blocks[-1], n, n, expected, inputs)

        wl.jobs.append(Job(
            f"replay {i}", ["replay", pc, pd], 0, check,
            lambda out: len(oracle.parse_circuits(out)[-1][3]),
        ))

    def verify_check(out):
        lines = out.strip().splitlines()
        if not lines or lines[-1] != "all checks passed" or any(l.startswith("FAIL") for l in lines):
            return "verify did not pass every check"
        return None

    wl.jobs.append(Job("verify", ["verify"], 0, verify_check))

    def fuzz_check(out):
        want = f"{FUZZ_TRIALS} trials passed"
        return None if out.startswith(want) else f"fuzz output {out.strip()[:80]!r}"

    wl.jobs.append(Job(
        "fuzz", ["fuzz", "--trials", str(FUZZ_TRIALS), "--seed", str(seed)], 0, fuzz_check
    ))
    return wl


WORKLOADS = {
    "equal-total": equal_total,
    "equal-partial": equal_partial,
    "compile": compile_,
    "rewrite": rewrite,
}
