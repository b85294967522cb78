"""Benchmark of the cnotcalc command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; ``cnotcalc`` is imported from
``src/``.  The benchmark generates the workload's inputs from the seed, then
runs the workload's CLI commands as processes, one at a time (closed loop,
one client), in whole cycles over its job list for about S seconds, taking
``cnotcalc --help`` set-up samples and ``reference.py`` host-speed samples
in between.  End-to-end times are scaled to a fixed host speed by the
reference's median.  Every output is checked by an independent simulator
after the timed loop.

With ``--trace 1`` each command runs twice per cycle, plainly and through
``traced_cli.py``, and the last line reports the per-layer metrics derived
from the spans instead of the end-to-end ones.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
WORKDIR = ".perfbench_work"
SAMPLES_BEFORE = 2  # set-up and reference samples each before the loop; more follow each job
# Median time of reference.py on the 2-core machine the benchmark was written
# on.  End-to-end times are scaled by REFERENCE_S / (median in this run), so
# they read as seconds at that host speed (see README.md).
REFERENCE_S = 0.18
COMMAND_TIMEOUT_S = 60
PROBE_TIMEOUT_S = 120

# Percentile of cmd_tail_s per workload: the highest that leaves at least ten
# samples beyond it at the fewest commands a run of the workload reaches on a
# 2-core machine (32 for the equal workloads, 42 for the others).
TAIL_PERCENTILE = {"equal-total": 0.65, "equal-partial": 0.65, "compile": 0.75, "rewrite": 0.75}


class Runner:
    """Runs CLI processes one at a time through ``spawner.py``, which reaps
    each with ``wait4``, so every process's wall time and peak RSS are its
    own."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
        self.plain = [sys.executable, "-m", "cnotcalc.cli"]
        self.traced = [sys.executable, os.path.join(HERE, "traced_cli.py")]
        self.reference = [sys.executable, os.path.join(HERE, "reference.py")]
        self._spawner = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "spawner.py"), str(COMMAND_TIMEOUT_S)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=self.env, text=True,
        )

    def close(self) -> None:
        self._spawner.stdin.close()
        self._spawner.wait()

    def run(self, argv: list[str]) -> dict:
        out_path = os.path.join(self.workdir, "stdout")
        err_path = os.path.join(self.workdir, "stderr")
        request = {"argv": argv, "out": out_path, "err": err_path}
        self._spawner.stdin.write(json.dumps(request) + "\n")
        self._spawner.stdin.flush()
        res = json.loads(self._spawner.stdout.readline())
        with open(out_path, encoding="utf-8", errors="replace") as fh:
            res["stdout"] = fh.read()
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            res["stderr"] = fh.read()
        return res


class Checker:
    """Checks each distinct (job, exit code, output) once; the CLI is
    deterministic, so a repeated output has the same verdict."""

    def __init__(self, jobs):
        self.jobs = jobs
        self._seen: dict[tuple, str | None] = {}
        self.failures: list[str] = []

    def problem(self, idx: int, res: dict) -> str | None:
        job = self.jobs[idx]
        crashed = "Traceback (most recent call last)" in res["stderr"]
        key = (idx, res["code"], crashed, hashlib.sha1(res["stdout"].encode()).hexdigest())
        if key not in self._seen:
            if crashed:
                msg = "traceback: " + res["stderr"].strip().splitlines()[-1]
            elif res["code"] != job.expect_exit:
                msg = f"exit {res['code']}, expected {job.expect_exit}: {res['stderr'].strip()[:200]}"
            else:
                msg = job.check(res["stdout"])
            self._seen[key] = msg
        msg = self._seen[key]
        if msg is not None:
            self.failures.append(f"{job.label}: {msg}")
        return msg


def percentile(values: list[float], p: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    s = sorted(values)
    rank = max(1, math.ceil(p * len(s)))
    return s[rank - 1], len(s) - rank


def run_cycles(runner, jobs, seconds, trace):
    """Whole cycles over the job list; a new cycle starts while at least half
    of one fits before the deadline, so runs last about ``seconds``.

    After each job, one ``--help`` process (a set-up sample) or one
    reference process (a host-speed sample) runs, alternately, so both are
    sampled across the whole run; their time is left out of the loop time.
    Returns (results, set-up samples, reference samples, loop wall time,
    cycles); each result is (job index, mode, result dict) with mode
    "plain" or "traced".
    """
    help_argv = runner.plain + ["--help"]
    runner.run(help_argv)  # compile bytecode before timing
    samples = ([], [])  # set-up, reference

    def sample():
        k = sum(map(len, samples)) % 2
        samples[k].append(runner.run(help_argv if k == 0 else runner.reference)["wall"])

    for _ in range(2 * SAMPLES_BEFORE):
        sample()
    results = []
    start = time.perf_counter()
    deadline = start + seconds
    sampling = 0.0
    cycle = 0
    while True:
        c0 = time.perf_counter()
        for idx, job in enumerate(jobs):
            modes = ["plain"]
            if trace:
                modes = ["plain", "traced"] if cycle % 2 == 0 else ["traced", "plain"]
            for mode in modes:
                if mode == "plain":
                    res = runner.run(runner.plain + job.argv)
                else:
                    spans = os.path.join(runner.workdir, f"spans-{len(results)}.bin")
                    res = runner.run(runner.traced + [spans] + job.argv)
                    res["spans"] = spans
                results.append((idx, mode, res))
            t = time.perf_counter()
            sample()
            sampling += time.perf_counter() - t
        cycle += 1
        now = time.perf_counter()
        if now + (now - c0) / 2 > deadline:
            return results, samples[0], samples[1], now - start - sampling, cycle


def input_stats(wl) -> dict[str, float]:
    infos = list(wl.inputs.values())

    def mean(key):
        vals = [getattr(i, key) for i in infos if getattr(i, key) is not None]
        return statistics.fmean(vals) if vals else 0.0

    stats = {f"input.{c}_share": sum(i.cls == c for i in infos) / len(infos)
             for c in ("total", "partial", "empty")}
    stats.update({f"input.{k}_mean": mean(k) for k in ("wires", "gates", "posts", "codim")})
    return stats


def src_lines() -> int:
    pkg = os.path.join("src", "cnotcalc")
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                total += sum(1 for _ in fh)
    return total


def run_probes(env: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "probes.py")],
        env=env, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"probes failed: {proc.stderr.strip()[-300:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# per-layer metric -> (unit, how, key) over the span totals of all traced
# commands: "mean" divides a total by the number of commands, "max" takes
# the largest, "ratio" divides one total (or sum of totals) by another.
LAYER_METRICS = {
    "formats.parse_s": ("s", "mean", "formats.parse.self_s"),
    "formats.parse_gates_per_s": ("gates/s", "ratio", ("formats.parse.a", "formats.parse.self_s")),
    "formats.format_s": ("s", "mean", "formats.format.self_s"),
    "formats.lines_out": ("count", "mean", "formats.format.a"),
    "circuit.validate_s": ("s", "mean", "circuit.validate.self_s"),
    "circuit.gates_validated": ("gates", "mean", "circuit.validate.a"),
    "circuit.revalidation_ratio": ("ratio", "ratio", ("circuit.validate.a", ("formats.parse.a", "formats.format.b"))),
    "circuit.semantics_s": ("s", "mean", "circuit.semantics.self_s"),
    "circuit.semantics_calls": ("count", "mean", "circuit.semantics.calls"),
    "circuit.posts": ("count", "mean", "circuit.semantics.a"),
    "circuit.construct_s": ("s", "mean", "circuit.construct.self_s"),
    "circuit.construct_gates": ("gates", "mean", "circuit.construct.outer_a"),
    "relation.canonical_s": ("s", "mean", "relation.canonical.incl_s"),
    "relation.rows_in": ("count", "mean", "relation.canonical.a"),
    "relation.rows_out": ("count", "mean", "relation.canonical.b"),
    "relation.row_keep_ratio": ("ratio", "ratio", ("relation.canonical.b", "relation.canonical.a")),
    "relation.partial_iso_s": ("s", "mean", "relation.partial_iso.self_s"),
    "relation.ops_s": ("s", "mean", "relation.ops.self_s"),
    "relation.apply_calls": ("count", "mean", "relation.ops.calls"),
    "gf2.rref_s": ("s", "mean", "gf2.rref.self_s"),
    "gf2.rref_calls": ("count", "mean", "gf2.rref.calls"),
    "gf2.rref_rows_total": ("count", "mean", "gf2.rref.a"),
    "gf2.rref_rows_max": ("count", "max", "gf2.rref.a_max"),
    "gf2.project_s": ("s", "mean", "gf2.project.self_s"),
    "normalize.extract_s": ("s", "mean", "normalize.extract.self_s"),
    "normalize.eliminate_s": ("s", "mean", "normalize.eliminate.self_s"),
    "normalize.moves": ("count", "mean", "normalize.eliminate.a"),
    "normalize.emit_s": ("s", "mean", "normalize.emit.self_s"),
    "normalize.clauses": ("count", "mean", "normalize.emit.a"),
    "synth.s": ("s", "mean", "synth.synth.incl_s"),
    "synth.domain_stage_s": ("s", "mean", "synth.domain_stage.incl_s"),
    "synth.graph_stage_s": ("s", "mean", "synth.graph_stage.incl_s"),
    "synth.self_s": ("s", "mean", "synth.synth.self_s"),
    "synth.gates_out": ("gates", "mean", "synth.synth.a"),
    "rewrite.apply_at_s": ("s", "mean", "rewrite.apply_at.self_s"),
    "rewrite.apply_at_calls": ("count", "mean", "rewrite.apply_at.calls"),
    "rewrite.find_rule_s": ("s", "mean", "rewrite.find_rule.self_s"),
    "rewrite.find_rule_calls": ("count", "mean", "rewrite.find_rule.calls"),
    "rewrite.verify_s": ("s", "mean", "rewrite.verify.incl_s"),
    "lawsuites.run_all_s": ("s", "mean", "lawsuites.run_all.incl_s"),
    "fuzzing.fuzz_s": ("s", "mean", "fuzzing.fuzz.incl_s"),
    "fuzzing.trials": ("count", "mean", "fuzzing.fuzz.a"),
}

# inclusive times: they contain other layers' spans
INCLUSIVE = {"cli.import_s", "relation.canonical_s", "synth.s", "synth.domain_stage_s",
             "synth.graph_stage_s", "rewrite.verify_s", "lawsuites.run_all_s", "fuzzing.fuzz_s"}

PROBE_UNITS = {
    "probe.semantics_256_s": "s",
    "probe.fanout_256_s": "s",
    "probe.fanout_256_gates": "gates",
    "probe.plus_map_256_s": "s",
    "probe.plus_map_256_gates": "gates",
    "probe.clause_128_64_s": "s",
    "probe.clause_128_64_gates": "gates",
    "probe.apply_at_20k_ms": "ms",
}


def traced_metrics(traced: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the span files of the traced commands."""
    totals: dict[str, float] = {}
    imports = []
    for res in traced:
        header, spans = tracer.read_spans(res["spans"])
        imports.append(header["import_s"])
        for key, v in tracer.derive(spans).items():
            totals[key] = max(totals.get(key, 0.0), v) if key.endswith("_max") else totals.get(key, 0.0) + v

    def total(key):
        if isinstance(key, tuple):
            return sum(total(k) for k in key)
        return totals.get(key, 0.0)

    out = {"cli.import_s": (statistics.median(imports), "s")}
    for name, (unit, how, key) in LAYER_METRICS.items():
        if how == "mean":
            value = total(key) / len(traced)
        elif how == "max":
            value = total(key)
        else:
            num, den = total(key[0]), total(key[1])
            value = num / den if den else 0.0
        out[name] = (value, unit)
    return out


def print_split(metrics) -> None:
    """The per-layer split the workloads were chosen to show."""
    own = {k: v for k, (v, unit) in metrics.items()
           if unit == "s" and k not in INCLUSIVE and not k.startswith("probe.")}
    top = sorted(own.items(), key=lambda kv: -kv[1])[:4]
    print("largest per-layer self times: " + ", ".join(f"{k} {v:.4g}" for k, v in top))
    sem = metrics["relation.canonical_s"][0] + metrics["circuit.semantics_s"][0]
    print(f"relation.canonical_s + circuit.semantics_s = {sem:.4g} vs formats.parse_s = "
          f"{metrics['formats.parse_s'][0]:.4g}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "cnotcalc", "cli.py")):
        print("error: run from the root of a cnotcalc checkout (src/cnotcalc missing)", file=sys.stderr)
        return 2
    workdir = os.path.join(WORKDIR, args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, os.path.join(workdir, "inputs"))
    runner = Runner(workdir)
    try:
        results, setup, ref, loop_wall, cycles = run_cycles(runner, wl.jobs, args.seconds, args.trace)
    finally:
        runner.close()

    checker = Checker(wl.jobs)
    problems = [checker.problem(idx, res) for idx, _, res in results]
    failed = sum(p is not None for p in problems)
    plain = [res for _, mode, res in results if mode == "plain"]
    walls = [res["wall"] for res in plain]
    pct = TAIL_PERCENTILE[args.workload]
    tail, beyond = percentile(walls, pct)
    # gates emitted by one cycle: the first correct run of each job
    emitted = {}
    for (idx, _, res), problem in zip(results, problems):
        if problem is None and idx not in emitted:
            emitted[idx] = wl.jobs[idx].emitted_gates(res["stdout"])
    output_gates = sum(emitted.values())
    error_rate = failed / len(results)

    print(f"workload {args.workload} seed {args.seed}: {len(wl.jobs)} jobs per cycle, "
          f"{cycles} cycles, {len(results)} commands in {loop_wall:.2f} s")
    for idx, job in enumerate(wl.jobs):
        per_job = [r["wall"] for i, m, r in results if i == idx and m == "plain"]
        print(f"  {job.label:52s} median {statistics.median(per_job):.3f} s over {len(per_job)}")
    print(f"cmd_tail_s is p{round(pct * 100)} of {len(walls)} plain commands, {beyond} beyond it")
    scale = REFERENCE_S / statistics.median(ref)
    print(f"setup_s is the median of {len(setup)} --help runs; host speed: reference median "
          f"{statistics.median(ref):.4f} s over {len(ref)} runs, times scaled by {scale:.4f}")
    print(f"unscaled: setup {statistics.median(setup):.4f} s, p50 {statistics.median(walls):.4f} s, "
          f"tail {tail:.4f} s, {len(results) / loop_wall:.4f} commands/s")
    print("inputs: " + ", ".join(f"{k}={v:.4g}" for k, v in input_stats(wl).items()))
    print(f"output_gates={output_gates} gates, error_rate={error_rate:.4g} ({failed} of {len(results)})")
    for msg in checker.failures[:5]:
        print(f"FAILED {msg}")

    if not args.trace:
        metrics = {
            "setup_s": (statistics.median(setup) * scale, "s"),
            "cmd_p50_s": (statistics.median(walls) * scale, "s"),
            "cmd_tail_s": (tail * scale, "s"),
            "cmds_per_s": (len(walls) / loop_wall / scale, "1/s"),
            "peak_rss_mb": (max(r["rss_mb"] for r in plain), "MB"),
        }
    else:
        traced = [res for _, mode, res in results if mode == "traced"]
        metrics = traced_metrics(traced)
        overhead = sum(r["wall"] for r in traced) / sum(r["wall"] for r in plain) - 1
        metrics["trace.overhead_frac"] = (overhead, "fraction")
        metrics["output_gates"] = (output_gates, "gates")
        metrics["error_rate"] = (error_rate, "fraction")
        probes = run_probes(runner.env)
        print(f"probe semantics circuit: 256 wires, 180000 gates, {probes.pop('probe.semantics_256_posts')} posts")
        metrics.update((k, (v, PROBE_UNITS[k])) for k, v in probes.items())
        metrics["src.lines"] = (src_lines(), "lines")
        print_split(metrics)
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
