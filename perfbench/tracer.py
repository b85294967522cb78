"""Span tracing of the cnotcalc layers from outside the package.

``install`` wraps the public functions and methods of each layer and rebinds
every module attribute in the ``cnotcalc`` package that holds one of them
(for example ``relation.rref_masks``, ``synth.rref_masks`` and the names
``cli`` imports), so calls through any of those names are recorded.
``uninstall`` puts the original objects back.

A span is (name, start, end, parent, value_a, value_b).  The parent is the
index of the enclosing span, or -1.  The two values are sizes measured at
the call (gates, rows, lines); what they mean depends on the span name.
Spans stay in memory until ``write`` stores them; ``derive`` turns the
spans of one command into per-layer self times, inclusive times and counts.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array

# span name -> layer group whose self times and counts it adds to
GROUPS = {
    "cli.run": "cli.run",
    "formats.parse_circuit": "formats.parse",
    "formats.parse_relation": "formats.parse",
    "formats.parse_system": "formats.parse",
    "formats.parse_synth_input": "formats.parse",
    "formats.parse_derivation": "formats.parse",
    "formats.format_circuit": "formats.format",
    "formats.format_relation": "formats.format",
    "formats.format_system": "formats.format",
    "circuit.Circuit.__init__": "circuit.validate",
    "circuit.Circuit.semantics": "circuit.semantics",
    "circuit.fanout": "circuit.construct",
    "circuit.fanin": "circuit.construct",
    "circuit.plus_map": "circuit.construct",
    "circuit.clause_circuit": "circuit.construct",
    "circuit.literal": "circuit.construct",
    "circuit.hat": "circuit.construct",
    "relation.AffineRelation.__init__": "relation.canonical",
    "relation.AffineRelation.is_partial_iso": "relation.partial_iso",
    "relation.AffineRelation.partial_iso_violation": "relation.partial_iso",
    "relation.AffineRelation.compose": "relation.ops",
    "relation.AffineRelation.tensor": "relation.ops",
    "relation.AffineRelation.dagger": "relation.ops",
    "relation.AffineRelation.domain_masks": "relation.ops",
    "relation.AffineRelation.restriction": "relation.ops",
    "relation.AffineRelation.meet": "relation.ops",
    "relation.AffineRelation.apply": "relation.ops",
    "gf2.rref_masks": "gf2.rref",
    "gf2.project_masks": "gf2.project",
    "normalize.idempotent_to_clausal": "normalize.extract",
    "normalize.gaussian_eliminate_steps": "normalize.eliminate",
    "normalize.clausal_to_circuit": "normalize.emit",
    "synth.synth": "synth.synth",
    "synth.synth_total_graph": "synth.graph_stage",
    "rewrite.apply_at": "rewrite.apply_at",
    "rewrite.find_rule": "rewrite.find_rule",
    "rewrite.verify_all": "rewrite.verify",
    "lawsuites.run_all": "lawsuites.run_all",
    "fuzzing.fuzz": "fuzzing.fuzz",
}


def _materialize(pos: int, name: str):
    """A ``prepare`` hook: turn the iterable of rows passed as positional
    argument ``pos`` or keyword ``name`` into a tuple, so its length can be
    read; value_a is that length."""

    def prepare(args, kwargs):
        if len(args) > pos:
            args = args[:pos] + (tuple(args[pos]),) + args[pos + 1:]
            return args, kwargs, len(args[pos])
        kwargs = dict(kwargs, **{name: tuple(kwargs[name])})
        return args, kwargs, len(kwargs[name])

    return prepare


def _posts(c) -> int:
    return sum(1 for g in c.gates if g.kind == "post1")


# span name -> (prepare, measure).  ``prepare(args, kwargs)`` runs inside the
# span and returns (args, kwargs, value_a); ``measure(args, result)`` runs
# after the span ends and returns (value_a, value_b), value_a None to keep
# the one ``prepare`` gave.
HOOKS = {
    "formats.parse_circuit": (None, lambda a, r: (len(r[1].gates), 0)),
    "formats.format_circuit": (None, lambda a, r: (r.count("\n"), len(a[0].gates))),
    "formats.format_relation": (None, lambda a, r: (r.count("\n"), 0)),
    "formats.format_system": (None, lambda a, r: (r.count("\n"), 0)),
    "circuit.Circuit.__init__": (None, lambda a, r: (len(a[0].gates), 0)),
    "circuit.Circuit.semantics": (None, lambda a, r: (_posts(a[0]), 0)),
    "circuit.fanout": (None, lambda a, r: (len(r.gates), 0)),
    "circuit.fanin": (None, lambda a, r: (len(r.gates), 0)),
    "circuit.plus_map": (None, lambda a, r: (len(r.gates), 0)),
    "circuit.clause_circuit": (None, lambda a, r: (len(r.gates), 0)),
    "circuit.literal": (None, lambda a, r: (len(r.gates), 0)),
    "circuit.hat": (None, lambda a, r: (len(r.gates), 0)),
    "relation.AffineRelation.__init__": (
        _materialize(3, "constraint_masks"), lambda a, r: (None, len(a[0].constraint_masks))
    ),
    "gf2.rref_masks": (_materialize(0, "masks"), None),
    "normalize.gaussian_eliminate_steps": (None, lambda a, r: (len(r[1]), 0)),
    "normalize.clausal_to_circuit": (None, lambda a, r: (len(a[0].clauses), len(r.gates))),
    "synth.synth": (None, lambda a, r: (len(r.gates), 0)),
    "fuzzing.fuzz": (None, lambda a, r: (r[0], 0)),
}


class Tracer:
    """Records spans in memory: parallel arrays indexed by span."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value_a = array("d")
        self.value_b = array("d")
        self._stack = [-1]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, prepare=None, measure=None):
        nid = self._id(name)
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.name)
            self.name.append(nid)
            self.parent.append(stack[-1])
            self.end.append(0.0)
            self.value_a.append(0.0)
            self.value_b.append(0.0)
            stack.append(i)
            self.start.append(clock())
            try:
                if prepare is not None:
                    args, kwargs, self.value_a[i] = prepare(args, kwargs)
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                stack.pop()
            if measure is not None:
                va, self.value_b[i] = measure(args, result)
                if va is not None:
                    self.value_a[i] = va
            return result

        return traced

    def write(self, path: str, header: dict) -> None:
        """One JSON header line, then the span arrays as raw machine values."""
        arrays = (self.name, self.parent, self.start, self.end, self.value_a, self.value_b)
        meta = dict(header, names=self.names, count=len(self.start),
                    typecodes=[a.typecode for a in arrays])
        with open(path, "wb") as fh:
            fh.write(json.dumps(meta).encode() + b"\n")
            for a in arrays:
                a.tofile(fh)


def read_spans(path: str) -> tuple[dict, dict]:
    """(header, spans) as written by ``Tracer.write``; spans maps each field
    name to a list."""
    with open(path, "rb") as fh:
        meta = json.loads(fh.readline())
        n = meta["count"]
        fields = {}
        for key, code in zip(("name", "parent", "start", "end", "value_a", "value_b"), meta["typecodes"]):
            a = array(code)
            a.fromfile(fh, n)
            fields[key] = a.tolist()
    fields["name"] = [meta["names"][i] for i in fields["name"]]
    return meta, fields


def _targets():
    """(owner object, attribute, span name) for every traced callable."""
    mods = {m: importlib.import_module(f"cnotcalc.{m}") for m in
            ("cli", "formats", "circuit", "relation", "gf2", "normalize", "synth",
             "rewrite", "lawsuites", "fuzzing")}
    out = []
    for span in GROUPS:
        mod, *path = span.split(".")
        owner = mods[mod]
        for part in path[:-1]:
            owner = getattr(owner, part)
        out.append((owner, path[-1], span))
    return out


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every traced callable; returns what ``uninstall`` needs."""
    saved = []
    wrapped = {}
    for owner, attr, span in _targets():
        original = owner.__dict__[attr]
        prepare, measure = HOOKS.get(span, (None, None))
        wrapped[id(original)] = (original, tracer.wrap(span, original, prepare, measure))
        if isinstance(owner, type):
            saved.append((owner, attr, original))
            setattr(owner, attr, wrapped[id(original)][1])
    # Rebind every module-level name that holds a wrapped function, including
    # the names other modules imported with ``from .x import f``.
    for modname, module in list(sys.modules.items()):
        if modname != "cnotcalc" and not modname.startswith("cnotcalc."):
            continue
        for attr, value in list(vars(module).items()):
            pair = wrapped.get(id(value))
            if pair is not None and pair[0] is value:
                saved.append((module, attr, value))
                setattr(module, attr, pair[1])
    return saved


def uninstall(saved) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)


# -- deriving per-layer numbers -----------------------------------------------------


def self_times(spans: dict) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest, so the children of a span are disjoint and
    lie inside it; their summed durations are the part of the span's
    interval that they cover.
    """
    dur = [e - s for s, e in zip(spans["start"], spans["end"])]
    own = list(dur)
    for i, p in enumerate(spans["parent"]):
        if p >= 0:
            own[p] -= dur[i]
    return own


def _under(spans: dict, groups: set) -> list[bool]:
    """For each span: whether some ancestor belongs to ``groups``.  Parents
    are recorded before their children, so one pass in index order works."""
    out = []
    for p in spans["parent"]:
        out.append(p >= 0 and (out[p] or GROUPS[spans["name"][p]] in groups))
    return out


def derive(spans: dict) -> dict[str, float]:
    """Per-layer totals for the spans of one command.

    ``<group>.self_s`` is summed self time, ``<group>.calls`` the number of
    spans; ``<group>.incl_s`` sums the durations of spans with no ancestor
    in the same group; value sums are ``<group>.a`` and ``<group>.b``, with
    maxima ``<group>.a_max``.
    """
    own = self_times(spans)
    names = spans["name"]
    out: dict[str, float] = {}

    def add(key, v):
        out[key] = out.get(key, 0.0) + v

    by_group: dict[str, list[int]] = {}
    for i, name in enumerate(names):
        by_group.setdefault(GROUPS[name], []).append(i)
    for group, idx in by_group.items():
        under_same = _under(spans, {group})
        add(f"{group}.calls", len(idx))
        for i in idx:
            add(f"{group}.self_s", own[i])
            add(f"{group}.a", spans["value_a"][i])
            add(f"{group}.b", spans["value_b"][i])
            out[f"{group}.a_max"] = max(out.get(f"{group}.a_max", 0.0), spans["value_a"][i])
            if not under_same[i]:
                add(f"{group}.incl_s", spans["end"][i] - spans["start"][i])
                add(f"{group}.outer_a", spans["value_a"][i])
    # the domain stage of synth: clause emission called from under synth
    in_synth = _under(spans, {"synth.synth"})
    under_emit = _under(spans, {"normalize.emit"})
    for i, name in enumerate(names):
        if GROUPS[name] == "normalize.emit" and in_synth[i] and not under_emit[i]:
            add("synth.domain_stage.incl_s", spans["end"][i] - spans["start"][i])
    return out
