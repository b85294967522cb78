"""Circuit IR: validation, structure, evaluation, and the semantics functor."""

import random
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings, strategies as st

from cnotcalc.gf2 import BitVec, null_basis, rref_masks
from cnotcalc.relation import (
    ENUMERATION_LIMIT, AffineRelation, ArityError, all_bitvecs, all_columns,
)
from cnotcalc.circuit import (
    Circuit,
    CircuitError,
    Gate,
    circuit,
    cnot,
    init0,
    init1,
    omega,
    post0,
    post1,
    swap,
    swap_network,
)
from cnotcalc.gates import notg
from cnotcalc.fuzzing import random_circuit, trial_rng
from cnotcalc.semantics_reader import parse_semantics
from oracles import old_semantics


def seeded(count, salt):
    return [trial_rng(salt, i) for i in range(count)]


class TestValidation:
    def test_simple_cnot(self):
        assert circuit(2, cnot(0, 1)).n_out == 2

    def test_target_out_of_range(self):
        with pytest.raises(CircuitError, match=r"^gate 0 cnot\(0, 1\): wire out of range") as info:
            circuit(1, cnot(0, 1))
        assert info.value.index == 0

    def test_ancilla_pair_on_no_wires(self):
        assert circuit(0, init1(0), post1(0)).n_out == 0

    def test_control_equals_target(self):
        with pytest.raises(CircuitError, match="control equals target"):
            circuit(2, cnot(1, 1))

    def test_post_on_empty_register(self):
        with pytest.raises(CircuitError, match="wire out of range at width 0"):
            circuit(0, post1(0))

    def test_width_trace_through_macros(self):
        assert circuit(1, init0(0), notg(1), init1(2)).n_out == 3


class TestStructure:
    def test_compose_identity(self):
        c = circuit(2, cnot(0, 1), swap(0, 1))
        assert Circuit(2).compose(c) == c
        assert c.compose(Circuit(2)) == c

    def test_compose_arity_checked(self):
        with pytest.raises(ArityError):
            circuit(1, init1(0)).compose(circuit(1))

    def test_tensor_reindexes_upper_block(self):
        ket1 = circuit(0, init1(0))
        c = Circuit(1).tensor(ket1)
        assert c.n_in == 1 and c.n_out == 2
        assert c.eval_state([0]) == BitVec([0, 1])
        assert c.eval_state([1]) == BitVec([1, 1])

    def test_tensor_with_width_changes(self):
        bra1 = circuit(1, post1(0))
        c = bra1.tensor(bra1)
        assert c.gates == (post1(0), post1(0))
        assert c.eval_state([1, 1]) == BitVec([])
        assert c.eval_state([0, 1]) is None


class TestDagger:
    def test_cnot_self_dual(self):
        c = circuit(2, cnot(0, 1))
        assert c.dagger() == c

    def test_ket_to_bra(self):
        assert circuit(0, init1(0)).dagger() == circuit(1, post1(0))

    def test_involutive_gate_for_gate(self):
        for rng in seeded(30, salt=41):
            c = random_circuit(rng, rng.randrange(5), 20)
            assert c.dagger().dagger() == c

    def test_semantics_commutes_with_dagger(self):
        for rng in seeded(30, salt=42):
            c = random_circuit(rng, rng.randrange(5), 20)
            assert c.dagger().semantics() == c.semantics().dagger()


class TestEvalState:
    def test_cnot(self):
        assert circuit(2, cnot(0, 1)).eval_state([1, 0]) == BitVec([1, 1])

    def test_omega_undefined(self):
        assert omega().eval_state([]) is None

    def test_omega_intermediate_states(self):
        # first post-selection passes, the second sees 0 and fails
        c = circuit(0, init1(0), init1(1), cnot(0, 1), post1(0))
        assert c.eval_state([]) == BitVec([0])

    def test_length_checked(self):
        with pytest.raises(ArityError):
            circuit(1, notg(0)).eval_state([0, 1])


class TestSemantics:
    def test_double_cnot_is_identity(self):
        c = circuit(2, cnot(0, 1), cnot(0, 1))
        assert c.semantics() == AffineRelation.restriction_on(2, ())

    def test_omega_is_empty(self):
        assert omega().semantics() == AffineRelation.empty(0, 0)

    def test_functorial_on_compose(self):
        for rng in seeded(30, salt=43):
            c = random_circuit(rng, rng.randrange(5), 15)
            d = random_circuit(rng, c.n_out, 15)
            assert c.compose(d).semantics() == c.semantics().compose(d.semantics())

    def test_functorial_on_tensor(self):
        for rng in seeded(30, salt=44):
            c = random_circuit(rng, rng.randrange(4), 12)
            d = random_circuit(rng, rng.randrange(4), 12)
            assert c.tensor(d).semantics() == c.semantics().tensor(d.semantics())

    def test_oracle_agreement(self):
        # gatewise evaluation equals relational application, exhaustively
        # over every input, for arities up to 8
        for rng in seeded(60, salt=45):
            c = random_circuit(rng, rng.randrange(9), 25)
            rel = c.semantics()
            for x in all_bitvecs(c.n_in):
                assert c.eval_state(x) == rel.apply(x)

    def test_invalid_circuit_rejected(self):
        with pytest.raises(CircuitError):
            circuit(1, cnot(0, 1)).semantics()


def gate_relation(gate, width):
    """The relation of a single gate at the given register width."""
    k, a = gate.kind, gate.args
    n = width
    if k == "cnot":
        c, t = a
        rows = [(1 << j) | (1 << (n + j)) for j in range(n) if j != t]
        rows.append((1 << c) | (1 << t) | (1 << (n + t)))
        return AffineRelation(n, n, rows)
    if k == "swap":
        i, j = a
        perm = list(range(n))
        perm[i], perm[j] = perm[j], perm[i]
        return AffineRelation.from_map(n, [1 << w for w in perm])
    if k == "init1":
        p = a[0]
        m = n + 1
        rows = [(1 << (n + p)) | (1 << (n + m))]  # fresh output holds 1
        src = [j for j in range(m) if j != p]
        rows += [(1 << j) | (1 << (n + src[j])) for j in range(n)]
        return AffineRelation(n, m, rows)
    p = a[0]
    m = n - 1
    rows = [(1 << p) | (1 << (n + m))]  # consumed input must be 1
    src = [j for j in range(n) if j != p]
    rows += [(1 << src[i]) | (1 << (n + i)) for i in range(m)]
    return AffineRelation(n, m, rows)


def fold_semantics(c):
    """Reference semantics: compose the per-gate relations in order."""
    rel = AffineRelation.restriction_on(c.n_in, ())
    width = c.n_in
    for g in c.gates:
        rel = rel.compose(gate_relation(g, width))
        width = rel.n_out
    return rel


class TestSemanticsAgainstGateFold:
    def test_matches_per_gate_composition(self):
        for rng in seeded(50, salt=52):
            c = random_circuit(rng, rng.randrange(5), 20)
            assert c.semantics() == fold_semantics(c)

    def test_matches_on_named_constructions(self):
        from cnotcalc.circuit import clause_circuit, fanout, omega_nm, plus_map

        for c in [fanout(2), omega_nm(2, 1), plus_map(1), clause_circuit([0, 1], 1, 2)]:
            assert c.semantics() == fold_semantics(c)


def steered_circuit(rng, n, ngates, post_rate, empty=False):
    """(circuit, witness): a circuit on n input wires whose post-selections
    keep a random witness input in its domain, since each one selects the
    value the witness gives that wire (``post1`` or the ``post0``
    expansion).  With ``empty``, a wire is then copied onto an ancilla and
    the two are post-selected on opposite values, so no input is left in
    the domain."""
    witness = [rng.randrange(2) for _ in range(n)]
    vals = list(witness)
    gates = []
    while len(gates) < ngates:
        width = len(vals)
        r = rng.random()
        if r < post_rate and width > n // 2:
            p = rng.randrange(width)
            gates.extend(post0(p) if vals.pop(p) == 0 else (post1(p),))
        elif r < 2 * post_rate and width < n + 8:
            p = rng.randrange(width + 1)
            vals.insert(p, rng.randrange(2))
            gates.extend(init0(p) if vals[p] == 0 else (init1(p),))
        else:
            a, b = rng.sample(range(width), 2)
            if rng.random() < 0.2:
                gates.append(swap(a, b))
                vals[a], vals[b] = vals[b], vals[a]
            else:
                gates.append(cnot(a, b))
                vals[b] ^= vals[a]
    if empty:
        p = rng.randrange(len(vals))
        v = vals[p]
        gates += [*init0(0), cnot(p + 1, 0)]  # wire 0 now holds a copy of v
        gates += post0(0) if v == 0 else (post1(0),)
        gates += (post1(p),) if v == 0 else post0(p)
    return Circuit(n, gates), BitVec(witness)


class TestSemanticsPastEnumeration:
    """Symbolic execution against the gate fold, at widths above
    ENUMERATION_LIMIT where no relation can be checked point by point."""

    @pytest.mark.parametrize(
        "n, ngates, seed, empty",
        [
            (64, 240, 1, False),
            (64, 160, 2, True),
            (128, 80, 3, False),
            (256, 32, 4, False),
            (256, 32, 5, True),
        ],
    )
    def test_matches_per_gate_composition(self, n, ngates, seed, empty):
        c, witness = steered_circuit(random.Random(seed), n, ngates, 0.3, empty)
        assert c.n_in > ENUMERATION_LIMIT
        rel = c.semantics()
        assert rel == fold_semantics(c)
        if empty:
            assert rel.is_empty()
        else:
            assert rel.domain_masks() != ()  # partial, not total
            y = c.eval_state(witness)
            assert y is not None and rel.apply(witness) == y
            self.check_points(c, rel, witness, random.Random(seed))

    @staticmethod
    def check_points(c, rel, witness, rng):
        """``eval_state`` against ``apply`` past the enumeration limit: on 16
        points of the domain, the witness plus random sums of the null basis
        of its linear part, and, for each domain row, on the witness with
        that row's pivot flipped, which breaks that row alone."""
        n = c.n_in
        rows = [r & ((1 << n) - 1) for r in rel.domain_masks()]
        reduced, pivots = rref_masks(rows, n)
        assert reduced == rows  # domain rows are canonical
        basis = null_basis(reduced, pivots, n)
        assert basis  # a domain with more than one point
        for _ in range(16):
            v = witness.mask
            for b in basis:
                v ^= b * rng.randrange(2)
            x = BitVec.from_mask(n, v)
            y = c.eval_state(x)
            assert y is not None and rel.apply(x) == y
        for p in pivots:
            x = BitVec.from_mask(n, witness.mask ^ (1 << p))
            assert c.eval_state(x) is None and rel.apply(x) is None


def sliced(points, n):
    """The columns of the n-bit inputs ``points``, one lane each in order."""
    return [sum(((x >> j) & 1) << k for k, x in enumerate(points)) for j in range(n)]


def lane(result, k, m):
    """Lane k of a bit-sliced ``(outputs, defined)``: its m output bits,
    or None where it is undefined."""
    outs, defined = result
    if not (defined >> k) & 1:
        return None
    assert len(outs) == m
    return BitVec.from_mask(m, sum(((o >> k) & 1) << i for i, o in enumerate(outs)))


class TestBitSlicedEvaluator:
    """``eval_all`` and ``apply_all`` run many inputs at once; each lane
    must be what ``eval_state`` and ``apply`` give on its input."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 1 << 32), st.integers(0, 10), st.integers(0, 40), st.booleans())
    def test_every_input_up_to_ten_wires(self, seed, n, depth, allow_post):
        c = random_circuit(random.Random(seed), n, depth, allow_post=allow_post)
        rel = c.semantics()
        columns, lanes = all_columns(n), 1 << n
        got, want = c.eval_all(columns, lanes), rel.apply_all(columns, lanes)
        for k, x in enumerate(all_bitvecs(n)):
            assert lane(got, k, c.n_out) == c.eval_state(x)
            assert c.eval_state(x) == rel.apply(x) == lane(want, k, rel.n_out)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(ENUMERATION_LIMIT + 1, 64), st.integers(0, 1 << 32),
           st.sampled_from([0.0, 0.1, 0.3]), st.booleans())
    def test_sampled_lanes_past_the_cap(self, n, seed, post_rate, empty):
        """Witnesses of the domain first, each then with one bit flipped,
        then random points."""
        rng = random.Random(seed)
        c, witness = steered_circuit(rng, n, rng.randrange(120), post_rate, empty)
        rel = c.semantics()
        points = [witness.mask] + [witness.mask ^ 1 << rng.randrange(n) for _ in range(8)]
        points += [rng.getrandbits(n) for _ in range(16)]
        columns, lanes = sliced(points, n), len(points)
        got, want = c.eval_all(columns, lanes), rel.apply_all(columns, lanes)
        assert (got[1] & 1) == (want[1] & 1) == (not empty)  # the witness lane
        for k, x in enumerate(points):
            x = BitVec.from_mask(n, x)
            assert lane(got, k, c.n_out) == c.eval_state(x)
            assert c.eval_state(x) == rel.apply(x) == lane(want, k, rel.n_out)


class TestStreamedSemanticsIsFunctorial:
    """A file holding the gates of ``c`` and then those of ``d``, run as it
    is read, denotes the composite of their relations, past the
    enumeration limit.  ``c`` is steered to keep a witness in its domain
    and ``d`` is a total map, or else made empty, so the composite is a
    partial map or empty as ``d`` is."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(ENUMERATION_LIMIT + 1, 100), st.integers(0, 1 << 32),
           st.sampled_from([0.0, 0.1, 0.3]), st.booleans())
    def test_file_of_two_circuits_is_their_composite(self, n, seed, post_rate, empty):
        rng = random.Random(seed)
        c, witness = steered_circuit(rng, n, rng.randrange(80), post_rate)
        d, _ = steered_circuit(rng, c.n_out, rng.randrange(80), 0.0, empty)
        lines = [f"circuit cd : {c.n_in} -> {d.n_out}", *(g.line for g in c.gates + d.gates), "end"]
        _, rel = parse_semantics("\n".join(lines) + "\n")
        assert rel == c.semantics().compose(d.semantics())
        assert rel.is_empty() == empty
        if not empty:
            assert rel.apply(witness) == d.eval_state(c.eval_state(witness))


@st.composite
def post_heavy_circuits(draw, n_in, extra=4):
    """Valid circuits on ``n_in`` inputs (a strategy) whose width stays
    below ``n_in + extra``; about half the one-wire gates are ``post0``."""
    n = draw(n_in)
    width, gates = n, []
    for _ in range(draw(st.integers(0, 40))):
        kinds = []
        if width >= 2:
            kinds += ["cnot", "swap"]
        if width < n + extra:
            kinds += ["init1", "init0"]
        if width >= 1:
            kinds += ["post1", "not"] + ["post0"] * 4
        kind = draw(st.sampled_from(kinds))
        if kind in ("cnot", "swap"):
            a, b = draw(st.lists(st.integers(0, width - 1), min_size=2, max_size=2, unique=True))
            gates.append(cnot(a, b) if kind == "cnot" else swap(a, b))
        elif kind in ("init1", "init0"):
            p = draw(st.integers(0, width))
            gates.extend((init1(p),) if kind == "init1" else init0(p))
            width += 1
        else:
            p = draw(st.integers(0, width - 1))
            gates.extend({"post1": (post1(p),), "post0": post0(p), "not": notg(p)}[kind])
            if kind != "not":
                width -= 1
    return Circuit(n, gates)


class TestSemanticsEarlyExit:
    """``semantics`` returns the empty relation at the first ``post1`` of a
    wire holding the constant 0; the full row list is the oracle."""

    def test_exit_on_constant_zero(self):
        # post0 of a wire holding 1: the gates after it do not matter
        c = circuit(2, init1(1), post0(1), cnot(0, 1), init1(0))
        rel = c.semantics()
        assert rel == AffineRelation.empty(2, 3) == old_semantics(c)

    def test_no_exit_on_constant_one(self):
        # init0 pops its 1 wire: a row 0 = 0, no exit
        c = circuit(1, init0(0), post1(1))
        assert c.semantics() == old_semantics(c) and not c.semantics().is_empty()

    @given(post_heavy_circuits(st.just(0)))
    def test_state_preparations(self, c):
        assert c.semantics() == old_semantics(c)

    @given(post_heavy_circuits(st.integers(0, 6)))
    def test_small_widths(self, c):
        assert c.semantics() == old_semantics(c)

    @given(post_heavy_circuits(st.integers(ENUMERATION_LIMIT + 1, 64), extra=8))
    def test_past_enumeration(self, c):
        assert c.semantics() == old_semantics(c)

    def test_law_suite_draws(self):
        empty = 0
        for rng in seeded(300, salt=61):
            c = random_circuit(rng, rng.randrange(6), 30)
            rel = c.semantics()
            assert rel == old_semantics(c)
            empty += rel.is_empty()
        assert 0 < empty < 300


class TestEqualCirc:
    def test_cnt1_swap(self):
        lhs = circuit(2, cnot(0, 1), cnot(1, 0), cnot(0, 1))
        assert lhs.semantics() == circuit(2, swap(0, 1)).semantics()

    def test_cnt9_cut(self):
        lhs = circuit(1, init1(0), init1(1), cnot(0, 1), post1(0), post1(0))
        rhs = circuit(
            1, init1(0), init1(1), post1(2), cnot(0, 1), init1(2), post1(0), post1(0)
        )
        assert lhs.semantics() == rhs.semantics()

    def test_distinct_total_maps(self):
        assert Circuit(1).semantics() != circuit(1, notg(0)).semantics()


class TestInverseLawsAtCircuitLevel:
    def test_regularity(self):
        for rng in seeded(25, salt=46):
            c = random_circuit(rng, rng.randrange(5), 18)
            ccc = c.compose(c.dagger()).compose(c)
            assert ccc.semantics() == c.semantics()

    def test_restrictions_commute(self):
        for rng in seeded(25, salt=47):
            n = rng.randrange(5)
            c = random_circuit(rng, n, 18)
            d = random_circuit(rng, n, 18)
            cbar = c.compose(c.dagger())
            dbar = d.compose(d.dagger())
            assert cbar.compose(dbar).semantics() == dbar.compose(cbar).semantics()


class TestBasisClosureAndDegeneracy:
    def test_post_free_circuits_are_total(self):
        # circuits over cnot/swap/init gates send basis states to basis states
        for rng in seeded(40, salt=48):
            n = rng.randrange(5)
            c = random_circuit(rng, n, 20, allow_post=False)
            for x in all_bitvecs(n):
                assert c.eval_state(x) is not None
            assert c.semantics().is_total()

    def test_preparations_total_or_degenerate(self):
        for rng in seeded(60, salt=49):
            rel = random_circuit(rng, 0, 25).semantics()
            assert rel.is_total() or rel.is_empty()

    def test_absorption(self):
        for rng in seeded(20, salt=50):
            c = random_circuit(rng, rng.randrange(4), 15)
            if not c.semantics().is_empty():
                continue
            d = random_circuit(rng, rng.randrange(4), 10)
            assert c.tensor(d).semantics().is_empty()
            e = random_circuit(rng, c.n_out, 10)
            assert c.compose(e).semantics().is_empty()


# -- gate validation against the per-gate rule it replaced ---------------------


def _old_gate_width(gate, width):
    """The per-gate rule ``Circuit`` applied to every gate before gates
    carried their least legal width; kept here as the oracle."""
    k, a = gate.kind, gate.args
    if k == "cnot":
        c, t = a
        if c == t:
            return "control equals target"
        if not (0 <= c < width and 0 <= t < width):
            return f"wire out of range at width {width}"
    elif k == "swap":
        x, y = a
        if x == y:
            return "swap of a wire with itself"
        if not (0 <= x < width and 0 <= y < width):
            return f"wire out of range at width {width}"
    elif k == "init1":
        if not 0 <= a[0] <= width:
            return f"insertion index out of range at width {width}"
    elif k == "post1":
        if not 0 <= a[0] < width:
            return f"wire out of range at width {width}"
    else:
        return f"unknown gate kind {k!r}"
    return None


_OLD_DELTA = {"cnot": 0, "swap": 0, "init1": 1, "post1": -1}


def _old_validate(n_in, gates):
    """(ok, n_out, bad_index, message), or the exception type raised."""
    width = n_in
    try:
        for i, g in enumerate(gates):
            reason = _old_gate_width(g, width)
            if reason is not None:
                return (False, None, i, f"gate {i} {g}: {reason}")
            width += _OLD_DELTA[g.kind]
    except Exception as e:
        return type(e)
    return (True, width, None, None)


def _validate(n_in, gates):
    """What ``Circuit(n_in, gates)`` does, in the terms of ``_old_validate``."""
    try:
        c = Circuit(n_in, gates)
    except CircuitError as e:
        return (False, None, e.index, str(e))
    except Exception as e:
        return type(e)
    return (True, c.n_out, None, None)


_wire = st.integers(-2, 7)
_ARITY = {"cnot": 2, "swap": 2, "init1": 1, "post1": 1}
_BUILDERS = {"cnot": cnot, "swap": swap, "init1": init1, "post1": post1}
# (builder, kind, args): the four builders over wires -2..7
_builder_specs = st.one_of(
    *[st.tuples(st.just(_BUILDERS[k]), st.just(k), st.tuples(*[_wire] * n)) for k, n in _ARITY.items()]
)
# Gate(kind, args), mostly well formed, with odd kinds, counts and types too
_args = st.lists(
    st.one_of(_wire, _wire, _wire, st.booleans(), st.sampled_from([0.5, 1.0, 2.5])),
    max_size=3,
)
_constructor_specs = st.tuples(
    st.just(Gate),
    st.sampled_from(["cnot", "swap", "init1", "post1", "toffoli", "CNOT", "not"]),
    st.one_of(_args.map(tuple), _args),
)
_specs = st.one_of(_builder_specs, _constructor_specs)


def _build(spec):
    """The gate a spec builds, or None when building raises CircuitError."""
    build, kind, args = spec
    try:
        return build(*args) if build is not Gate else Gate(kind, args)
    except CircuitError:
        return None


def _old_legal_widths(kind, args):
    """The widths 0..11 at which the old rule accepts (kind, args), for a
    primitive kind with a tuple of as many ints as it takes; else none."""
    if not (
        kind in _ARITY
        and type(args) is tuple
        and len(args) == _ARITY[kind]
        and all(type(a) is int for a in args)
    ):
        return []
    g = SimpleNamespace(kind=kind, args=args)
    return [w for w in range(12) if _old_gate_width(g, w) is None]


@given(st.integers(0, 6), st.lists(_specs, max_size=12))
def test_validation_matches_the_per_gate_rule(n_in, specs):
    gates = [g for g in map(_build, specs) if g is not None]
    assert _validate(n_in, gates) == _old_validate(n_in, gates)


@given(st.integers(0, 6), st.lists(_builder_specs, max_size=12))
def test_validation_matches_the_per_gate_rule_on_builder_gates(n_in, specs):
    # mostly valid lists, so the width bookkeeping is exercised far along
    gates = [g for g in map(_build, specs) if g is not None]
    assert _validate(n_in, gates) == _old_validate(n_in, gates)


@given(_specs)
def test_need_is_the_least_legal_width(spec):
    # a gate builds exactly when the old rule admits it at some width
    _, kind, args = spec
    legal = _old_legal_widths(kind, args)
    g = _build(spec)
    assert (g is not None) == bool(legal)
    if g is not None:
        assert (g.kind, g.args, g.delta) == (kind, args, _OLD_DELTA[kind])
        assert legal == list(range(g.need, 12))


def test_gates_left_to_the_per_gate_rule():
    # once legal by the old rule although malformed, now refused when built
    odd = [("init1", (0, 5)), ("cnot", (True, 0)), ("post1", (1.0,)), ("init1", [1])]
    bad = [("init1", ()), ("cnot", (0, 1, 2)), ("cnot", ("a", 0)), ("h", (0,))]
    for kind, args in odd + bad:
        with pytest.raises(CircuitError) as info:
            Gate(kind, args)
        assert str(info.value) == f"no gate {kind!r} with arguments {args!r}"


def test_builders_refuse_what_no_width_admits():
    cases = [
        (cnot, (3, 3), "cnot(3, 3): control equals target"),
        (cnot, (-1, -1), "cnot(-1, -1): control equals target"),
        (cnot, (-1, 0), "cnot(-1, 0): negative wire index"),
        (cnot, (2, -3), "cnot(2, -3): negative wire index"),
        (swap, (2, 2), "swap(2, 2): swap of a wire with itself"),
        (swap, (0, -1), "swap(0, -1): negative wire index"),
        (init1, (-1,), "init1(-1): negative wire index"),
        (post1, (-2,), "post1(-2): negative wire index"),
        (notg, (-1,), "init1(-1): negative wire index"),
    ]
    for build, args, message in cases:
        with pytest.raises(CircuitError) as info:
            build(*args)
        assert str(info.value) == message and info.value.index is None


def test_builders_and_circuit_refuse_non_ints():
    # a bool or a float would print as a line that parse_circuit refuses
    cases = [
        (cnot, (True, 0), "cnot(True, 0): wire indices must be ints"),
        (cnot, (1.0, 0), "cnot(1.0, 0): wire indices must be ints"),
        (cnot, (0, False), "cnot(0, False): wire indices must be ints"),
        (swap, (0, "1"), "swap(0, '1'): wire indices must be ints"),
        (swap, (2.0, 2.0), "swap(2.0, 2.0): wire indices must be ints"),
        (init1, (True,), "init1(True): wire indices must be ints"),
        (post1, (0.0,), "post1(0.0): wire indices must be ints"),
        (Circuit, (True, [init1(0)]), "input arity must be an int, got True"),
        (Circuit, (2.0, []), "input arity must be an int, got 2.0"),
    ]
    for build, args, message in cases:
        with pytest.raises(CircuitError) as info:
            build(*args)
        assert str(info.value) == message and info.value.index is None


def test_width_errors_keep_their_text():
    for n_in, gates, message in [
        (1, [cnot(0, 1)], "gate 0 cnot(0, 1): wire out of range at width 1"),
        (2, [swap(0, 1), swap(2, 0)], "gate 1 swap(2, 0): wire out of range at width 2"),
        (0, [init1(1)], "gate 0 init1(1): insertion index out of range at width 0"),
        (1, [post1(0), post1(0)], "gate 1 post1(0): wire out of range at width 0"),
    ]:
        with pytest.raises(CircuitError) as info:
            Circuit(n_in, gates)
        assert str(info.value) == message
        assert info.value.index == len(gates) - 1


@given(_specs)
def test_gate_line_is_the_old_format_line(spec):
    g = _build(spec)
    assume(g is not None)
    want = f"{g.kind} {' '.join(map(str, g.args))}"
    assert g.line == want
    assert g.line is g.line  # built once


def test_format_circuit_uses_the_gate_lines():
    from cnotcalc.formats import format_circuit

    c = circuit(2, cnot(0, 1), swap(1, 0), init0(2), notg(0), post1(1))
    old = [f"circuit main : 2 -> {c.n_out}"]
    old += [f"{g.kind} {' '.join(map(str, g.args))}" for g in c.gates]
    assert format_circuit(c) == "\n".join(old + ["end"]) + "\n"
    assert format_circuit(c) == format_circuit(c)


@given(st.data())
def test_swap_network_rearranges_the_layout_into_the_target(data):
    layout = data.draw(st.permutations(range(data.draw(st.integers(0, 9)))))
    target = data.draw(st.permutations(layout))
    gates = swap_network(layout, target)
    assert len(gates) < max(len(layout), 1)
    wires = list(layout)
    for g in gates:
        i, j = g.args
        wires[i], wires[j] = wires[j], wires[i]
    assert wires == target
