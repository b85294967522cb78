"""GF(2) linear algebra: worked examples plus brute-force cross-checks."""

import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from cnotcalc.gf2 import BitVec, GF2Matrix, null_basis, project_masks, rref_masks


def enumerate_row_space(m: GF2Matrix) -> set:
    """All GF(2) combinations of the rows, by direct enumeration."""
    out = set()
    for coeffs in product((0, 1), repeat=m.rows):
        acc = 0
        for c, row in zip(coeffs, m.row_masks):
            if c:
                acc ^= row
        out.add(acc)
    return out


def solution_set(a: GF2Matrix, b: BitVec) -> set:
    return {
        x
        for x in range(1 << a.cols)
        if all(
            bin(row & x).count("1") % 2 == b[i] for i, row in enumerate(a.row_masks)
        )
    }


matrices = st.integers(1, 4).flatmap(
    lambda rows: st.integers(1, 5).flatmap(
        lambda cols: st.lists(
            st.lists(st.integers(0, 1), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        ).map(GF2Matrix)
    )
)


class TestRref:
    def test_worked_elimination(self):
        m = GF2Matrix([[1, 0, 1], [1, 1, 0]])
        reduced, pivots = rref_masks(m.row_masks, m.cols)
        assert GF2Matrix.from_masks(reduced, 3).to_lists() == [[1, 0, 1], [0, 1, 1]]
        assert pivots == [0, 1]

    def test_identity_already_reduced(self):
        m = GF2Matrix.from_masks([0b01, 0b10], 2)
        assert rref_masks(m.row_masks, m.cols) == (list(m.row_masks), [0, 1])

    def test_dependent_rows(self):
        m = GF2Matrix([[1, 1], [1, 1]])
        reduced, pivots = rref_masks(m.row_masks, m.cols)
        assert reduced == [0b11] and pivots == [0]
        # cross-check: the row space has exactly the 2 elements {00, 11}
        assert enumerate_row_space(m) == {0b00, 0b11}

    @given(matrices)
    def test_idempotent(self, m):
        reduced, pivots = rref_masks(m.row_masks, m.cols)
        assert rref_masks(reduced, m.cols) == (reduced, pivots)

    @given(matrices)
    def test_row_space_preserved(self, m):
        reduced, _ = rref_masks(m.row_masks, m.cols)
        r = GF2Matrix.from_masks(reduced, m.cols)
        assert enumerate_row_space(m) == enumerate_row_space(r)

    @given(matrices)
    def test_pivot_columns_are_unit(self, m):
        reduced, pivots = rref_masks(m.row_masks, m.cols)
        assert len(reduced) == len(pivots)
        assert pivots == sorted(pivots)
        for k, col in enumerate(pivots):
            column = [(row >> col) & 1 for row in reduced]
            assert column == [1 if i == k else 0 for i in range(len(reduced))]


def rref_masks_column_scan(masks, ncols):
    """Reference RREF: for each column in turn, find a row with that bit,
    swap it up and clear the bit from every other row."""
    work = list(masks)
    pivots = []
    r = 0
    for col in range(ncols):
        bit = 1 << col
        src = next((i for i in range(r, len(work)) if work[i] & bit), None)
        if src is None:
            continue
        work[r], work[src] = work[src], work[r]
        for i in range(len(work)):
            if i != r and work[i] & bit:
                work[i] ^= work[r]
        pivots.append(col)
        r += 1
    return work[:r], pivots


# Wide masks, some with few distinct rows so dependent rows are common.
wide_systems = st.integers(1, 80).flatmap(
    lambda ncols: st.tuples(
        st.just(ncols),
        st.lists(
            st.one_of(
                st.integers(0, (1 << ncols) - 1),
                st.integers(0, 7).map(lambda k: ((1 << ncols) - 1) // (k + 1)),
            ),
            max_size=120,
        ),
    )
)


class TestRrefMasksAgainstColumnScan:
    @given(wide_systems)
    def test_identical_rows_and_pivots(self, system):
        ncols, masks = system
        assert rref_masks(masks, ncols) == rref_masks_column_scan(masks, ncols)

    @given(wide_systems, st.randoms(use_true_random=False))
    def test_invariant_under_shuffle_and_dependent_rows(self, system, rng):
        ncols, masks = system
        want = rref_masks_column_scan(masks, ncols)
        shuffled = list(masks)
        rng.shuffle(shuffled)
        assert rref_masks(shuffled, ncols) == want
        sums = []
        for _ in range(rng.randrange(20)):
            acc = 0
            for m in masks:
                if rng.randrange(2):
                    acc ^= m
            sums.append(acc)
        assert rref_masks(masks + sums, ncols) == want
        assert rref_masks(sums + masks, ncols) == want


@st.composite
def semantics_shaped(draw):
    """(ncols, rows) shaped like the system ``Circuit.semantics`` builds.

    Some columns are "x" columns and the others "fresh" ones.  There are
    x-only rows, sparse or dense (the post-selections); one row per fresh
    column that carries that column and an x-part (the outputs, each with
    its own y bit); and later rows that hit fresh columns.  The fresh
    columns sit anywhere, and the rows come in one of several orders.
    """
    rng = random.Random(draw(st.integers(0, 2**32)))  # one draw: rows take thousands
    ncols = draw(st.integers(1, 600))
    fresh = rng.sample(range(ncols), draw(st.integers(0, ncols)))
    xcols = sorted(set(range(ncols)) - set(fresh))

    def pick(cols, dense):
        if dense:
            return sum(1 << c for c in cols if rng.random() < 0.5)
        return sum(1 << c for c in rng.sample(cols, min(len(cols), rng.randrange(1, 4))))

    ndomain = draw(st.integers(0, min(len(xcols), 300))) if xcols else 0
    nlater = draw(st.integers(0, 30)) if fresh else 0
    domain = [pick(xcols, rng.random() < 0.3) for _ in range(ndomain)]
    outputs = [(1 << f) | (pick(xcols, rng.random() < 0.3) if xcols else 0) for f in fresh]
    later = [
        pick(fresh, rng.random() < 0.2) | (pick(xcols, False) if xcols and rng.random() < 0.5 else 0)
        for _ in range(nlater)
    ]
    order = draw(st.sampled_from(["domain first", "outputs first", "shuffled"]))
    if order == "domain first":
        rows = domain + outputs + later
    elif order == "outputs first":
        rows = outputs + domain + later
    else:
        rows = domain + outputs + later
        rng.shuffle(rows)
    return ncols, rows


class TestRrefMasksOnSemanticsShapedRows:
    """The skip of the clearing pass for a pivot no earlier row holds must
    leave the unique RREF: checked where the skip is taken most."""

    @settings(deadline=None)
    @given(semantics_shaped())
    def test_identical_rows_and_pivots(self, system):
        ncols, rows = system
        assert rref_masks(rows, ncols) == rref_masks_column_scan(rows, ncols)


def solve(a: GF2Matrix, b: BitVec):
    """(particular solution, nullspace basis) of a*x = b as masks, from the
    RREF of the augmented rows and ``null_basis``; None when inconsistent."""
    n = a.cols
    aug = [mask | (((b.mask >> i) & 1) << n) for i, mask in enumerate(a.row_masks)]
    reduced, pivots = rref_masks(aug, n + 1)
    if n in pivots:
        return None
    # free variables zero, pivot variables from the rhs
    x = 0
    for mask, col in zip(reduced, pivots):
        x |= ((mask >> n) & 1) << col
    return x, null_basis(reduced, pivots, n)


class TestSolveAffine:
    def test_parity_kernel(self):
        got = solve(GF2Matrix([[1, 1]]), BitVec([0]))
        assert got == (0b00, [0b11])

    def test_identity_system(self):
        got = solve(GF2Matrix.from_masks([0b01, 0b10], 2), BitVec([1, 0]))
        assert got == (0b01, [])

    def test_inconsistent(self):
        # no x has x0+x1 equal to both 1 and 0
        assert solve(GF2Matrix([[1, 1], [1, 1]]), BitVec([1, 0])) is None

    @given(matrices, st.data())
    def test_against_enumeration(self, a, data):
        b = BitVec(data.draw(st.lists(st.integers(0, 1), min_size=a.rows, max_size=a.rows)))
        expected = solution_set(a, b)
        got = solve(a, b)
        if got is None:
            assert expected == set()
            return
        particular, basis = got
        assert a.mul_vec(BitVec.from_mask(a.cols, particular)) == b
        for v in basis:
            assert a.mul_vec(BitVec.from_mask(a.cols, v)) == BitVec.from_mask(a.rows, 0)
        span = set()
        for coeffs in product((0, 1), repeat=len(basis)):
            x = particular
            for c, v in zip(coeffs, basis):
                if c:
                    x ^= v
            span.add(x)
        assert span == expected


def column_scan_project(masks, nvars, cols):
    """The former ``project_masks``, kept as an oracle: eliminate each given
    column in turn by a pass over the rows (bit ``nvars`` is the rhs).  Rows
    keep the original column numbering; eliminated columns come back clear."""
    work = list(masks)
    for col in sorted(set(cols)):
        bit = 1 << col
        src = next((i for i in range(len(work)) if work[i] & bit), None)
        if src is None:
            continue
        pivot = work[src]
        work = [row ^ pivot if row & bit else row for i, row in enumerate(work) if i != src]
    return work


def eliminated_lowest(masks, nvars, cols):
    """The rows with columns ``cols`` (sorted) moved to the lowest bits, the
    other variables above them in order, then the rhs."""
    order = sorted(cols) + [j for j in range(nvars + 1) if j not in set(cols)]
    return [sum(((r >> j) & 1) << i for i, j in enumerate(order)) for r in masks]


class TestProjectOut:
    def project_by_enumeration(self, m: GF2Matrix, cols) -> set:
        nvars = m.cols - 1
        keep = [j for j in range(nvars) if j not in set(cols)]
        solutions = solution_set(
            GF2Matrix.from_masks(
                [r & ((1 << nvars) - 1) for r in m.row_masks], nvars
            ),
            BitVec([(r >> nvars) & 1 for r in m.row_masks]),
        )
        shadows = set()
        for x in solutions:
            shadows.add(sum(((x >> j) & 1) << i for i, j in enumerate(keep)))
        return shadows

    def test_chain_constraint(self):
        # {x+y=0, y+z=1} without y leaves {x+z=1}; columns y, x, z, rhs
        m = GF2Matrix([[1, 1, 0, 0], [1, 0, 1, 1]])
        assert project_masks(m.row_masks, 1, 4) == [0b111]

    def test_pinned_variable_vanishes(self):
        m = GF2Matrix([[1, 1]])  # x = 1
        assert project_masks(m.row_masks, 1, 2) == []

    def test_inconsistent_stays_inconsistent(self):
        m = GF2Matrix([[0, 0, 1]])  # 0 = 1 over two variables
        assert project_masks(m.row_masks, 1, 3) == [0b10]

    @given(
        st.integers(2, 6).flatmap(
            lambda nv: st.tuples(
                st.lists(
                    st.lists(st.integers(0, 1), min_size=nv + 1, max_size=nv + 1),
                    min_size=1,
                    max_size=4,
                ).map(GF2Matrix),
                st.sets(st.integers(0, nv - 1), min_size=1, max_size=nv - 1),
            )
        )
    )
    def test_against_enumeration(self, case):
        m, cols = case
        nvars = m.cols - 1
        keep = [j for j in range(nvars) if j not in cols]
        got = project_masks(eliminated_lowest(m.row_masks, nvars, cols), len(cols), m.cols)
        assert got == rref_masks(got, len(keep) + 1)[0]  # already in RREF
        # the remaining system, on the kept columns and the rhs
        have = solution_set(
            GF2Matrix.from_masks([r & ((1 << len(keep)) - 1) for r in got], len(keep)),
            BitVec([(r >> len(keep)) & 1 for r in got]),
        )
        assert have == self.project_by_enumeration(m, cols)

    @settings(deadline=None)
    @given(
        st.integers(0, 70).flatmap(
            lambda nv: st.tuples(
                st.just(nv),
                st.lists(st.integers(0, (1 << (nv + 1)) - 1), max_size=nv + 4),
                st.sets(st.integers(0, nv - 1), max_size=nv) if nv else st.just(set()),
            )
        )
    )
    def test_against_column_scan(self, case):
        """The same row space as the old per-column elimination, in RREF."""
        nvars, masks, cols = case
        k = len(cols)
        old = column_scan_project(masks, nvars, cols)
        assert all(r & (1 << j) == 0 for r in old for j in cols)
        want = rref_masks(eliminated_lowest(old, nvars, cols), nvars + 1)[0]
        got = project_masks(eliminated_lowest(masks, nvars, cols), k, nvars + 1)
        assert got == [r >> k for r in want]


class TestBitVec:
    def test_xor_self_inverse(self):
        v = BitVec([1, 0, 1])
        assert v ^ v == BitVec.from_mask(3, 0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            BitVec([1]) ^ BitVec([1, 0])

    @given(st.lists(st.integers(0, 1), max_size=8))
    def test_roundtrip(self, bits):
        v = BitVec(bits)
        assert list(v) == bits
        assert BitVec.from_mask(len(bits), v.mask) == v
