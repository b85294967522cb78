"""Dense linear algebra over GF(2).

Vectors and matrices are bit-packed: a row is a Python int whose bit ``j``
holds the coefficient of column ``j``.  Row operations are single XORs, and
arbitrary-precision ints make the width unbounded.  All public values are
immutable; every operation returns fresh objects.
"""

from __future__ import annotations

from .record import Record


def _parity(x: int) -> int:
    return x.bit_count() & 1


def set_bits(mask: int):
    """Indices of the set bits of ``mask``, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class BitVec(Record):
    """An immutable vector over GF(2), indexed 0..len-1."""

    __slots__ = ("_n", "_mask")

    def __init__(self, bits: Iterable[int]):
        bits = tuple(bits)
        mask = 0
        for i, b in enumerate(bits):
            if b not in (0, 1):
                raise ValueError(f"bit {i} is {b!r}, expected 0 or 1")
            mask |= b << i
        self._init(len(bits), mask)

    @classmethod
    def from_mask(cls, n: int, mask: int) -> "BitVec":
        # each slot set directly: _init's loop would double the cost
        v = object.__new__(cls)
        set_n, set_mask = cls._setters
        set_n(v, n)
        set_mask(v, mask & ((1 << n) - 1))
        return v

    @classmethod
    def zeros(cls, n: int) -> "BitVec":
        return cls.from_mask(n, 0)

    @property
    def mask(self) -> int:
        return self._mask

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self._n:
            raise IndexError(i)
        return (self._mask >> i) & 1

    def __iter__(self):
        return ((self._mask >> i) & 1 for i in range(self._n))

    def __xor__(self, other: "BitVec") -> "BitVec":
        if self._n != other._n:
            raise ValueError(f"length mismatch: {self._n} vs {other._n}")
        return BitVec.from_mask(self._n, self._mask ^ other._mask)

    def __repr__(self) -> str:
        return f"BitVec([{', '.join(str(b) for b in self)}])"

    def __reduce__(self):
        return BitVec.from_mask, (self._n, self._mask)


class GF2Matrix(Record):
    """An immutable dense bit matrix; rows are int bitmasks (bit j = column j)."""

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, rows_of_bits: Iterable[Iterable[int]], cols: Optional[int] = None):
        data = []
        width = 0
        for row in rows_of_bits:
            row = tuple(row)
            mask = 0
            for j, b in enumerate(row):
                if b not in (0, 1):
                    raise ValueError(f"entry {b!r} is not a bit")
                mask |= b << j
            width = max(width, len(row))
            data.append(mask)
        if cols is None:
            cols = width
        elif cols < width:
            raise ValueError(f"cols={cols} smaller than widest row ({width})")
        self._init(len(data), cols, tuple(data))

    @classmethod
    def from_masks(cls, masks: Iterable[int], cols: int) -> "GF2Matrix":
        data = tuple(masks)
        full = (1 << cols) - 1
        if any(mask & ~full for mask in data):
            raise ValueError("row mask wider than declared column count")
        m = object.__new__(cls)
        m._init(len(data), cols, data)
        return m

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "GF2Matrix":
        return cls.from_masks([0] * rows, cols)

    @classmethod
    def identity(cls, n: int) -> "GF2Matrix":
        return cls.from_masks([1 << i for i in range(n)], n)

    @property
    def row_masks(self) -> tuple:
        return self._data

    def to_lists(self) -> list:
        return [[(m >> j) & 1 for j in range(self.cols)] for m in self._data]

    def mul_vec(self, v: BitVec) -> BitVec:
        if len(v) != self.cols:
            raise ValueError(f"dimension mismatch: {self.cols} cols vs vector of {len(v)}")
        out = 0
        for i, m in enumerate(self._data):
            out |= _parity(m & v.mask) << i
        return BitVec.from_mask(self.rows, out)

    def __repr__(self) -> str:
        body = "; ".join("".join(str(b) for b in row) for row in self.to_lists())
        return f"GF2Matrix({self.rows}x{self.cols}: {body})"

    def __reduce__(self):
        return GF2Matrix.from_masks, (self._data, self.cols)


def rref_masks(masks: Iterable[int], ncols: int) -> tuple[list[int], list[int]]:
    """Reduced row echelon form on raw row bitmasks.

    Precondition: every set bit of every mask is below ``ncols``.

    Returns (rows, pivot_columns) with zero rows dropped and rows in
    increasing pivot order.  Each row's pivot is its lowest set bit, so the
    result is the unique RREF of the row space.

    Rows are inserted one at a time into a basis that is kept fully reduced
    and indexed by pivot bit: an incoming row is XORed with the basis row of
    every pivot it touches, and whatever remains is a new basis row whose
    pivot bit is then cleared from the older rows.  A dependent row costs one
    XOR per pivot it touches, not a pass over every row.

    ``seen`` is the OR of the rows added to the basis so far.  Each basis
    row is the row added under its pivot XORed with rows added after it, so
    it holds no bit outside ``seen``.  When the new pivot is not in
    ``seen``, no older row holds it and the clearing pass is skipped.  That
    is the common case in ``Circuit.semantics``, where each output row
    carries its own ``y`` bit.
    """
    full = (1 << ncols) - 1
    basis: dict[int, int] = {}  # pivot bit -> reduced row
    pivmask = 0
    seen = 0
    for r in masks:
        hit = r & pivmask
        while hit:
            low = hit & -hit
            r ^= basis[low]
            hit ^= low
        if not r & full:
            continue
        low = r & -r
        if seen & low:
            for p, row in basis.items():
                if row & low:
                    basis[p] = row ^ r
        seen |= r
        basis[low] = r
        pivmask |= low
    order = sorted(basis)
    return [basis[p] for p in order], [p.bit_length() - 1 for p in order]


def null_basis(reduced: list[int], pivots: list[int], ncols: int) -> list[int]:
    """Basis of the solutions of the homogeneous system whose RREF is
    ``(reduced, pivots)``, as ``rref_masks`` returns it: one vector per free
    column f below ``ncols``, with x_f = 1 and the other free variables 0."""
    pivot_set = set(pivots)
    out = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = 1 << f
        for mask, col in zip(reduced, pivots):
            if (mask >> f) & 1:
                v |= 1 << col
        out.append(v)
    return out


def project_masks(masks: Iterable[int], k: int, ncols: int) -> list[int]:
    """Existentially eliminate the variables of columns ``0 .. k-1`` from an
    augmented system whose rows lie below ``ncols`` (the right-hand side is
    its highest column).

    A row of the RREF whose pivot is below ``k`` fixes that eliminated
    variable from the others, so it constrains nothing that remains; the
    rows with pivot ``>= k`` have no bit below ``k`` and span the
    projection.  Returns those rows shifted down by ``k``: the projection,
    in RREF.
    """
    rows, pivots = rref_masks(masks, ncols)
    return [r >> k for r, p in zip(rows, pivots) if p >= k]
