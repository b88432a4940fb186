"""Dense exact matrices over Q and Z with exact rank kernels.

Two matrix flavors: ``RationalMatrix`` holds ``fractions.Fraction`` entries,
``IntegerMatrix`` holds Python ints.  Rank is computed by elimination only,
never numerically: a pivoted rational Gauss path for the rational flavor
and a fraction-free row echelon path for the integer flavor.  Each step of
the integer path scales a row by a nonzero integer, subtracts a multiple
of the pivot row or divides a row by a common factor of its entries, so
the rank over Q never changes; the division keeps the entries as small as
minors of the input.  The two paths are cross-checked against each other,
and against a full-pivot Bareiss reference, in the test suite.

Matrices are immutable after construction (tuples of tuples), so concurrent
reads are safe and rank computations can run in parallel from the caller's
side.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .polyring import RationalLike, format_rational


class NotSquareError(ValueError):
    """Raised when a square matrix is required."""


class RationalMatrix:
    """Dense matrix of Fractions; treat instances as read-only values."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows_data: Iterable[Iterable[RationalLike]]):
        data = tuple(tuple(Fraction(e) for e in row) for row in rows_data)
        if not data or not data[0]:
            raise ValueError("a matrix needs at least one row and one column")
        width = len(data[0])
        if any(len(r) != width for r in data):
            raise ValueError("ragged rows")
        self.data = data
        self.rows = len(data)
        self.cols = width

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls([[0] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return all(not e for row in self.data for e in row)

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(zip(*self.data))

    def scale(self, c: RationalLike) -> "RationalMatrix":
        c = Fraction(c)
        return RationalMatrix((c * e for e in row) for row in self.data)

    def shifted(self, c: RationalLike) -> "RationalMatrix":
        """self - c * I, for square matrices."""
        if not self.is_square():
            raise NotSquareError("diagonal shift needs a square matrix")
        c = Fraction(c)
        return RationalMatrix(
            tuple(e - c if i == j else e for j, e in enumerate(row))
            for i, row in enumerate(self.data)
        )

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return RationalMatrix(
            (a + b for a, b in zip(ra, rb))
            for ra, rb in zip(self.data, other.data)
        )

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return RationalMatrix(
            (a - b for a, b in zip(ra, rb))
            for ra, rb in zip(self.data, other.data)
        )

    def __neg__(self) -> "RationalMatrix":
        return RationalMatrix((-e for e in row) for row in self.data)

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        bt = list(zip(*other.data))
        return RationalMatrix(
            [sum(map(mul, row, col)) for col in bt] for row in self.data
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return self.data == other.data

    def __hash__(self) -> int:
        return hash(self.data)

    def dump(self) -> str:
        """Debug format: one row per line, entries space-separated."""
        return "\n".join(
            " ".join(format_rational(e) for e in row) for row in self.data
        )

    def __repr__(self) -> str:
        return f"RationalMatrix({self.rows}x{self.cols})"


class IntegerMatrix:
    """Dense matrix of arbitrary-precision integers."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows_data: Iterable[Iterable[int]]):
        data = []
        for row in rows_data:
            out = []
            for e in row:
                iv = int(e)
                if iv != e:
                    raise ValueError(f"non-integer entry: {e!r}")
                out.append(iv)
            data.append(tuple(out))
        if not data or not data[0]:
            raise ValueError("a matrix needs at least one row and one column")
        width = len(data[0])
        if any(len(r) != width for r in data):
            raise ValueError("ragged rows")
        self.data = tuple(data)
        self.rows = len(data)
        self.cols = width

    def transpose(self) -> "IntegerMatrix":
        return IntegerMatrix(zip(*self.data))

    def matvec(self, v: Sequence[int]) -> list[int]:
        if len(v) != self.cols:
            raise ValueError("shape mismatch")
        return [sum(map(mul, row, v)) for row in self.data]

    def to_rational(self) -> RationalMatrix:
        return RationalMatrix(self.data)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntegerMatrix):
            return NotImplemented
        return self.data == other.data

    def __hash__(self) -> int:
        return hash(self.data)

    def dump(self) -> str:
        return "\n".join(" ".join(str(e) for e in row) for row in self.data)

    def __repr__(self) -> str:
        return f"IntegerMatrix({self.rows}x{self.cols})"


def jordan_block(lam: RationalLike, size: int) -> RationalMatrix:
    """Upper bidiagonal block: lam on the diagonal, ones above it."""
    if size < 1:
        raise ValueError("block size must be positive")
    lam = Fraction(lam)
    return RationalMatrix(
        [
            [lam if i == j else 1 if j == i + 1 else 0 for j in range(size)]
            for i in range(size)
        ]
    )


def kron(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    """Kronecker product: the block matrix [a_ij * B]."""
    out = []
    for arow in a.data:
        for brow in b.data:
            out.append([ae * be for ae in arow for be in brow])
    return RationalMatrix(out)


def direct_sum(blocks: Sequence[RationalMatrix]) -> RationalMatrix:
    """Block-diagonal assembly of square blocks."""
    blocks = list(blocks)
    if not blocks:
        raise ValueError("need at least one block")
    if any(not blk.is_square() for blk in blocks):
        raise NotSquareError("direct sum blocks must be square")
    total = sum(blk.rows for blk in blocks)
    zero = Fraction(0)
    out = [[zero] * total for _ in range(total)]
    offset = 0
    for blk in blocks:
        for i, row in enumerate(blk.data):
            orow = out[offset + i]
            for j, e in enumerate(row):
                orow[offset + j] = e
        offset += blk.rows
    return RationalMatrix(out)


def matrix_power(a: RationalMatrix, e: int) -> RationalMatrix:
    """a**e by binary exponentiation; a**0 is the identity."""
    if not a.is_square():
        raise NotSquareError("only square matrices have powers")
    if e < 0:
        raise ValueError("exponent must be nonnegative")
    result = RationalMatrix.identity(a.rows)
    base = a
    while e:
        if e & 1:
            result = result @ base
        base_needed = e >> 1
        if base_needed:
            base = base @ base
        e = base_needed
    return result


# ---------------------------------------------------------------------------
# Rank kernels.  Both operate on mutable lists of lists and are wrapped by
# the public rank() below.
# ---------------------------------------------------------------------------


def _rank_int_rows(rows: list[list[int]]) -> int:
    """Rank over Q by row echelon elimination on integer rows; consumes its
    argument.

    Columns are cleared from left to right.  The pivot is the nonzero entry
    of least magnitude in the column, and the search stops at a unit.  Below
    a unit pivot p a row x with x_j = f becomes x - (f p) y, unscaled, for
    y the pivot row.  Below any other pivot it becomes (p / g) x - (f / g) y
    for g = gcd(p, f), divided by the gcd of its entries, so it stays
    primitive.  A row with a zero in the pivot column is left as it is.  Each
    step scales a row by a nonzero integer, subtracts a multiple of the pivot
    row or divides by a common factor, so the row space over Q never
    changes, and the rank is the number of pivots.
    """
    # ``active`` holds the rows without a pivot yet, each cut down to its
    # entries from the current column on.
    active = rows
    rank = 0
    while active and active[0]:
        best = bi = 0
        for i, row in enumerate(active):
            v = row[0]
            if v:
                a = v if v > 0 else -v
                if not best or a < best:
                    best, bi = a, i
                    if a == 1:
                        break
        if not best:
            for row in active:
                del row[0]
            continue
        piv_row = active.pop(bi)
        piv = piv_row[0]
        del piv_row[0]
        rank += 1
        nxt = []
        for row in active:
            f = row[0]
            if not f:
                del row[0]
                nxt.append(row)
            elif best == 1:
                q = f * piv
                nxt.append([x - q * y for x, y in zip(islice(row, 1, None), piv_row)])
            else:
                g = gcd(piv, f)
                a, b = piv // g, f // g
                new = [x * a - y * b for x, y in zip(islice(row, 1, None), piv_row)]
                g = gcd(*new)
                nxt.append([x // g for x in new] if g > 1 else new)
        active = nxt
    return rank


def _pivot_score(q: Fraction) -> int:
    # Magnitude bound used for pivot selection: |num| * den.
    return abs(q.numerator) * q.denominator


def _rank_fraction_rows(rows: list[list[Fraction]]) -> int:
    """Pivoted rational Gauss elimination rank; mutates its argument.

    The pivot is the entry of the trailing submatrix with the largest
    |numerator| * denominator bound, ties broken by lowest row index.
    """
    nrows = len(rows)
    if not nrows:
        return 0
    ncols = len(rows[0])
    r = 0
    lim = min(nrows, ncols)
    while r < lim:
        bi = bj = -1
        best = 0
        for i in range(r, nrows):
            row = rows[i]
            for j in range(r, ncols):
                v = row[j]
                if v:
                    score = _pivot_score(v)
                    if score > best:
                        best, bi, bj = score, i, j
        if bi < 0:
            return r
        if bi != r:
            rows[r], rows[bi] = rows[bi], rows[r]
        if bj != r:
            for row in rows:
                row[r], row[bj] = row[bj], row[r]
        piv_row = rows[r]
        piv = piv_row[r]
        for i in range(r + 1, nrows):
            row = rows[i]
            if row[r]:
                factor = row[r] / piv
                for j in range(r + 1, ncols):
                    row[j] -= factor * piv_row[j]
                row[r] = Fraction(0)
        r += 1
    return r


def _scaled_int_rows(a: RationalMatrix) -> list[list[int]]:
    """Integer rows equal to L * a for L the common denominator."""
    denom = 1
    for row in a.data:
        for e in row:
            if e.denominator != 1:
                denom = lcm(denom, e.denominator)
    if denom == 1:
        return [[e.numerator for e in row] for row in a.data]
    return [
        [e.numerator * (denom // e.denominator) for e in row] for row in a.data
    ]


def rank(a: "RationalMatrix | IntegerMatrix") -> int:
    """Exact rank over Q."""
    if isinstance(a, IntegerMatrix):
        return _rank_int_rows([list(row) for row in a.data])
    if isinstance(a, RationalMatrix):
        return _rank_fraction_rows([list(row) for row in a.data])
    raise TypeError(f"unsupported matrix type: {type(a)!r}")


def nullity(a: "RationalMatrix | IntegerMatrix") -> int:
    return a.cols - rank(a)
