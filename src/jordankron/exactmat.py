"""Dense exact matrices over Q.

``RationalMatrix`` is the package's one dense matrix type.  It stores
integer rows ``num`` over one positive denominator ``den``, in canonical
form: ``gcd(den, every entry) == 1``, so the zero matrix has ``den == 1``.
Every operation works on the integer rows and sets one denominator; entries
are ``Fraction`` objects only in the read-only ``data`` view, which is
rebuilt on each read.  Entries must be exact: ints, ``Fraction``s or
rational strings, never floats or bools.

Matrices are immutable after construction (tuples of tuples), so concurrent
reads are safe from the caller's side.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .polyring import RationalLike, exact_rational, format_rational


class NotSquareError(ValueError):
    """Raised when a square matrix is required."""


def _from_int_rows(num: Sequence[Sequence[int]], den: int = 1) -> "RationalMatrix":
    """The matrix num / den for nonempty rectangular integer rows and a
    positive den, reduced to canonical form.  Module-internal: the rows are
    not validated."""
    if den != 1:
        g = den
        for row in num:
            g = gcd(g, *row)
            if g == 1:
                break
        if g != 1:
            num = [[x // g for x in row] for row in num]
            den //= g
    a = RationalMatrix.__new__(RationalMatrix)
    a.num = tuple(map(tuple, num))
    a.den = den
    a.rows = len(a.num)
    a.cols = len(a.num[0])
    return a


class RationalMatrix:
    """Dense matrix over Q as integer rows over one denominator; treat
    instances as read-only values."""

    __slots__ = ("rows", "cols", "num", "den")

    def __init__(self, rows_data: Iterable[Iterable[RationalLike]]):
        data = [[exact_rational(e) for e in row] for row in rows_data]
        if not data or not data[0]:
            raise ValueError("a matrix needs at least one row and one column")
        width = len(data[0])
        if any(len(r) != width for r in data):
            raise ValueError("ragged rows")
        # The lcm of the reduced denominators is already canonical.
        den = 1
        for row in data:
            for e in row:
                if den % e.denominator:
                    den = lcm(den, e.denominator)
        self.num = tuple(
            tuple(e.numerator * (den // e.denominator) for e in row) for row in data
        )
        self.den = den
        self.rows = len(data)
        self.cols = width

    @property
    def data(self) -> tuple[tuple[Fraction, ...], ...]:
        """The entries as Fractions, rebuilt on every read."""
        den = self.den
        return tuple(tuple(Fraction(x, den) for x in row) for row in self.num)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls([[0] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls([[int(i == j) for j in range(n)] for i in range(n)])

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return not any(map(any, self.num))

    def transpose(self) -> "RationalMatrix":
        return _from_int_rows(list(zip(*self.num)), self.den)

    def scale(self, c: RationalLike) -> "RationalMatrix":
        c = Fraction(exact_rational(c))
        p, q = c.numerator, c.denominator
        return _from_int_rows([[p * x for x in row] for row in self.num], q * self.den)

    def shifted(self, c: RationalLike) -> "RationalMatrix":
        """self - c * I, for square matrices."""
        if not self.is_square():
            raise NotSquareError("diagonal shift needs a square matrix")
        c = Fraction(exact_rational(c))
        q = c.denominator
        diag = c.numerator * self.den
        out = [[q * x for x in row] for row in self.num]
        for i, row in enumerate(out):
            row[i] -= diag
        return _from_int_rows(out, q * self.den)

    def _combine(self, other: "RationalMatrix", sign: int) -> "RationalMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, sign * (den // other.den)
        return _from_int_rows(
            [[fa * x + fb * y for x, y in zip(ra, rb)]
             for ra, rb in zip(self.num, other.num)],
            den,
        )

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self._combine(other, 1)

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self._combine(other, -1)

    def __neg__(self) -> "RationalMatrix":
        return _from_int_rows([[-x for x in row] for row in self.num], self.den)

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        # Row i of the product combines the rows of other picked by the
        # nonzero entries of row i of self.
        zero = [0] * other.cols
        out = []
        for row in self.num:
            acc = zero
            for x, orow in zip(row, other.num):
                if x:
                    acc = [a + x * y for a, y in zip(acc, orow)]
            out.append(acc)
        return _from_int_rows(out, self.den * other.den)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return self.den == other.den and self.num == other.num

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def dump(self) -> str:
        """Debug format: one row per line, entries space-separated."""
        den = self.den
        return "\n".join(
            " ".join(format_rational(Fraction(x, den)) for x in row)
            for row in self.num
        )

    def __repr__(self) -> str:
        return f"RationalMatrix({self.rows}x{self.cols})"


def jordan_block(lam: RationalLike, size: int) -> RationalMatrix:
    """Upper bidiagonal block: lam on the diagonal, ones above it."""
    if type(size) is not int or size < 1:
        raise ValueError(f"block size must be an integer >= 1, got {size!r}")
    lam = Fraction(exact_rational(lam))
    p, q = lam.numerator, lam.denominator
    return _from_int_rows(
        [
            [p if i == j else q if j == i + 1 else 0 for j in range(size)]
            for i in range(size)
        ],
        q,
    )


def kron(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    """Kronecker product: the block matrix [a_ij * B]."""
    zero = [0] * b.cols
    out = []
    for arow in a.num:
        for brow in b.num:
            row: list[int] = []
            for x in arow:
                row.extend([x * y for y in brow] if x else zero)
            out.append(row)
    return _from_int_rows(out, a.den * b.den)


def direct_sum(blocks: Sequence[RationalMatrix]) -> RationalMatrix:
    """Block-diagonal assembly of square blocks."""
    blocks = list(blocks)
    if not blocks:
        raise ValueError("need at least one block")
    if any(not blk.is_square() for blk in blocks):
        raise NotSquareError("direct sum blocks must be square")
    total = sum(blk.rows for blk in blocks)
    den = lcm(*(blk.den for blk in blocks))
    out = []
    offset = 0
    for blk in blocks:
        f = den // blk.den
        left, right = [0] * offset, [0] * (total - offset - blk.rows)
        out.extend(left + [f * x for x in row] + right for row in blk.num)
        offset += blk.rows
    return _from_int_rows(out, den)
