"""Constructive similarity reductions over the triangular Toeplitz ring.

An n x n upper triangular Toeplitz matrix is determined by its first row,
and such matrices form a commutative ring isomorphic to truncated power
series.  A block upper triangular Toeplitz matrix Z with such blocks
A_0 .. A_(m-1) on its first block row can be compressed whenever the first
nonzero off-diagonal block is invertible.  ``BlockToeplitzUT`` holds Z as
the first rows of A_0 .. A_(m-1), and the reductions work on those rows
until they assemble their matrices:

* ``reduce_bidiagonal`` (A_1 invertible over Q) produces a unit block
  upper triangular X with identity first block row such that
  ``Z X = X (I (x) A_0 + N (x) A_1)`` exactly;
* ``reduce_shifted`` (A_1 .. A_(r-1) zero, A_r invertible) does the same
  with shift r, the first r block rows of X being identity rows.

A block diagonal scaling D of powers of the pivot block then completes the
reduction to ``I (x) A_0 + N^r (x) I``.  The unknown blocks of X are solved
superdiagonal by superdiagonal via forward substitution; each equation only
involves previously determined entries, so the construction is exact.

These algorithms are exhibits of the machinery behind the closed-form
results and sit off the prediction hot path; the predictors use the final
formulas directly.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, NamedTuple, Sequence

from .exactmat import RationalMatrix, _from_int_rows
from .polyring import exact_rational


class SingularBlockError(ValueError):
    """The pivot block is not invertible over Q (top-left entry zero)."""


class SingularA1Error(SingularBlockError):
    """The first off-diagonal block must be invertible."""


class SingularArError(SingularBlockError):
    """The shift-order block must be invertible."""


class NonzeroLowOrderError(ValueError):
    """A block strictly between the diagonal and the shift order is nonzero."""


# A ring element is the first row of an upper triangular Toeplitz matrix,
# held as a tuple of Fractions of fixed length n.


def _tz_zero(n: int) -> tuple[Fraction, ...]:
    return (Fraction(0),) * n


def _tz_one(n: int) -> tuple[Fraction, ...]:
    return (Fraction(1),) + (Fraction(0),) * (n - 1)


def _tz_add(a, b):
    return tuple(x + y for x, y in zip(a, b))

def _tz_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _tz_mul(a, b):
    n = len(a)
    return tuple(
        sum((a[i] * b[k - i] for i in range(k + 1)), Fraction(0))
        for k in range(n)
    )


def _tz_inv(a):
    """Truncated power series inverse; needs a[0] != 0."""
    n = len(a)
    if a[0] == 0:
        raise ZeroDivisionError("not a unit")
    inv0 = 1 / a[0]
    out = [inv0] + [Fraction(0)] * (n - 1)
    for k in range(1, n):
        out[k] = -inv0 * sum(
            (a[i] * out[k - i] for i in range(1, k + 1)), Fraction(0)
        )
    return tuple(out)


def _tz_pow(a, e: int):
    out = _tz_one(len(a))
    for _ in range(e):
        out = _tz_mul(out, a)
    return out


class _FirstRows(NamedTuple):
    rows: tuple[tuple[Fraction, ...], ...]


class BlockToeplitzUT(_FirstRows):
    """Block upper triangular Toeplitz matrix with UT Toeplitz blocks.

    Block (i, j) equals A_(j-i), so the whole matrix is determined by the
    first block row A_0 .. A_(m-1); it is held as their first rows, tuples
    of Fractions.
    """

    __slots__ = ()

    def __new__(cls, rows: Iterable[Sequence]):
        rows = tuple(tuple(Fraction(exact_rational(c)) for c in row) for row in rows)
        if not rows or not rows[0]:
            raise ValueError("need at least one block of size >= 1")
        if len({len(row) for row in rows}) != 1:
            raise ValueError("blocks must share one size")
        return super().__new__(cls, rows)

    @property
    def block_count(self) -> int:
        return len(self.rows)

    @property
    def block_size(self) -> int:
        return len(self.rows[0])

    def to_matrix(self) -> RationalMatrix:
        m, a = self.block_count, self.rows
        grid = [[a[j - i] if j >= i else None for j in range(m)] for i in range(m)]
        return _assemble_block_grid(grid, m, self.block_size)


def _assemble_block_grid(grid, m: int, n: int) -> RationalMatrix:
    """The m x m block matrix whose block (i, j) is the upper triangular
    Toeplitz matrix of first row grid[i][j], or zero where that is None.

    The entries are Fractions (or ints); the matrix is built as integer rows
    over the lcm of their denominators."""
    den = lcm(*{x.denominator for grid_row in grid for first in grid_row
                if first is not None for x in first})
    out = [[0] * (m * n) for _ in range(m * n)]
    for bi, grid_row in enumerate(grid):
        for bj, first in enumerate(grid_row):
            if first is None:
                continue
            ints = [x.numerator * (den // x.denominator) for x in first]
            for i in range(n):
                out[bi * n + i][bj * n + i : (bj + 1) * n] = ints[: n - i]
    return _from_int_rows(out, den)


class SimilarityReduction(NamedTuple):
    """Outcome of a reduction: Z @ transform == transform @ target, and
    scaling conjugates target onto normal_form (target @ scaling ==
    scaling @ normal_form), so S = transform @ scaling has
    Z @ S == S @ normal_form."""

    shift_order: int
    transform: RationalMatrix
    target: RationalMatrix
    scaling: RationalMatrix
    normal_form: RationalMatrix


def reduce_shifted(z: BlockToeplitzUT, r: int) -> SimilarityReduction:
    """Reduce Z to ``I (x) A_0 + N^r (x) I`` when A_1..A_(r-1) vanish and
    A_r is invertible.

    The transform X is solved by forward substitution: for every offset t
    from r+1 up, the equations on the t-th block superdiagonal of
    Z X - X (I (x) A_0 + N^r (x) A_r) determine the (t-r)-th superdiagonal
    of X from already-known entries, walking down each diagonal.
    """
    m, n = z.block_count, z.block_size
    if type(r) is not int or not 1 <= r <= m - 1:
        raise ValueError(f"shift order must be an integer in [1, {m - 1}], got {r!r}")
    a = z.rows
    for i in range(1, r):
        if any(a[i]):
            raise NonzeroLowOrderError(
                f"block {i} below the shift order {r} is nonzero"
            )
    if a[r][0] == 0:
        raise SingularArError(
            f"block {r} has zero top-left entry, not invertible"
        )
    ar_inv = _tz_inv(a[r])

    # X starts as block identity; rows 0..r-1 stay identity rows.
    x = [[None] * m for _ in range(m)]
    one = _tz_one(n)
    zero = _tz_zero(n)
    for i in range(m):
        x[i][i] = one
        for j in range(i + 1, m):
            x[i][j] = zero
    for t in range(r + 1, m):
        for i in range(m - t):
            acc = a[t]
            for l in range(r + 1, t):
                term = x[i + l][i + t]
                if any(term):
                    acc = _tz_add(acc, _tz_mul(a[l], term))
            x[i + r][i + t] = _tz_sub(x[i][i + t - r], _tz_mul(ar_inv, acc))

    transform = _assemble_block_grid(x, m, n)

    target_rows = [a[0] if i == 0 else zero for i in range(m)]
    target_rows[r] = a[r]
    target = BlockToeplitzUT(target_rows).to_matrix()

    normal_rows = [a[0] if i == 0 else zero for i in range(m)]
    normal_rows[r] = one
    normal_form = BlockToeplitzUT(normal_rows).to_matrix()

    # Scaling D = diag(B_1..B_m) with B_(i+r) = A_r^{-1} B_i, kept in
    # nonnegative powers of A_r; then target @ D == D @ normal_form.
    top = -(-m // r)
    scale_grid = [[None] * m for _ in range(m)]
    for i in range(m):
        power = top - (-(-(i + 1) // r))
        scale_grid[i][i] = _tz_pow(a[r], power)
    scaling = _assemble_block_grid(scale_grid, m, n)

    return SimilarityReduction(r, transform, target, scaling, normal_form)


def reduce_bidiagonal(z: BlockToeplitzUT) -> SimilarityReduction:
    """Special case r = 1: reduce Z to ``I (x) A_0 + N (x) I`` when the
    first off-diagonal block is invertible."""
    if z.block_count == 1:
        # Nothing above the diagonal; Z is already in normal form.
        mat = z.to_matrix()
        ident = RationalMatrix.identity(mat.rows)
        return SimilarityReduction(1, ident, mat, ident, mat)
    try:
        return reduce_shifted(z, 1)
    except SingularArError as exc:
        raise SingularA1Error(str(exc)) from exc
