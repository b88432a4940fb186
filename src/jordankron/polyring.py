"""Exact polynomial arithmetic over the rationals.

Univariate and bivariate polynomials with ``fractions.Fraction``
coefficients, plus the handful of operations the matrix-structure code is
built on.  Coefficients and points must be exact (``exact_rational``):
ints, Fractions or rational strings, never floats or bools.

* Values of Hasse derivatives, the binomial-weighted formal derivatives
  with ``D_{x^a y^b} x^i y^j = C(i,a) C(j,b) x^(i-a) y^(j-b)``, at a point,
  all orders in one table.  They keep integer data integral (no factorial
  denominators appear).  The table is integer rows over one denominator,
  computed by two Taylor shifts in integer arithmetic, one per variable
  (von zur Gathen and Gerhard, "Fast algorithms for Taylor shifts and
  certain difference equations", ISSAC 1997, give faster variants).
  It is the one place a Hasse value is computed: both predictors read it,
  the derivative one taking f^[0](lam) .. f^[deg f](lam) from row 0 of
  the table of f as a polynomial in y.
* The local degree read off such a table: the smallest total order
  d >= 1 of a Hasse derivative that does not vanish at the point.
* The difference quotient ``(f(x) - f(y)) / (x - y)`` of a univariate f,
  which expands as ``sum_i f_i h_(i-1)`` for the complete homogeneous
  symmetric polynomials ``h_d = sum_j x^j y^(d-j)``.

Everything here is a pure function on immutable values, so concurrent use
needs no synchronization.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, inf, lcm
from typing import Iterable, Union

RationalLike = Union[Fraction, int, str]

#: Sentinel shared by every "no finite order" answer: the multiplicity of a
#: root of the zero polynomial, or the first nonvanishing derivative order
#: of a constant.  Compares correctly against any integer.
INFINITE = inf


class ConstantPolynomialError(ValueError):
    """Raised when an operation requires a nonconstant polynomial."""


_RATIONAL_LITERAL = re.compile(r"\s*[+-]?[0-9]+(/[0-9]+)?\s*")


def parse_rational(text: str) -> Fraction:
    """Parse a rational literal, either ``num/den`` or a plain integer.

    Only those two forms are accepted: decimals, exponents and underscores,
    which ``Fraction`` would also take, are rejected.
    """
    text = str(text)
    if not _RATIONAL_LITERAL.fullmatch(text):
        raise ValueError(f"bad rational literal: {text!r}")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational literal: {text!r}") from exc


def exact_rational(value: RationalLike) -> "int | Fraction":
    """An int or Fraction equal to value, which must be exact: an int, a
    Fraction or a rational string.  Floats and bools raise ValueError, since
    neither is an exact rational (0.1 is a binary fraction, True is not a
    number)."""
    if type(value) is int or type(value) is Fraction:
        return value
    if isinstance(value, (float, bool)):
        raise ValueError(f"expected an exact rational, got {value!r}")
    return Fraction(value)


def format_rational(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


class UnivariatePoly:
    """Dense univariate polynomial; ``coeffs[i]`` multiplies ``w**i``.

    The zero polynomial stores an empty coefficient tuple; otherwise the
    leading (highest-index) coefficient is nonzero.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[RationalLike] = ()):
        cs = [Fraction(exact_rational(c)) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def from_string(cls, text: str) -> "UnivariatePoly":
        """Parse comma-separated coefficients, lowest degree first."""
        return cls(parse_rational(part) for part in text.split(","))

    def to_string(self) -> str:
        if not self.coeffs:
            return "0"
        return ",".join(format_rational(c) for c in self.coeffs)

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, w: RationalLike) -> Fraction:
        w = Fraction(exact_rational(w))
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * w + c
        return acc

    def derivative(self) -> "UnivariatePoly":
        return UnivariatePoly(i * c for i, c in enumerate(self.coeffs) if i > 0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UnivariatePoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __neg__(self) -> "UnivariatePoly":
        return UnivariatePoly(-c for c in self.coeffs)

    def __add__(self, other: "UnivariatePoly") -> "UnivariatePoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        merged = list(a)
        for i, c in enumerate(b):
            merged[i] += c
        return UnivariatePoly(merged)

    def __sub__(self, other: "UnivariatePoly") -> "UnivariatePoly":
        return self + (-other)

    def __mul__(self, other: "UnivariatePoly | RationalLike") -> "UnivariatePoly":
        if isinstance(other, UnivariatePoly):
            if self.is_zero() or other.is_zero():
                return UnivariatePoly()
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a:
                    for j, b in enumerate(other.coeffs):
                        out[i + j] += a * b
            return UnivariatePoly(out)
        c = Fraction(exact_rational(other))
        return UnivariatePoly(c * a for a in self.coeffs)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"UnivariatePoly({self.to_string()!r})"


class BivariatePoly:
    """Dense bivariate polynomial; ``coeffs[i][j]`` multiplies ``x**i * y**j``.

    The stored rectangle is at least 1x1 and may carry zero rows or columns
    at the boundary; degree queries ignore them.  Ragged input rows are
    padded with zeros.  ``_cleared`` holds the integer grid that
    ``hasse_value_table`` shifts, built once here: ``(rows, L)`` with
    ``coeffs[i][j] == rows[i][j] / L`` for L the lcm of the coefficient
    denominators, trimmed of zero rows and columns at the boundary to
    (Dx + 1) x (Dy + 1), or ``((0,),)`` for the zero polynomial.  It is
    the one trimmed form, and equal polynomials have equal ``_cleared``, so
    the degree and shape queries, ``==`` and ``hash`` read it in O(1).
    """

    __slots__ = ("coeffs", "_cleared")

    def __init__(self, rows: Iterable[Iterable[RationalLike]] = ((0,),)):
        grid = [[Fraction(exact_rational(c)) for c in row] for row in rows]
        width = max((len(r) for r in grid), default=0)
        if width == 0:
            grid, width = [[Fraction(0)]], 1
        zero = Fraction(0)
        self.coeffs = tuple(
            tuple(r) + (zero,) * (width - len(r)) for r in grid
        )
        big_l = lcm(*(c.denominator for row in self.coeffs for c in row))
        ints = [
            [c.numerator * (big_l // c.denominator) for c in row] for row in self.coeffs
        ]
        while len(ints) > 1 and not any(ints[-1]):
            ints.pop()
        ncols = width
        while ncols > 1 and not any(row[ncols - 1] for row in ints):
            ncols -= 1
        self._cleared = tuple(tuple(row[:ncols]) for row in ints), big_l

    @classmethod
    def from_string(cls, text: str) -> "BivariatePoly":
        """Parse semicolon-separated rows of comma-separated coefficients.

        Row index is the x power, column index the y power, so
        ``"0,1;1,0"`` is ``x + y``.
        """
        return cls(
            [parse_rational(part) for part in row.split(",")]
            for row in text.split(";")
        )

    def to_string(self) -> str:
        return ";".join(
            ",".join(format_rational(c) for c in row) for row in self.coeffs
        )

    @property
    def nrows(self) -> int:
        return len(self.coeffs)

    @property
    def ncols(self) -> int:
        return len(self.coeffs[0])

    def terms(self):
        """Yield (i, j, coefficient) for every nonzero stored term."""
        for i, row in enumerate(self.coeffs):
            for j, c in enumerate(row):
                if c:
                    yield i, j, c

    def is_zero(self) -> bool:
        return self._cleared[0] == ((0,),)

    def is_constant(self) -> bool:
        return len(self._cleared[0]) == len(self._cleared[0][0]) == 1

    @property
    def constant_term(self) -> Fraction:
        return self.coeffs[0][0]

    def degree_x(self) -> int:
        """Largest x power with a nonzero coefficient; -1 if zero."""
        return -1 if self.is_zero() else len(self._cleared[0]) - 1

    def degree_y(self) -> int:
        return -1 if self.is_zero() else len(self._cleared[0][0]) - 1

    def eval(self, lam: RationalLike, mu: RationalLike) -> Fraction:
        lam, mu = Fraction(exact_rational(lam)), Fraction(exact_rational(mu))
        # Horner in x over Horner in y.
        acc = Fraction(0)
        for row in reversed(self.coeffs):
            racc = Fraction(0)
            for c in reversed(row):
                racc = racc * mu + c
            acc = acc * lam + racc
        return acc

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BivariatePoly):
            return NotImplemented
        return self._cleared == other._cleared

    def __hash__(self) -> int:
        return hash(self._cleared)

    def __neg__(self) -> "BivariatePoly":
        return BivariatePoly((-c for c in row) for row in self.coeffs)

    def __add__(self, other: "BivariatePoly") -> "BivariatePoly":
        nr = max(self.nrows, other.nrows)
        nc = max(self.ncols, other.ncols)
        zero = Fraction(0)

        def at(p, i, j):
            if i < p.nrows and j < p.ncols:
                return p.coeffs[i][j]
            return zero

        return BivariatePoly(
            [at(self, i, j) + at(other, i, j) for j in range(nc)]
            for i in range(nr)
        )

    def __sub__(self, other: "BivariatePoly") -> "BivariatePoly":
        return self + (-other)

    def __mul__(self, other: "BivariatePoly | RationalLike") -> "BivariatePoly":
        if isinstance(other, BivariatePoly):
            out = [
                [Fraction(0)] * (self.ncols + other.ncols - 1)
                for _ in range(self.nrows + other.nrows - 1)
            ]
            for i, j, a in self.terms():
                for k, l, b in other.terms():
                    out[i + k][j + l] += a * b
            return BivariatePoly(out)
        c = Fraction(exact_rational(other))
        return BivariatePoly((c * a for a in row) for row in self.coeffs)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"BivariatePoly({self.to_string()!r})"


def _taylor_shift(coeffs, a: int, b: int, width: int) -> list[int]:
    """Coefficients of t^0 .. t^(width - 1) in b^D f(a/b + t), for the
    integer polynomial f = sum_j coeffs[j] w^j of length D + 1 >= 1.

    Horner in the scaled form: q <- q (a + b t) + coeffs[j] b^(D - j), from
    j = D down.  Multiplying by a + b t only moves coefficients up, so q is
    kept truncated to width terms throughout.
    """
    if a == 0:  # then b == 1: no shift
        return list(coeffs[:width]) + [0] * (width - len(coeffs))
    q = [coeffs[-1]]
    scale = 1
    for c in reversed(coeffs[:-1]):
        scale *= b
        top = [b * q[-1]] if len(q) < width else []
        q = [a * q[0] + c * scale] + [a * x + b * y for x, y in zip(q[1:], q)] + top
    return q + [0] * (width - len(q))


def hasse_value_table(
    p: BivariatePoly,
    lam: RationalLike,
    mu: RationalLike,
    max_x_order: int,
    max_y_order: int,
) -> tuple[list[list[int]], int]:
    """Values of all Hasse derivatives of p at (lam, mu), in one pass, as
    integer rows over one denominator.

    Returns ``(num, den)``: the order-(h, k) Hasse derivative value is
    ``num[h][k] / den``, for 0 <= h <= max_x_order and 0 <= k <= max_y_order,
    with ``den > 0`` and ``gcd(den, every entry) == 1`` (so ``den == 1`` for
    an all-zero table).  The order-(h, k) value is the coefficient of
    s^h t^k in p(lam + s, mu + t), so two integer Taylor shifts give the
    table: with the coefficient denominators cleared to L, lam = a/b and
    mu = c/e, each x-row is shifted in y by mu, then each column in x by
    lam, and the denominator is L b^Dx e^Dy for the degrees Dx, Dy of p.
    """
    if max_x_order < 0 or max_y_order < 0:
        raise ValueError("derivative orders must be nonnegative")
    lam, mu = exact_rational(lam), exact_rational(mu)
    width = max_y_order + 1
    if p.is_zero():
        return [[0] * width for _ in range(max_x_order + 1)], 1
    grid, big_l = p._cleared
    dx, dy = len(grid) - 1, len(grid[0]) - 1
    ky, hx = min(dy + 1, width), min(dx + 1, max_x_order + 1)
    shifted = [_taylor_shift(row, mu.numerator, mu.denominator, ky) for row in grid]
    cols = [
        _taylor_shift(col, lam.numerator, lam.denominator, hx)
        for col in zip(*shifted)
    ]
    den = big_l * lam.denominator**dx * mu.denominator**dy
    g = gcd(den, *(v for col in cols for v in col)) if den != 1 else 1
    pad = [0] * (width - ky)
    if g == 1:
        num = [list(row) + pad for row in zip(*cols)]
    else:
        num = [[v // g for v in row] + pad for row in zip(*cols)]
        den //= g
    num.extend([0] * width for _ in range(max_x_order + 1 - hx))
    return num, den


def table_local_degree(table: list[list[int]]) -> int:
    """Smallest total order h + k >= 1 of a nonzero entry of the rows of a
    hasse_value_table (its ``num``; zero tests need no denominator).  The
    table must reach the degree of a nonconstant p in each variable, so
    that one exists."""
    return min(
        h + k for h, row in enumerate(table) for k, v in enumerate(row) if v and h + k
    )


def bezout_quotient(f: UnivariatePoly) -> BivariatePoly:
    """The difference quotient (f(x) - f(y)) / (x - y), as a polynomial.

    Expands as ``sum_{i>=1} f_i h_(i-1)(x, y)``; for constant or zero f the
    result is the zero polynomial.
    """
    deg = f.degree
    if deg < 1:
        return BivariatePoly([[0]])
    zero = Fraction(0)
    grid = [
        [f.coeffs[i + j + 1] if i + j + 1 <= deg else zero for j in range(deg)]
        for i in range(deg)
    ]
    return BivariatePoly(grid)
