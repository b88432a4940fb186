"""Exact polynomial arithmetic over the rationals.

Univariate and bivariate polynomials with ``fractions.Fraction``
coefficients, plus the handful of operations the matrix-structure code is
built on:

* Values of Hasse derivatives, the binomial-weighted formal derivatives
  with ``D_{x^a y^b} x^i y^j = C(i,a) C(j,b) x^(i-a) y^(j-b)``, at a point,
  all orders in one table.  They keep integer data integral (no factorial
  denominators appear).
* The local degree read off such a table: the smallest total order
  d >= 1 of a Hasse derivative that does not vanish at the point.
* The difference quotient ``(f(x) - f(y)) / (x - y)`` of a univariate f,
  which expands as ``sum_i f_i h_(i-1)`` for the complete homogeneous
  symmetric polynomials ``h_d = sum_j x^j y^(d-j)``.

Everything here is a pure function on immutable values, so concurrent use
needs no synchronization.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from math import comb
from typing import Iterable, Union

RationalLike = Union[Fraction, int, str]

#: Sentinel shared by every "no finite order" answer: the multiplicity of a
#: root of the zero polynomial, or the first nonvanishing derivative order
#: of a constant.  Compares correctly against any integer.
INFINITE = math.inf


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
        cs = [Fraction(c) for c in coeffs]
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
        w = Fraction(w)
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
        c = Fraction(other)
        return UnivariatePoly(c * a for a in self.coeffs)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"UnivariatePoly({self.to_string()!r})"


class BivariatePoly:
    """Dense bivariate polynomial; ``coeffs[i][j]`` multiplies ``x**i * y**j``.

    The stored rectangle is at least 1x1 and may carry zero rows or columns
    at the boundary; degree queries ignore them.  Ragged input rows are
    padded with zeros.
    """

    __slots__ = ("coeffs",)

    def __init__(self, rows: Iterable[Iterable[RationalLike]] = ((0,),)):
        grid = [[Fraction(c) for c in row] for row in rows]
        width = max((len(r) for r in grid), default=0)
        if width == 0:
            grid, width = [[Fraction(0)]], 1
        zero = Fraction(0)
        self.coeffs = tuple(
            tuple(r) + (zero,) * (width - len(r)) for r in grid
        )

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
        return all(not c for row in self.coeffs for c in row)

    def is_constant(self) -> bool:
        return all(i == 0 and j == 0 for i, j, _ in self.terms())

    @property
    def constant_term(self) -> Fraction:
        return self.coeffs[0][0]

    def degree_x(self) -> int:
        """Largest x power with a nonzero coefficient; -1 if zero."""
        return max((i for i, _, _ in self.terms()), default=-1)

    def degree_y(self) -> int:
        return max((j for _, j, _ in self.terms()), default=-1)

    def eval(self, lam: RationalLike, mu: RationalLike) -> Fraction:
        lam, mu = Fraction(lam), Fraction(mu)
        # Horner in x over Horner in y.
        acc = Fraction(0)
        for row in reversed(self.coeffs):
            racc = Fraction(0)
            for c in reversed(row):
                racc = racc * mu + c
            acc = acc * lam + racc
        return acc

    def _trimmed(self):
        dx, dy = self.degree_x(), self.degree_y()
        if dx < 0:
            return ((Fraction(0),),)
        return tuple(row[: dy + 1] for row in self.coeffs[: dx + 1])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BivariatePoly):
            return NotImplemented
        return self._trimmed() == other._trimmed()

    def __hash__(self) -> int:
        return hash(self._trimmed())

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
        c = Fraction(other)
        return BivariatePoly((c * a for a in row) for row in self.coeffs)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"BivariatePoly({self.to_string()!r})"


def hasse_value_table(
    p: BivariatePoly,
    lam: RationalLike,
    mu: RationalLike,
    max_x_order: int,
    max_y_order: int,
) -> list[list[Fraction]]:
    """Values of all Hasse derivatives of p at (lam, mu), in one pass.

    Returns ``table`` with ``table[h][k]`` the order-(h, k) Hasse derivative
    value, for 0 <= h <= max_x_order and 0 <= k <= max_y_order.
    """
    lam, mu = Fraction(lam), Fraction(mu)
    lam_pow = [Fraction(1)]
    for _ in range(max(p.nrows - 1, 0)):
        lam_pow.append(lam_pow[-1] * lam)
    mu_pow = [Fraction(1)]
    for _ in range(max(p.ncols - 1, 0)):
        mu_pow.append(mu_pow[-1] * mu)
    table = [
        [Fraction(0)] * (max_y_order + 1) for _ in range(max_x_order + 1)
    ]
    for i, j, a in p.terms():
        for h in range(min(i, max_x_order) + 1):
            left = comb(i, h) * a * lam_pow[i - h]
            row = table[h]
            for k in range(min(j, max_y_order) + 1):
                row[k] += left * comb(j, k) * mu_pow[j - k]
    return table


def table_local_degree(table: list[list[Fraction]]) -> int:
    """Smallest total order h + k >= 1 of a nonzero entry of a
    hasse_value_table; the table must reach the degree of a nonconstant p
    in each variable, so that one exists."""
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


def root_multiplicity(g: UnivariatePoly, lam: RationalLike):
    """Largest t with (w - lam)^t dividing g.

    Returns 0 when g(lam) != 0 and the INFINITE sentinel when g is the zero
    polynomial.
    """
    if g.is_zero():
        return INFINITE
    lam = Fraction(lam)
    mult = 0
    coeffs = list(g.coeffs)
    while True:
        # Synthetic division by (w - lam): bs[0] is the remainder g(lam),
        # bs[1:] the quotient coefficients.
        bs = [Fraction(0)] * len(coeffs)
        acc = Fraction(0)
        for i in range(len(coeffs) - 1, -1, -1):
            acc = coeffs[i] + lam * acc
            bs[i] = acc
        if bs[0] != 0:
            return mult
        mult += 1
        coeffs = bs[1:]


def univariate_hasse_eval(f: UnivariatePoly, order: int, lam: RationalLike) -> Fraction:
    """Value at lam of the order-th Hasse derivative of f."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    lam = Fraction(lam)
    total = Fraction(0)
    for i in range(len(f.coeffs) - 1, order - 1, -1):
        c = f.coeffs[i]
        if c:
            total += comb(i, order) * c * lam ** (i - order)
    return total
