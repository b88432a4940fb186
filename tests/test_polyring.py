import random
from fractions import Fraction as Q
from math import comb, gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jordankron import (
    INFINITE,
    BivariatePoly,
    ConstantPolynomialError,
    UnivariatePoly,
    bezout_quotient,
)
from jordankron.polyring import format_rational, hasse_value_table, parse_rational
from helpers import (
    Biindex,
    h_poly,
    hasse_derivative,
    local_degree,
    random_bivariate,
    random_univariate,
    reference_hasse_value_table,
    reference_root_multiplicity,
    reference_univariate_hasse_eval,
    swap,
    total_degree,
)

X_MINUS_Y = BivariatePoly([[0, -1], [1, 0]])


def univariate_in_x(f: UnivariatePoly) -> BivariatePoly:
    return BivariatePoly([[c] for c in f.coeffs] or [[0]])


def univariate_in_y(f: UnivariatePoly) -> BivariatePoly:
    return BivariatePoly([list(f.coeffs) or [0]])


def test_parse_and_format_rationals():
    assert parse_rational("3/4") == Q(3, 4)
    assert parse_rational("-2") == Q(-2)
    assert format_rational(Q(5)) == "5"
    assert format_rational(Q(-3, 7)) == "-3/7"
    with pytest.raises(ValueError):
        parse_rational("1/0")
    with pytest.raises(ValueError):
        parse_rational("x")


def test_parse_rational_accepts_only_integers_and_quotients():
    assert parse_rational(" +7 ") == Q(7)
    assert parse_rational("\t-1/2\n") == Q(-1, 2)
    assert parse_rational(3) == Q(3)
    # Decimals and exponents are rejected before any arithmetic, so a huge
    # exponent costs nothing.
    for text in ("0.5", "-.5", "1e3", "1e999999999", "1_000", "1 / 2", "1/-2",
                 "--1", "inf", "nan", "", "2.0", "0x10"):
        with pytest.raises(ValueError, match="bad rational literal"):
            parse_rational(text)


def test_univariate_string_roundtrip():
    f = UnivariatePoly.from_string("0,0,-2,0,1")
    assert f.degree == 4
    assert f(2) == 16 - 8
    assert UnivariatePoly.from_string(f.to_string()) == f
    assert UnivariatePoly.from_string("0").is_zero()


def test_bivariate_string_roundtrip():
    p = BivariatePoly.from_string("0,1;1,0")
    assert p.eval(3, 5) == 8
    assert BivariatePoly.from_string(p.to_string()) == p


def test_hasse_derivative_examples():
    p = BivariatePoly([[0, 0], [0, 0], [0, 1]])  # x^2 y
    assert hasse_derivative(p, Biindex(1, 0)) == BivariatePoly([[0, 0], [0, 2]])
    assert hasse_derivative(p, Biindex(2, 1)) == BivariatePoly([[1]])
    lin = BivariatePoly([[0, 1], [1, 0]])  # x + y
    assert hasse_derivative(lin, (1, 1)).is_zero()


def test_hasse_composition_relation():
    # Composing two Hasse derivatives rescales the combined one by the
    # componentwise binomials; checked for all orders of total weight <= 4.
    rng = random.Random(11)
    for _ in range(5):
        p = random_bivariate(rng, 4, 4)
        for a1 in range(3):
            for b1 in range(3):
                for a2 in range(3):
                    for b2 in range(3):
                        if a1 + b1 + a2 + b2 > 4 or (a1 + b1 == 0):
                            continue
                        lhs = hasse_derivative(
                            hasse_derivative(p, (a2, b2)), (a1, b1)
                        )
                        rhs = comb(a1 + a2, a1) * comb(b1 + b2, b1) * (
                            hasse_derivative(p, (a1 + a2, b1 + b2))
                        )
                        assert lhs == rhs


def test_double_x_derivative_is_twice_second_order():
    rng = random.Random(3)
    p = random_bivariate(rng, 4, 4)
    once = hasse_derivative(p, (1, 0))
    assert hasse_derivative(once, (1, 0)) == 2 * hasse_derivative(p, (2, 0))


def test_eval_bivariate_examples():
    assert BivariatePoly([[0, 1], [1, 0]]).eval(0, 0) == 0
    p = BivariatePoly.from_string("0,1,-1;-2,1,0")  # y - 2x + xy - y^2
    assert p.eval(0, 2) == -2
    assert h_poly(4).eval(0, 0) == 0


def test_local_degree_examples():
    assert local_degree(BivariatePoly([[0, 1], [1, 0]]), 0, 0) == 1
    assert local_degree(h_poly(4), 0, 0) == 4
    p = BivariatePoly.from_string("0,0,1;0,1,0;1,0,0")  # x^2 + xy + y^2
    assert local_degree(p, 0, 0) == 2
    with pytest.raises(ConstantPolynomialError):
        local_degree(BivariatePoly([[7]]), 0, 0)


def test_local_degree_swap_invariance():
    rng = random.Random(23)
    for _ in range(40):
        p = random_bivariate(rng, 3, 3)
        if p.is_constant():
            continue
        lam, mu = Q(rng.randint(-2, 2)), Q(rng.randint(-2, 2))
        assert local_degree(p, lam, mu) == local_degree(swap(p), mu, lam)


def test_h_poly_examples():
    assert h_poly(0) == BivariatePoly([[1]])
    assert h_poly(1) == BivariatePoly([[0, 1], [1, 0]])
    d3 = h_poly(3)
    assert d3.eval(1, 1) == 4
    assert d3 == BivariatePoly(
        [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]
    )


def test_bezout_quotient_examples():
    assert bezout_quotient(UnivariatePoly([0, 0, 1])) == BivariatePoly(
        [[0, 1], [1, 0]]
    )
    assert bezout_quotient(UnivariatePoly([0, 0, 0, 0, 0, 1])) == h_poly(4)
    assert bezout_quotient(UnivariatePoly([0, 1])) == BivariatePoly([[1]])
    assert bezout_quotient(UnivariatePoly([1])).is_zero()
    assert bezout_quotient(UnivariatePoly()).is_zero()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-5, 5), min_size=0, max_size=11))
def test_bezout_quotient_identity(coeffs):
    f = UnivariatePoly(coeffs)
    p = bezout_quotient(f)
    assert X_MINUS_Y * p == univariate_in_x(f) - univariate_in_y(f)


def test_difference_of_shifted_derivatives_identity():
    # For difference quotients p, shifting a derivative from y to x costs a
    # factor (x - y) on the next mixed derivative; all biindex weights <= 4.
    rng = random.Random(5)
    for _ in range(20):
        f = random_univariate(rng, max_deg=8)
        p = bezout_quotient(f)
        for beta in range(3):
            for gamma in range(3):
                if beta + gamma > 4:
                    continue
                lhs = hasse_derivative(p, (beta + 1, gamma)) - hasse_derivative(
                    p, (beta, gamma + 1)
                )
                rhs = X_MINUS_Y * hasse_derivative(p, (beta + 1, gamma + 1))
                assert lhs == rhs


def test_tangent_multiplicity_matches_local_degree():
    # The local degree of the difference quotient on the diagonal equals
    # the root multiplicity of the tangent-shifted derivative there.
    rng = random.Random(17)
    checked = 0
    while checked < 30:
        f = random_univariate(rng, max_deg=7)
        p = bezout_quotient(f)
        if p.is_constant():
            continue
        lam = Q(rng.randint(-2, 2))
        slope = reference_univariate_hasse_eval(f, 1, lam)
        g = f.derivative() - UnivariatePoly([slope])
        assert local_degree(p, lam, lam) == reference_root_multiplicity(g, lam)
        checked += 1


def test_root_multiplicity_examples():
    g = UnivariatePoly([8, -12, 0, 4])  # 4(w + 2)(w - 1)^2
    assert reference_root_multiplicity(g, 1) == 2
    assert reference_root_multiplicity(g, -2) == 1
    assert reference_root_multiplicity(g, 5) == 0
    assert reference_root_multiplicity(UnivariatePoly([0, -4, 0, 4]), -1) == 1
    assert reference_root_multiplicity(UnivariatePoly(), 3) == INFINITE


def test_univariate_hasse_eval_examples():
    f = UnivariatePoly([0, 0, 1])
    assert reference_univariate_hasse_eval(f, 1, 3) == 6
    quartic = UnivariatePoly.from_string("0,0,-2,0,1")
    assert reference_univariate_hasse_eval(quartic, 2, -1) == 4
    assert reference_univariate_hasse_eval(quartic, 5, 7) == 0
    assert reference_univariate_hasse_eval(quartic, 0, 2) == quartic(2)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.one_of(st.just(0), st.builds(Q, st.integers(-5, 5), st.integers(1, 4))),
        max_size=10,
    ),
    st.builds(Q, st.integers(-5, 5), st.integers(1, 5)),
)
def test_one_row_table_is_the_univariate_hasse_values(coeffs, lam):
    # Row 0 of the table of f(y) at (0, lam) is f^[0](lam) .. f^[deg f](lam),
    # the Hermite data the derivative predictor reads.
    f = UnivariatePoly(coeffs)
    top = max(f.degree, 0)
    num, den = hasse_value_table(BivariatePoly([f.coeffs]), 0, lam, 0, top)
    assert len(num) == 1 and len(num[0]) == top + 1
    assert [Q(v, den) for v in num[0]] == [
        reference_univariate_hasse_eval(f, i, lam) for i in range(top + 1)
    ]


def test_hasse_value_table_matches_pointwise_derivatives():
    rng = random.Random(29)
    for _ in range(10):
        p = random_bivariate(rng, 3, 3)
        lam, mu = Q(rng.randint(-2, 2), 1), Q(rng.randint(-3, 3), 2)
        num, den = hasse_value_table(p, lam, mu, 4, 4)
        reference = reference_hasse_value_table(p, lam, mu, 4, 4)
        for h in range(5):
            for k in range(5):
                value = hasse_derivative(p, (h, k)).eval(lam, mu)
                assert Q(num[h][k], den) == reference[h][k] == value


COEFF = st.fractions(min_value=-6, max_value=6, max_denominator=6)
POINT = st.fractions(min_value=-3, max_value=3, max_denominator=7)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.lists(COEFF, min_size=1, max_size=4), min_size=1, max_size=4),
    POINT,
    POINT,
    st.integers(0, 6),
    st.integers(0, 6),
)
@example([[0]], Q(1, 3), Q(-5, 7), 2, 3)
@example([[Q(1, 2), 3], [Q(-2, 3), Q(5, 4)]], Q(-5, 7), Q(2, 5), 0, 0)
def test_hasse_value_table_matches_fraction_reference(grid, lam, mu, mx, my):
    # Orders up to 6 run past the degree (at most 3) in each variable.
    p = BivariatePoly(grid)
    num, den = hasse_value_table(p, lam, mu, mx, my)
    assert len(num) == mx + 1 and all(len(row) == my + 1 for row in num)
    assert type(den) is int and den > 0
    assert all(type(v) is int for row in num for v in row)
    assert gcd(den, *(v for row in num for v in row)) == 1
    assert [[Q(v, den) for v in row] for row in num] == reference_hasse_value_table(
        p, lam, mu, mx, my
    )
    if p.is_zero():
        assert den == 1


def test_polynomial_input_must_be_exact():
    # 0.1 is the binary fraction 3602879701896397/2^55, and True is no
    # coefficient at all; neither may pass for a rational.
    for bad in (0.1, 2.0, True, False):
        with pytest.raises(ValueError):
            UnivariatePoly([1, bad])
        with pytest.raises(ValueError):
            BivariatePoly([[0, 1], [bad, 0]])
        with pytest.raises(ValueError):
            UnivariatePoly([1, 2]) * bad
        with pytest.raises(ValueError):
            BivariatePoly([[0, 1]]) * bad
        with pytest.raises(ValueError):
            BivariatePoly([[0, 1]]).eval(bad, 0)
        with pytest.raises(ValueError):
            hasse_value_table(BivariatePoly([[0, 1]]), 0, bad, 1, 1)
    with pytest.raises(ValueError):
        BivariatePoly([[0.1, True]])
    assert BivariatePoly([["1/10", Q(1, 2)], [3, "-2"]]).to_string() == "1/10,1/2;3,-2"
    assert UnivariatePoly(["1/10", 1]).to_string() == "1/10,1"


def test_bivariate_padding_and_degrees():
    p = BivariatePoly([[1, 0], [0, 0]])
    assert p.degree_x() == 0 and p.degree_y() == 0
    assert total_degree(p) == 0
    ragged = BivariatePoly([[1], [0, 2]])
    assert ragged.coeffs[0][1] == 0
    assert ragged.degree_x() == 1 and ragged.degree_y() == 1
    assert total_degree(BivariatePoly([[0]])) == -1


SPARSE_COEFF = st.one_of(st.just(Q(0)), COEFF)
GRID = st.lists(st.lists(SPARSE_COEFF, min_size=1, max_size=4), min_size=1, max_size=4)


def _nonzero_cells(p: BivariatePoly) -> list[tuple[int, int]]:
    return [(i, j) for i, row in enumerate(p.coeffs) for j, c in enumerate(row) if c]


def _trimmed_fractions(p: BivariatePoly) -> tuple:
    cells = _nonzero_cells(p)
    dx = max((i for i, _ in cells), default=0)
    dy = max((j for _, j in cells), default=0)
    return tuple(tuple(row[: dy + 1]) for row in p.coeffs[: dx + 1])


@settings(max_examples=300, deadline=None)
@given(GRID, GRID, st.integers(0, 3), st.integers(0, 3))
@example([[0]], [[0, 0], [0, 0]], 2, 1)
@example([[Q(1, 2), 0], [0, 0]], [[Q(1, 2)]], 0, 3)
def test_shape_queries_equality_and_hash_ignore_zero_padding(grid, other, rows, cols):
    # Zero rows and columns padded onto a grid change neither the shape
    # queries, which must match a scan of coeffs, nor == and hash.
    p = BivariatePoly(grid)
    padded = BivariatePoly(
        [list(row) + [0] * cols for row in p.coeffs] + [[0] * (p.ncols + cols)] * rows
    )
    for q in (p, padded):
        cells = _nonzero_cells(q)
        assert q.degree_x() == max((i for i, _ in cells), default=-1)
        assert q.degree_y() == max((j for _, j in cells), default=-1)
        assert q.is_zero() == (not cells)
        assert q.is_constant() == all(i == j == 0 for i, j in cells)
    assert padded == p and hash(padded) == hash(p)
    q = BivariatePoly(other)
    assert (q == p) == (_trimmed_fractions(q) == _trimmed_fractions(p))
