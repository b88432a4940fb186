import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jordankron import (
    BivariatePoly,
    JordanSpec,
    RationalMatrix,
    UnivariatePoly,
    bezout_quotient,
    build_full,
    build_raw_kron,
    oracle_jcf_matrix,
)
from jordankron.bttb import (
    _offset_table,
    assemble_jordan_matrix,
    block_pair_nilpotent_rows,
    build_block_pair,
)
from jordankron.exactmat import jordan_block, kron
from jordankron.polyring import hasse_value_table
from helpers import (
    frechet_kronecker_form,
    frechet_kronecker_raw,
    h_poly,
    matrix_power,
    swap,
    weyr_structure,
    random_bivariate,
    random_spec_total,
    random_univariate,
    reference_hasse_value_table,
    univariate_at_matrix,
)

X_PLUS_Y = BivariatePoly([[0, 1], [1, 0]])


def kron_sum(m: int, n: int) -> RationalMatrix:
    return kron(jordan_block(0, m), RationalMatrix.identity(n)) + kron(
        RationalMatrix.identity(m), jordan_block(0, n)
    )


def test_block_pair_kronecker_sum():
    assert build_block_pair(X_PLUS_Y, 0, 2, 0, 2) == kron_sum(2, 2)


def test_block_pair_homogeneous_quartic():
    n4 = jordan_block(0, 4)
    direct = RationalMatrix.zeros(16, 16)
    for j in range(5):
        direct = direct + kron(matrix_power(n4, j), matrix_power(n4, 4 - j))
    assert build_block_pair(h_poly(4), 0, 4, 0, 4) == direct


def test_block_pair_diagonal_holds_value():
    rng = random.Random(31)
    p = random_bivariate(rng, 3, 3)
    lam, mu = Q(2, 3), Q(-1, 2)
    mat = build_block_pair(p, lam, 3, mu, 2)
    val = p.eval(lam, mu)
    for i in range(6):
        assert mat.data[i][i] == val


def test_block_pair_matches_raw_power_sum():
    rng = random.Random(37)
    for _ in range(15):
        p = random_bivariate(rng, 3, 3)
        lam, mu = Q(rng.randint(-2, 2)), Q(rng.randint(-2, 2))
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        assert build_block_pair(p, lam, m, mu, n) == build_raw_kron(
            p, JordanSpec.single(lam, m), JordanSpec.single(mu, n)
        )


def test_nilpotent_rows_match_scaled_shifted_build():
    rng = random.Random(43)
    for _ in range(40):
        # At least one coefficient is not an integer, at a random place.
        grid = [[Q(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(4)]
                for _ in range(4)]
        grid[rng.randint(0, 3)][rng.randint(0, 3)] = rng.randint(-3, 3) + Q(
            1, rng.randint(2, 6)
        )
        p = BivariatePoly(grid)
        lam = Q(rng.randint(-2, 2), rng.randint(1, 3))
        mu = Q(rng.randint(-2, 2), rng.randint(1, 3))
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        built = build_block_pair(p, lam, m, mu, n)
        # Row 0 holds the whole Hasse table, order (h, k) in column n*h + k.
        table = reference_hasse_value_table(p, lam, mu, m - 1, n - 1)
        assert built.data[0] == tuple(v for hrow in table for v in hrow)
        eig, rows = block_pair_nilpotent_rows(p, lam, m, mu, n)
        assert eig == p.eval(lam, mu)
        dense = built.shifted(p.eval(lam, mu)).num
        assert tuple(tuple(row.get(c, 0) for c in range(m * n)) for row in rows) == dense
        assert all(all(row.values()) for row in rows)


def test_block_pair_swap_has_same_weyr_structure():
    rng = random.Random(41)
    for _ in range(15):
        p = random_bivariate(rng, 3, 3)
        if p.is_constant():
            continue
        lam, mu = Q(rng.randint(-2, 2)), Q(rng.randint(-2, 2))
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        eig = p.eval(lam, mu)
        a = build_block_pair(p, lam, m, mu, n).shifted(eig)
        b = build_block_pair(swap(p), mu, n, lam, m).shifted(eig)
        assert weyr_structure(a) == weyr_structure(b)


def test_secant_shift_matrix_identity():
    # (J_m(lam) kron I - I kron J_n(mu)) (P - p(lam,mu) I)
    #   == phi(J_m(lam)) kron I - I kron phi(J_n(mu))
    # for p the difference quotient of f and phi the secant-shifted f.
    rng = random.Random(43)
    for _ in range(15):
        f = random_univariate(rng, max_deg=6)
        lam = Q(rng.randint(-2, 2))
        mu = Q(rng.randint(-2, 2))
        if lam == mu:
            mu = lam + 1
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        p = bezout_quotient(f)
        slope = (f(lam) - f(mu)) / (lam - mu)
        phi = f - UnivariatePoly([0, slope])
        jm, jn = jordan_block(lam, m), jordan_block(mu, n)
        im, i_n = RationalMatrix.identity(m), RationalMatrix.identity(n)
        lhs = (kron(jm, i_n) - kron(im, jn)) @ build_block_pair(
            p, lam, m, mu, n
        ).shifted(p.eval(lam, mu))
        rhs = kron(univariate_at_matrix(phi, jm), i_n) - kron(
            im, univariate_at_matrix(phi, jn)
        )
        assert lhs == rhs


def test_built_matrices_commute():
    rng = random.Random(47)
    for _ in range(10):
        p1 = random_bivariate(rng, 2, 2)
        p2 = random_bivariate(rng, 2, 2)
        lam, mu = Q(rng.randint(-1, 1)), Q(rng.randint(-1, 1))
        a = build_block_pair(p1, lam, 3, mu, 3)
        b = build_block_pair(p2, lam, 3, mu, 3)
        assert a @ b == b @ a


def test_build_full_examples():
    spec2 = JordanSpec.single(0, 2)
    assert build_full(X_PLUS_Y, spec2, spec2) == kron_sum(2, 2)
    p = BivariatePoly.from_string("0,1,-1;-2,1,0")
    x = JordanSpec([(0, 2), (1, 1)])
    y = JordanSpec([(2, 2), (3, 1)])
    full = build_full(p, x, y)
    assert full.rows == full.cols == 9
    ones = build_full(p, JordanSpec.single(1, 1), JordanSpec.single(3, 1))
    assert ones == RationalMatrix([[p.eval(1, 3)]])


def test_build_raw_kron_is_permutation_similar_to_direct_sum():
    rng = random.Random(53)
    for _ in range(6):
        p = random_bivariate(rng, 2, 2)
        if p.is_constant():
            continue
        x = random_spec_total(rng, max_total=4)
        y = random_spec_total(rng, max_total=4)
        eigs = [p.eval(lam, mu) for lam, _ in x.blocks for mu, _ in y.blocks]
        raw = build_raw_kron(p, x, y)
        direct = build_full(p, x, y)
        assert oracle_jcf_matrix(raw, eigs) == oracle_jcf_matrix(direct, eigs)


def test_frechet_kronecker_form_examples():
    f = UnivariatePoly([0, 0, 1])
    k = frechet_kronecker_form(f, JordanSpec.single(0, 2))
    assert weyr_structure(k) == (3, 1)

    linear = UnivariatePoly([4, 3])
    k1 = frechet_kronecker_form(linear, JordanSpec.single(2, 2))
    assert k1 == RationalMatrix.identity(4).scale(3)

    w5 = UnivariatePoly([0, 0, 0, 0, 0, 1])
    k5 = frechet_kronecker_form(w5, JordanSpec.single(0, 4))
    assert k5.rows == 16
    assert weyr_structure(k5) == (2, 2, 2) + (1,) * 10


def test_frechet_raw_matches_spec_build():
    rng = random.Random(59)
    for _ in range(8):
        f = random_univariate(rng, max_deg=5)
        spec = random_spec_total(rng, max_total=4)
        w = assemble_jordan_matrix(spec)
        raw = frechet_kronecker_raw(f, w)
        direct = frechet_kronecker_form(f, spec)
        eigs = {
            (f(lam) - f(mu)) / (lam - mu)
            if lam != mu
            else UnivariatePoly(f.coeffs).derivative()(lam)
            for lam, _ in spec.blocks
            for mu, _ in spec.blocks
        }
        assert oracle_jcf_matrix(raw, eigs) == oracle_jcf_matrix(direct, eigs)


def test_jordan_spec_canonical_order_and_json():
    spec = JordanSpec([(1, 1), (0, 2), (0, 3), (1, 4)])
    assert spec.blocks == ((Q(0), 3), (Q(0), 2), (Q(1), 4), (Q(1), 1))
    assert spec.total_size == 10
    again = JordanSpec.from_json(spec.to_json())
    assert again == spec
    parsed = JordanSpec.from_json('[{"eig":"1/2","size":3}]')
    assert parsed.blocks == ((Q(1, 2), 3),)
    with pytest.raises(ValueError):
        JordanSpec.from_json('{"eig":"0"}')
    for size in ("2.7", "2.0", "true", '"2"', "0", "-1", "null"):
        with pytest.raises(ValueError, match="size"):
            JordanSpec.from_json(f'[{{"eig":"0","size":{size}}}]')
    with pytest.raises(ValueError):
        JordanSpec([(0, 0)])


def test_jordan_spec_constructor_rejects_coerced_sizes():
    for size in (2.7, 2.0, True, "2", None, 0):
        with pytest.raises(ValueError, match="size"):
            JordanSpec([(0, size)])
    with pytest.raises(ValueError, match="size"):
        JordanSpec.single(1, 3.5)
    assert JordanSpec([(0, 2)]).blocks == ((Q(0), 2),)


def test_jordan_spec_needs_a_block():
    for make in (lambda: JordanSpec([]), lambda: JordanSpec.from_json("[]")):
        with pytest.raises(ValueError, match="at least one block"):
            make()


def test_jordan_spec_rejects_inexact_eigenvalues():
    for eig in (0.1, 2.0, True, False):
        with pytest.raises(ValueError):
            JordanSpec([(eig, 2)])
        with pytest.raises(ValueError):
            JordanSpec.single(eig, 2)
    assert JordanSpec([("1/10", 2), (Q(1, 2), 1)]).blocks == ((Q(1, 10), 2), (Q(1, 2), 1))


def test_assemble_jordan_matrix():
    spec = JordanSpec([(0, 2), (1, 1)])
    assert assemble_jordan_matrix(spec) == RationalMatrix(
        [[0, 1, 0], [0, 0, 0], [0, 0, 1]]
    )


COEFF = st.fractions(min_value=-3, max_value=3, max_denominator=3)
POINT = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.lists(COEFF, min_size=1, max_size=5), min_size=1, max_size=5),
    POINT, st.integers(1, 8), POINT, st.integers(1, 8),
)
def test_offset_table_from_the_definition_equals_the_hasse_table(grid, lam, m, mu, n):
    # The builders' table and the predictors' Hasse table are computed
    # apart, by powers of the blocks and by Taylor shifts; they must agree
    # value for value.
    p = BivariatePoly(grid)
    num, den = _offset_table(p, lam, m, mu, n)
    assert len(num) == m and all(len(row) == n for row in num)
    assert type(den) is int and den > 0
    ref, ref_den = hasse_value_table(p, lam, mu, m - 1, n - 1)
    assert [[Q(v, den) for v in row] for row in num] == [
        [Q(v, ref_den) for v in row] for row in ref
    ]
