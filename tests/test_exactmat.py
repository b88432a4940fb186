import math
import random
import tracemalloc
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jordankron import RationalMatrix
from jordankron.exactmat import NotSquareError, direct_sum, jordan_block, kron

import helpers
from helpers import (
    matrix_power, nullity, rank, rank_int_rows, reference_rank_fraction, reference_rank_int
)


def random_rational(rng, rows, cols, bound=10, denominators=(1,)):
    return RationalMatrix(
        [
            [
                Q(rng.randint(-bound, bound), rng.choice(denominators))
                for _ in range(cols)
            ]
            for _ in range(rows)
        ]
    )


def vec_permutation(m: int, n: int) -> RationalMatrix:
    """Permutation with columns e_1, e_(n+1), ..., e_2, e_(n+2), ..."""
    dim = m * n
    cols = [i * n + j for j in range(n) for i in range(m)]
    data = [[0] * dim for _ in range(dim)]
    for c, r in enumerate(cols):
        data[r][c] = 1
    return RationalMatrix(data)


def test_jordan_block_examples():
    assert jordan_block(0, 2) == RationalMatrix([[0, 1], [0, 0]])
    assert jordan_block(5, 1) == RationalMatrix([[5]])
    assert jordan_block(1, 3) == RationalMatrix(
        [[1, 1, 0], [0, 1, 1], [0, 0, 1]]
    )
    with pytest.raises(ValueError):
        jordan_block(0, 0)


def test_kron_identity_block_structure():
    b = RationalMatrix([[1, 2], [3, 4]])
    assert kron(RationalMatrix.identity(2), b) == direct_sum([b, b])


def test_kron_nilpotent_corner():
    n2 = jordan_block(0, 2)
    assert rank(kron(n2, n2)) == 1


def test_kron_swap_via_permutation():
    rng = random.Random(2)
    for _ in range(10):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        a = random_rational(rng, m, m, 4)
        b = random_rational(rng, n, n, 4)
        pi = vec_permutation(m, n)
        assert pi.transpose() @ kron(a, b) @ pi == kron(b, a)


def test_rank_examples():
    assert rank(RationalMatrix.zeros(3, 4)) == 0
    assert rank(RationalMatrix([[2, 3, 4], [1, 2, 3], [0, 1, 2]])) == 2
    assert rank(RationalMatrix([[1, 1], [1, 1]])) == 1


def test_rank_transpose_invariance():
    rng = random.Random(4)
    for _ in range(20):
        a = random_rational(rng, rng.randint(1, 5), rng.randint(1, 5), 6)
        assert rank(a) == rank(a.transpose())


def test_rank_kron_multiplicative():
    rng = random.Random(6)
    for _ in range(12):
        a = random_rational(rng, rng.randint(1, 5), rng.randint(1, 5), 4)
        b = random_rational(rng, rng.randint(1, 5), rng.randint(1, 5), 4)
        assert rank(kron(a, b)) == rank(a) * rank(b)


def test_rank_paths_cross_check():
    # The fraction-free integer path and the pivoted rational path must
    # agree entry for entry on random 8x8 instances.
    rng = random.Random(8)
    for _ in range(15):
        data = [
            [rng.randint(-10, 10) for _ in range(8)] for _ in range(8)
        ]
        if rng.random() < 0.5:
            # Force linear dependence to exercise nontrivial kernels.
            data[5] = [3 * a - 2 * b for a, b in zip(data[0], data[1])]
        r_int = rank_int_rows([row[:] for row in data])
        r_frac = reference_rank_fraction([[Q(e) for e in row] for row in data])
        assert r_int == r_frac
        assert rank(RationalMatrix(data)) == r_int


def test_rank_paths_cross_check_rational_entries():
    rng = random.Random(9)
    for _ in range(10):
        a = random_rational(rng, 6, 6, 8, denominators=(1, 2, 3, 5))
        scaled = [
            [e.numerator * (30 // e.denominator) for e in row] for row in a.data
        ]
        assert rank(a) == rank_int_rows(scaled)
        assert rank(a) == reference_rank_fraction([list(row) for row in a.data])


@st.composite
def low_rank_int_rows(draw):
    """A product of random integer factors, so its rank is at most the inner
    dimension, then column by column: left alone, zeroed, scaled so that it
    holds no unit, or given a unit entry."""
    nrows = draw(st.integers(1, 7))
    ncols = draw(st.integers(1, 7))
    inner = draw(st.integers(0, min(nrows, ncols)))
    entry = st.integers(-5, 5)
    left = draw(st.lists(st.lists(entry, min_size=inner, max_size=inner),
                         min_size=nrows, max_size=nrows))
    right = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                          min_size=inner, max_size=inner))
    rows = [
        [sum(left[i][t] * right[t][j] for t in range(inner)) for j in range(ncols)]
        for i in range(nrows)
    ]
    units = 0
    for j in range(ncols):
        kind = draw(st.sampled_from(("plain", "zero", "no-unit", "unit")))
        if kind == "zero":
            for row in rows:
                row[j] = 0
        elif kind == "no-unit":
            factor = draw(st.integers(2, 4))
            for row in rows:
                row[j] *= factor
        elif kind == "unit":
            rows[draw(st.integers(0, nrows - 1))][j] = draw(st.sampled_from((-1, 1)))
            units += 1
    return rows, inner + units


@settings(max_examples=400, deadline=None)
@given(low_rank_int_rows())
def test_echelon_kernel_matches_bareiss_and_rational_kernels(case):
    rows, rank_bound = case
    r = rank_int_rows([row[:] for row in rows])
    assert r == reference_rank_int([row[:] for row in rows])
    assert r == reference_rank_fraction([[Q(e) for e in row] for row in rows])
    assert r <= min(rank_bound, len(rows), len(rows[0]))
    transposed = [list(col) for col in zip(*rows)]
    assert rank_int_rows(transposed) == r


def test_echelon_kernel_keeps_entries_small():
    # Dividing each new row by the gcd of its entries keeps them the size of
    # minors of the input, as Bareiss' exact division does; without it the
    # entries grow with every step.  7-digit entries give no unit pivots.
    rng = random.Random(3)
    rows = [[rng.randint(10**6, 10**7) for _ in range(30)] for _ in range(30)]

    def peak(kernel):
        data = [row[:] for row in rows]
        tracemalloc.start()
        try:
            assert kernel(data) == 30
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(rank_int_rows) < 3.5 * peak(reference_rank_int)


def test_nilpotent_power_nullity():
    for n in range(1, 7):
        for r in range(0, n + 3):
            a = matrix_power(jordan_block(0, n), r)
            assert nullity(a) == min(r, n)


def test_matrix_power_examples():
    n3 = jordan_block(0, 3)
    sq = matrix_power(n3, 2)
    assert sq == RationalMatrix([[0, 0, 1], [0, 0, 0], [0, 0, 0]])
    assert matrix_power(n3, 3).is_zero()
    # Largest Jordan block of this Kronecker sum has size 3, so the square
    # survives and the cube vanishes.
    ksum = kron(jordan_block(0, 2), RationalMatrix.identity(2)) + kron(
        RationalMatrix.identity(2), jordan_block(0, 2)
    )
    assert not matrix_power(ksum, 2).is_zero()
    assert matrix_power(ksum, 3).is_zero()
    with pytest.raises(NotSquareError):
        matrix_power(RationalMatrix([[1, 2]]), 2)


def test_direct_sum_examples():
    a = RationalMatrix([[7]])
    assert direct_sum([a]) == a
    two = direct_sum([RationalMatrix([[1]]), RationalMatrix([[2]])])
    assert two == RationalMatrix([[1, 0], [0, 2]])
    b = RationalMatrix.identity(3)
    assert direct_sum([a, b]).rows == 4


def test_dump_format():
    a = RationalMatrix([[Q(1, 2), 3], [0, Q(-5, 7)]])
    assert a.dump() == "1/2 3\n0 -5/7"
    assert RationalMatrix([[1, -2]]).dump() == "1 -2"


def test_shifted_subtracts_scalar_diagonal():
    a = RationalMatrix([[3, 1], [0, 3]])
    assert a.shifted(3) == RationalMatrix([[0, 1], [0, 0]])
    with pytest.raises(NotSquareError):
        RationalMatrix([[1, 2, 3]]).shifted(1)


def test_entries_must_be_exact():
    # 0.1 and 0.3 are binary floats, not 1/10 and 3/10: read as Fractions
    # they would make this rank-1 matrix rank 2.
    assert rank(RationalMatrix([["1/10", "3/10"], [1, 3]])) == 1
    for bad in (0.1, 2.0, True, False):
        with pytest.raises(ValueError):
            RationalMatrix([[bad, 0], [1, 3]])
    a = RationalMatrix([[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        a.scale(0.5)
    with pytest.raises(ValueError):
        a.shifted(True)
    with pytest.raises(ValueError):
        jordan_block(0.5, 2)


def test_canonical_form_examples():
    a = RationalMatrix([[Q(1, 2), Q(1, 3)], [0, 1]])
    assert (a.num, a.den) == (((3, 2), (0, 6)), 6)
    assert a.data == ((Q(1, 2), Q(1, 3)), (Q(0), Q(1)))
    half = RationalMatrix([[Q(1, 2), Q(1, 2)]])
    assert half + half == RationalMatrix([[1, 1]])
    assert (half + half).den == 1
    assert (half - half).den == 1 and (half - half).is_zero()
    assert RationalMatrix.zeros(2, 3).den == 1
    assert RationalMatrix([[Q(4, 2)]]).num == ((2,),)


ENTRY = st.fractions(min_value=-6, max_value=6, max_denominator=6)


@st.composite
def matrices(draw, rows=None, cols=None):
    rows = rows or draw(st.integers(1, 4))
    cols = cols or draw(st.integers(1, 4))
    entry = draw(st.sampled_from((st.integers(-6, 6), ENTRY, st.just(0))))
    return RationalMatrix(
        draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                      min_size=rows, max_size=rows))
    )


def assert_canonical(a):
    assert a.den > 0
    g = a.den
    for row in a.num:
        assert all(type(x) is int for x in row)
        g = math.gcd(g, *row)
    assert g == 1
    assert (a.rows, a.cols) == (len(a.num), len(a.num[0]))


@st.composite
def operation_cases(draw):
    r, k, c = (draw(st.integers(1, 4)) for _ in range(3))
    a, b = draw(matrices(r, c)), draw(matrices(r, c))
    sq = draw(matrices(r, r))
    left, right = draw(matrices(r, k)), draw(matrices(k, c))
    blocks = [draw(matrices(n, n)) for n in draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))]
    scalar = draw(ENTRY)
    return a, b, sq, left, right, blocks, scalar, k


@settings(max_examples=100, deadline=None)
@given(operation_cases())
def test_operations_match_entrywise_fraction_reference(case):
    a, b, sq, left, right, blocks, c, k = case
    pairs = [
        (a + b, helpers.ref_add(a.data, b.data)),
        (a - b, helpers.ref_sub(a.data, b.data)),
        (-a, helpers.ref_neg(a.data)),
        (left @ right, helpers.ref_matmul(left.data, right.data)),
        (a.scale(c), helpers.ref_scale(a.data, c)),
        (sq.shifted(c), helpers.ref_shifted(sq.data, c)),
        (a.transpose(), helpers.ref_transpose(a.data)),
        (RationalMatrix.zeros(a.rows, k), helpers.ref_zeros(a.rows, k)),
        (RationalMatrix.identity(k), helpers.ref_identity(k)),
        (kron(a, right), helpers.ref_kron(a.data, right.data)),
        (direct_sum(blocks), helpers.ref_direct_sum([blk.data for blk in blocks])),
        (jordan_block(c, k), helpers.ref_jordan_block(c, k)),
    ]
    for got, want in pairs:
        assert_canonical(got)
        assert got.data == want
        assert got == RationalMatrix(want)
    assert a.is_zero() == all(not e for row in a.data for e in row)


@settings(max_examples=150, deadline=None)
@given(matrices(), matrices())
def test_equality_and_hash_agree_with_entries(a, b):
    assert_canonical(a)
    same = a.data == b.data
    assert (a == b) is same
    if same:
        assert hash(a) == hash(b)
    # Writing the same entries another way gives the same value.
    twin = RationalMatrix([[str(e) for e in row] for row in a.data])
    assert twin == a and hash(twin) == hash(a)
    assert RationalMatrix(a.data) == a
