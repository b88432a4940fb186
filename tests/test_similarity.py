import random
from fractions import Fraction as Q

import pytest

from jordankron import (
    BivariatePoly,
    BlockToeplitzUT,
    RationalMatrix,
    reduce_bidiagonal,
    reduce_shifted,
)
from jordankron.exactmat import jordan_block, kron
from jordankron.generic import pair_prediction
from jordankron.similarity import (
    NonzeroLowOrderError,
    SingularA1Error,
    SingularArError,
    _assemble_block_grid,
)
from helpers import (
    full_transform,
    matrix_power,
    random_block_toeplitz,
    random_ring_row,
    weyr_structure,
)


def test_block_container_validation():
    with pytest.raises(ValueError):
        BlockToeplitzUT([[1, 2], [3]])
    z = BlockToeplitzUT([[1, 2], [0, 5]])
    assert z.block_count == 2 and z.block_size == 2
    assert z.to_matrix() == RationalMatrix(
        [[1, 2, 0, 5], [0, 1, 0, 0], [0, 0, 1, 2], [0, 0, 0, 1]]
    )


def test_block_grid_matches_fraction_construction():
    # Integer rows over the lcm of the grid's denominators against the
    # matrix built from its Fraction entries, with zero blocks (None) and
    # fractional first rows.
    rng = random.Random(167)
    for _ in range(300):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        grid = [
            [None if rng.random() < 0.3 else tuple(
                Q(rng.randint(-4, 4), rng.randint(1, 6)) for _ in range(n))
             for _ in range(m)]
            for _ in range(m)
        ]
        dense = [[Q(0)] * (m * n) for _ in range(m * n)]
        for bi in range(m):
            for bj in range(m):
                if grid[bi][bj] is not None:
                    for i in range(n):
                        for j in range(i, n):
                            dense[bi * n + i][bj * n + j] = grid[bi][bj][j - i]
        assert _assemble_block_grid(grid, m, n) == RationalMatrix(dense)


def test_two_blocks_need_no_transform():
    rng = random.Random(131)
    z = random_block_toeplitz(rng, 2, 3)
    red = reduce_bidiagonal(z)
    assert red.transform == RationalMatrix.identity(6)
    zm = z.to_matrix()
    assert zm @ red.transform == red.transform @ red.target


def test_bidiagonal_reduction_residuals():
    rng = random.Random(137)
    for _ in range(20):
        m, n = rng.randint(2, 5), rng.randint(1, 5)
        z = random_block_toeplitz(rng, m, n)
        red = reduce_bidiagonal(z)
        zm = z.to_matrix()
        assert (zm @ red.transform - red.transform @ red.target).is_zero()
        assert (
            red.target @ red.scaling - red.scaling @ red.normal_form
        ).is_zero()
        full = full_transform(red)
        assert (zm @ full - full @ red.normal_form).is_zero()


def test_shifted_reduction_residuals():
    rng = random.Random(139)
    for _ in range(20):
        m = rng.randint(3, 5)
        r = rng.randint(2, m - 1)
        n = rng.randint(1, 4)
        z = random_block_toeplitz(rng, m, n, r=r)
        red = reduce_shifted(z, r)
        zm = z.to_matrix()
        assert (zm @ red.transform - red.transform @ red.target).is_zero()
        full = full_transform(red)
        assert (zm @ full - full @ red.normal_form).is_zero()


def test_shift_one_consistency():
    rng = random.Random(149)
    z = random_block_toeplitz(rng, 4, 3)
    a = reduce_bidiagonal(z)
    b = reduce_shifted(z, 1)
    assert a.transform == b.transform
    assert a.target == b.target


def test_transform_is_unit_upper_triangular():
    rng = random.Random(151)
    for _ in range(10):
        m, n = rng.randint(2, 5), rng.randint(1, 4)
        z = random_block_toeplitz(rng, m, n)
        x = reduce_bidiagonal(z).transform.data
        for i in range(len(x)):
            assert x[i][i] == 1
            for j in range(i):
                assert x[i][j] == 0
        # The first block row of X is a row of identity blocks.
        for i in range(n):
            for j in range(n, m * n):
                assert x[i][j] == 0


def test_reduction_preserves_weyr_structure():
    rng = random.Random(157)
    for _ in range(10):
        m, n = rng.randint(2, 4), rng.randint(1, 4)
        z = random_block_toeplitz(rng, m, n)
        zm = z.to_matrix()
        red = reduce_bidiagonal(z)
        shift = z.rows[0][0]
        assert weyr_structure(zm.shifted(shift)) == weyr_structure(
            red.normal_form.shifted(shift)
        )


def test_nonzero_low_order_rejected():
    rng = random.Random(163)
    rows = [
        random_ring_row(rng, 3),
        [Q(1), Q(0), Q(0)],
        random_ring_row(rng, 3, unit=True),
        random_ring_row(rng, 3),
    ]
    z = BlockToeplitzUT(rows)
    with pytest.raises(NonzeroLowOrderError):
        reduce_shifted(z, 2)


def test_singular_pivot_counterexample():
    # A_0 = N3^2, A_1 = 2 N3, A_2 = -2 I: the pivot block is singular and
    # the bidiagonal target is genuinely not similar to Z, witnessed by
    # W^2 != 0 = Z^2.
    z = BlockToeplitzUT([[0, 0, 1], [0, 2, 0], [-2, 0, 0]])
    with pytest.raises(SingularA1Error):
        reduce_bidiagonal(z)
    with pytest.raises(SingularArError):
        reduce_shifted(z, 1)
    w = BlockToeplitzUT(
        [[0, 0, 1], [1, 0, 0], [0, 0, 0]]
    ).to_matrix()
    zm = z.to_matrix()
    assert matrix_power(zm, 2).is_zero()
    assert not matrix_power(w, 2).is_zero()


def test_shifted_normal_form_matches_one_sided_formula():
    # The Jordan structure of I kron N_n^r + N_m kron I is what the
    # one-sided closed form predicts for p = x + y^r at the origin.
    for m, n, r in [(3, 4, 2), (2, 5, 3), (4, 3, 2), (3, 3, 3)]:
        mat = kron(
            RationalMatrix.identity(m), matrix_power(jordan_block(0, n), r)
        ) + kron(jordan_block(0, m), RationalMatrix.identity(n))
        grid = [[0] * (r + 1) for _ in range(2)]
        grid[1][0] = 1
        grid[0][r] = 1
        p = BivariatePoly(grid)  # x + y^r
        assert weyr_structure(mat) == pair_prediction(p, 0, m, 0, n).sizes
