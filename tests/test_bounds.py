import random

import pytest

from jordankron import (
    UnivariatePoly,
    bezout_quotient,
    block_count_bounds,
    max_block_size_bound,
    scan_deficiencies,
)
from jordankron import frechet, generic
from jordankron.bttb import build_block_pair
from helpers import (
    filtration_dims,
    local_degree,
    matrix_power,
    random_degenerate_poly,
    weyr_structure,
)


def test_max_block_size_bound_examples():
    assert max_block_size_bound(3, 3, 2) == 3
    assert max_block_size_bound(4, 4, 4) == 2
    for m in range(1, 6):
        for n in range(1, 6):
            assert max_block_size_bound(m, n, m + n - 1) == 1
    with pytest.raises(ValueError):
        max_block_size_bound(2, 2, 0)


@pytest.mark.parametrize("bad", [True, 2.5, 2.0, "2"])
def test_library_entry_points_take_only_integer_parameters(bad):
    # Sizes, degrees and scan bounds are ints: a bool, a float or a string
    # raises ValueError rather than being coerced or failing later.
    f = UnivariatePoly([0, 0, 1])
    calls = [
        lambda: generic.pair_prediction(bezout_quotient(f), 0, bad, 1, 3),
        lambda: generic.pair_prediction(bezout_quotient(f), 0, 3, 1, bad),
        lambda: frechet.pair_prediction(f, 0, bad, 1, 3),
        lambda: frechet.pair_prediction(f, 0, 3, 0, bad),
        lambda: max_block_size_bound(bad, 3, 1),
        lambda: max_block_size_bound(2, 3, bad),
        lambda: block_count_bounds(2, bad, 1),
        lambda: block_count_bounds(2, 3, bad),
        lambda: scan_deficiencies(bad, 3, 1, 1),
        lambda: scan_deficiencies(3, 3, 1, bad),
    ]
    for call in calls:
        with pytest.raises(ValueError):
            call()


def test_block_count_bounds_examples():
    assert block_count_bounds(4, 4, 4) == (12, 16)
    assert block_count_bounds(3, 3, 2) == (5, 6)
    assert block_count_bounds(2, 5, 1) == (2, 5)
    assert block_count_bounds(5, 2, 1) == (2, 5)
    # At or past full local degree the matrix is scalar.
    assert block_count_bounds(3, 4, 6) == (12, 12)
    assert block_count_bounds(3, 4, 9) == (12, 12)


def test_filtration_dims_examples():
    u48 = filtration_dims(4, 8)
    assert u48.u(9) == 3 and u48.u(3) == 3
    u44 = filtration_dims(4, 4)
    assert (u44.u(5), u44.u(6), u44.u(7)) == (3, 2, 1)
    u1n = filtration_dims(1, 6)
    assert all(u1n.u(j) == 1 for j in range(1, 7))
    assert u1n.u(0) == 0 and u1n.u(99) == 0


def test_filtration_dims_sum_and_symmetry():
    for m in range(1, 13):
        for n in range(m, 13):
            fd = filtration_dims(m, n)
            assert sum(fd.dims) == m * n
            for j in range(1, m + n):
                assert fd.u(j) == fd.u(m + n - j)
    # Argument order is normalized away.
    assert filtration_dims(7, 3).dims == filtration_dims(3, 7).dims


def test_bounds_sandwich_on_random_degenerate_pairs():
    rng = random.Random(89)
    for _ in range(50):
        p = random_degenerate_poly(rng)
        m, n = rng.randint(2, 5), rng.randint(2, 5)
        d = local_degree(p, 0, 0)
        sizes = weyr_structure(
            build_block_pair(p, 0, m, 0, n).shifted(p.eval(0, 0))
        )
        lo, hi = block_count_bounds(m, n, d)
        assert lo <= len(sizes) <= hi
        assert sizes[0] <= max_block_size_bound(m, n, d)


def test_shifted_power_annihilates_low_antidiagonals():
    # The k-th power of the shifted pair matrix kills every basis vector
    # e_i kron f_j with i + j - 1 <= d*k; columns are indexed n*(i-1)+j.
    rng = random.Random(97)
    for _ in range(12):
        p = random_degenerate_poly(rng)
        m, n = rng.randint(2, 4), rng.randint(2, 4)
        d = local_degree(p, 0, 0)
        z = build_block_pair(p, 0, m, 0, n).shifted(p.eval(0, 0))
        top = max_block_size_bound(m, n, d)
        for k in range(1, top + 1):
            zk = matrix_power(z, k).data
            for i in range(1, m + 1):
                for j in range(1, n + 1):
                    if i + j - 1 <= d * k:
                        col = n * (i - 1) + (j - 1)
                        assert all(
                            zk[row][col] == 0 for row in range(m * n)
                        )
