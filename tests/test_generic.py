import random
import tracemalloc
from fractions import Fraction as Q

import pytest
from hypothesis import given
from hypothesis import strategies as st

from jordankron import (
    INFINITE,
    BivariatePoly,
    ConstantPolynomialError,
    DegenerateCaseError,
    JordanSpec,
    JordanStructure,
    oracle_jcf,
    predict_generic,
)
from jordankron.bounds import PairBounds
from jordankron.exactmat import jordan_block
from jordankron.generic import (
    _staircase_sizes,
    euclid_partition,
    kronecker_sum_sizes,
    pair_prediction,
)
from helpers import matrix_power, random_bivariate, random_spec_total, swap, weyr_structure

X_PLUS_Y = BivariatePoly([[0, 1], [1, 0]])


def test_kronecker_sum_sizes_examples():
    assert kronecker_sum_sizes(2, 2) == (3, 1)
    assert kronecker_sum_sizes(1, 7) == (7,)
    assert kronecker_sum_sizes(4, 3) == (6, 4, 2)
    assert kronecker_sum_sizes(3, 4) == (6, 4, 2)


@pytest.mark.parametrize("func, args", [
    (kronecker_sum_sizes, (True, 3)),
    (kronecker_sum_sizes, (3, 2.0)),
    (kronecker_sum_sizes, (0, 3)),
    (euclid_partition, (True, 1)),
    (euclid_partition, (5, 2.0)),
    (euclid_partition, (4.0, 2)),
    (euclid_partition, (4, True)),
    (euclid_partition, (4, 0)),
    (euclid_partition, (0, INFINITE)),
])
def test_staircase_helpers_reject_non_integer_sizes_and_orders(func, args):
    # A size is an int >= 1 and an order an int >= 1 or INFINITE: bools and
    # integral floats are rejected, not read as numbers.
    with pytest.raises(ValueError):
        func(*args)


def test_euclid_partition_power_examples():
    # The block sizes of the r-th power of a nilpotent block of size n.
    assert euclid_partition(4, 2) == (2, 2)
    assert euclid_partition(5, 2) == (3, 2)
    assert euclid_partition(3, 5) == (1, 1, 1)


_partitions = st.builds(
    euclid_partition, st.integers(1, 40), st.integers(1, 45) | st.just(INFINITE)
)


@given(st.one_of(st.tuples(st.integers(1, 40)), _partitions), _partitions)
def test_staircase_sizes_equal_the_per_pair_loop(parts_a, parts_b):
    # Summing each distinct pair of parts once, times its multiplicities,
    # must give what summing every pair of parts gives: (m,) against a
    # partition, and a partition against a partition, either way round.
    for a, b in ((parts_a, parts_b), (parts_b, parts_a)):
        want = sorted((s for x in a for y in b for s in kronecker_sum_sizes(x, y)),
                      reverse=True)
        assert _staircase_sizes(a, b) == tuple(want)


def test_euclid_partition_matches_oracle():
    for n in range(1, 7):
        for r in range(1, n + 3):
            predicted = euclid_partition(n, r)
            actual = weyr_structure(matrix_power(jordan_block(0, n), r))
            assert predicted == actual


def branch(p, lam, m, mu, n):
    return pair_prediction(p, lam, m, mu, n).branch


def test_classify_examples():
    assert branch(X_PLUS_Y, 0, 3, 0, 2) == "both-nonzero"
    p = BivariatePoly.from_string("0,1,-1;-2,1,0")
    assert branch(p, 0, 2, 2, 2) == "px-zero"
    assert branch(swap(p), 2, 2, 0, 2) == "py-zero"
    sq = BivariatePoly.from_string("0,0,1;0,1,0;1,0,0")
    assert branch(sq, 0, 3, 0, 3) == "degenerate"
    assert branch(sq, 0, 1, 0, 3) == "size-one-escape"
    assert branch(sq, 0, 3, 0, 1) == "size-one-escape"
    with pytest.raises(ConstantPolynomialError):
        pair_prediction(BivariatePoly([[5]]), 0, 2, 0, 2)


def test_generic_pair_sizes_examples():
    assert pair_prediction(X_PLUS_Y, 0, 2, 0, 2).sizes == (3, 1)
    # All pure-y derivatives vanish below order n, so r = n and the pair
    # contributes n blocks of size m.
    p = BivariatePoly([[0, 0, 0, 1], [1, 0, 0, 0]])  # x + y^3
    assert pair_prediction(p, 0, 2, 0, 3).sizes == (2, 2, 2)


def test_generic_pair_degenerate_error_payload():
    sq = BivariatePoly.from_string("0,0,1;0,1,0;1,0,0")
    pred = pair_prediction(sq, 0, 3, 0, 3)
    assert (pred.lam, pred.mu, pred.m, pred.n) == (Q(0), Q(0), 3, 3)
    assert pred.sizes == ()
    assert pred.bounds == PairBounds(
        local_degree=2, max_block_size=3, count_lower=5, count_upper=6
    )
    with pytest.raises(DegenerateCaseError) as info:
        predict_generic(sq, JordanSpec.single(0, 3), JordanSpec.single(0, 3))
    assert info.value.prediction == pred
    assert str(info.value) == (
        "no closed form for the pair at (0, 0) with sizes (3, 3); local degree 2, "
        "block sizes <= 3, block count in [5, 6]"
    )


def test_large_pair_memory_is_bounded_by_the_degree():
    # The Hasse table is sized by the degree of p, not by the block sizes:
    # an m x n table of Fractions at m = n = 2000 would take tens of MB.
    spec = JordanSpec.single(1, 2000)
    cases = (("3,2,2;3,3,0;1,0,0", "both-nonzero"), ("0,1;-2;1", "px-zero"))
    for text, branch_name in cases:
        p = BivariatePoly.from_string(text)
        assert branch(p, 1, 2000, 1, 2000) == branch_name
        tracemalloc.start()
        try:
            predict_generic(p, spec, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, (text, peak)


def test_predict_generic_mixed_example():
    p = BivariatePoly.from_string("0,1,-1;-2,1,0")
    x = JordanSpec([(0, 2), (1, 1)])
    y = JordanSpec([(2, 2), (3, 1)])
    assert predict_generic(p, x, y) == JordanStructure(
        {-2: [2, 2, 2], -5: [1], -6: [2]}
    )


def test_predict_generic_all_unit_blocks():
    p = BivariatePoly.from_string("0,1;1,1")
    x = JordanSpec([(0, 1), (2, 1)])
    y = JordanSpec([(1, 1), (3, 1)])
    result = predict_generic(p, x, y)
    assert result.dimension == 4
    assert all(sizes == (1,) * len(sizes) for sizes in result.entries.values())


def test_predict_generic_propagates_degenerate():
    sq = BivariatePoly.from_string("0,0,1;0,1,0;1,0,0")
    with pytest.raises(DegenerateCaseError):
        predict_generic(sq, JordanSpec.single(0, 3), JordanSpec.single(0, 3))


def test_generic_matches_oracle_on_random_nondegenerate():
    rng = random.Random(73)
    checked = 0
    while checked < 150:
        p = random_bivariate(rng, 3, 3)
        if p.is_constant():
            continue
        x = random_spec_total(rng, max_total=6)
        y = random_spec_total(rng, max_total=6)
        try:
            predicted = predict_generic(p, x, y)
        except DegenerateCaseError:
            continue
        assert predicted == oracle_jcf(p, x, y)
        checked += 1


def test_pair_sizes_sum_to_mn():
    rng = random.Random(79)
    checked = 0
    while checked < 80:
        p = random_bivariate(rng, 3, 3)
        if p.is_constant():
            continue
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        lam, mu = Q(rng.randint(-2, 2)), Q(rng.randint(-2, 2))
        pred = pair_prediction(p, lam, m, mu, n)
        if pred.branch == "degenerate":
            continue
        assert sum(pred.sizes) == m * n
        checked += 1


def test_generic_with_fractional_coefficients_and_eigenvalues():
    rng = random.Random(191)
    eigs = [Q(1, 2), Q(-1, 3), Q(0), Q(2, 5)]
    checked = 0
    while checked < 40:
        p = BivariatePoly(
            [
                [Q(rng.randint(-3, 3), rng.choice([1, 2, 3])) for _ in range(3)]
                for _ in range(3)
            ]
        )
        if p.is_constant():
            continue
        x = JordanSpec([(rng.choice(eigs), rng.randint(1, 3))])
        y = JordanSpec([(rng.choice(eigs), rng.randint(1, 3))])
        try:
            predicted = predict_generic(p, x, y)
        except DegenerateCaseError:
            continue
        assert predicted == oracle_jcf(p, x, y)
        checked += 1


def test_both_nonzero_output_symmetric():
    for m in range(1, 7):
        for n in range(1, 7):
            assert kronecker_sum_sizes(m, n) == kronecker_sum_sizes(n, m)


def test_unit_order_reduces_to_plain_kronecker_sum():
    # A first-order r collapses the one-sided formula onto the plain
    # staircase: the power partition of n by 1 is the single part {n}.
    for m in range(1, 6):
        for n in range(1, 6):
            via_power = []
            for s in euclid_partition(n, 1):
                via_power.extend(kronecker_sum_sizes(m, s))
            assert tuple(sorted(via_power, reverse=True)) == tuple(
                sorted(kronecker_sum_sizes(m, n), reverse=True)
            )


def test_size_one_escape_agrees_with_oracle_and_formula():
    # Doubly critical points with a size-1 block on either side: the
    # escape route, the one-sided formula, and the oracle must agree.
    rng = random.Random(83)
    checked = 0
    while checked < 40:
        grid = [
            [rng.randint(-2, 2) for _ in range(4)] for _ in range(4)
        ]
        grid[0][1] = grid[1][0] = 0
        p = BivariatePoly(grid)
        if p.is_constant():
            continue
        n = rng.randint(1, 4)
        x = JordanSpec.single(0, 1)
        y = JordanSpec.single(0, n)
        assert branch(p, 0, 1, 0, n) in (
            "size-one-escape",
            "px-zero",
            "py-zero",
            "both-nonzero",
        )
        assert predict_generic(p, x, y) == oracle_jcf(p, x, y)
        # Transposed arrangement exercises the n = 1 escape.
        assert predict_generic(p, y, x) == oracle_jcf(p, y, x)
        checked += 1
