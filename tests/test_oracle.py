import os
import random
import subprocess
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jordankron import (
    BivariatePoly,
    JordanSpec,
    JordanStructure,
    NotNilpotentError,
    RationalMatrix,
    WeyrConsistencyError,
    oracle_jcf,
    oracle_jcf_matrix,
)
from jordankron.exactmat import jordan_block
from jordankron.oracle import weyr_data, weyr_structure
from jordankron.polyring import h_poly
from jordankron.bttb import build_block_pair
from jordankron.exactmat import _scaled_int_rows
from jordankron.oracle import _nullity_chain, _sparse_rows, sizes_from_nullities
from helpers import conjugated, random_bivariate, random_spec_total, reference_nullities

X_PLUS_Y = BivariatePoly([[0, 1], [1, 0]])


def test_weyr_structure_single_block():
    assert weyr_structure(jordan_block(0, 3)) == (3,)


def test_weyr_structure_kronecker_sum():
    z = build_block_pair(X_PLUS_Y, 0, 2, 0, 2)
    assert weyr_structure(z) == (3, 1)


def test_weyr_structure_quartic():
    z = build_block_pair(h_poly(4), 0, 4, 0, 4)
    assert weyr_structure(z) == (2, 2, 2) + (1,) * 10


def test_weyr_rejects_non_nilpotent():
    with pytest.raises(NotNilpotentError):
        weyr_structure(RationalMatrix.identity(3))
    with pytest.raises(NotNilpotentError):
        # Nilpotent plus a 1x1 nonzero block.
        weyr_structure(RationalMatrix([[0, 1, 0], [0, 0, 0], [0, 0, 2]]))


def test_weyr_data_invariants():
    data = weyr_data(build_block_pair(h_poly(4), 0, 4, 0, 4))
    assert data.nullities[0] == 0
    assert data.nullities[-1] == data.dimension == 16
    diffs = [
        b - a for a, b in zip(data.nullities, data.nullities[1:])
    ]
    assert all(d > 0 for d in diffs)
    assert all(d2 <= d1 for d1, d2 in zip(diffs, diffs[1:]))


def test_oracle_jcf_examples():
    spec2 = JordanSpec.single(0, 2)
    assert oracle_jcf(X_PLUS_Y, spec2, spec2) == JordanStructure({0: [3, 1]})

    p = BivariatePoly.from_string("0,1,-1;-2,1,0")
    x = JordanSpec([(0, 2), (1, 1)])
    y = JordanSpec([(2, 2), (3, 1)])
    assert oracle_jcf(p, x, y) == JordanStructure(
        {-2: [2, 2, 2], -5: [1], -6: [2]}
    )

    n3 = JordanSpec.single(0, 3)
    p1 = BivariatePoly.from_string("0,0,1;0,2,0;-1,0,0")
    p2 = BivariatePoly.from_string("0,0,1;0,1,0;1,0,0")
    assert oracle_jcf(p1, n3, n3) == JordanStructure({0: [3, 2, 2, 1, 1]})
    assert oracle_jcf(p2, n3, n3) == JordanStructure({0: [3, 2, 1, 1, 1, 1]})


def test_oracle_dimension_conservation():
    rng = random.Random(61)
    for _ in range(20):
        p = random_bivariate(rng, 3, 3)
        x = random_spec_total(rng, max_total=5)
        y = random_spec_total(rng, max_total=5)
        result = oracle_jcf(p, x, y)
        assert result.dimension == x.total_size * y.total_size


def test_oracle_swap_invariance():
    rng = random.Random(67)
    for _ in range(15):
        p = random_bivariate(rng, 3, 3)
        x = random_spec_total(rng, max_total=4)
        y = random_spec_total(rng, max_total=4)
        assert oracle_jcf(p, x, y) == oracle_jcf(p.swap(), y, x)


def test_oracle_constant_shift_moves_eigenvalues_only():
    rng = random.Random(71)
    for _ in range(15):
        p = random_bivariate(rng, 3, 3)
        x = random_spec_total(rng, max_total=4)
        y = random_spec_total(rng, max_total=4)
        c = Q(rng.randint(-3, 3))
        base = oracle_jcf(p, x, y)
        shifted = oracle_jcf(p.plus_constant(c), x, y)
        assert shifted.entries == {
            eig + c: sizes for eig, sizes in base.entries.items()
        }


def test_oracle_merges_colliding_eigenvalues():
    # Two distinct pairs both map to eigenvalue 0 here.
    p = X_PLUS_Y
    x = JordanSpec([(1, 2)])
    y = JordanSpec([(-1, 2), (0, 1)])
    result = oracle_jcf(p, x, y)
    assert set(result.entries) == {Q(0), Q(1)}
    assert result.entries[Q(0)] == (3, 1)
    assert result.entries[Q(1)] == (2,)


def test_structure_json_roundtrip_and_order():
    s = JordanStructure({Q(1, 2): [1, 3, 2], Q(-2): [1]})
    obj = s.to_json_obj()
    assert obj["eigenvalues"][0]["eig"] == "-2"
    assert obj["eigenvalues"][1]["blocks"] == [3, 2, 1]
    assert JordanStructure.from_json(s.to_json()) == s
    decimal_eig = '{"eigenvalues": [{"eig": "0.5", "blocks": [1]}]}'
    for text in ('{"bad": 1}', "[" * 5000, decimal_eig):
        with pytest.raises(ValueError):
            JordanStructure.from_json(text)
    for size in ("2.7", "true", '"2"', "0"):
        with pytest.raises(ValueError, match="size"):
            JordanStructure.from_json(
                f'{{"eigenvalues": [{{"eig": "1", "blocks": [3, {size}]}}]}}'
            )


def test_structure_constructor_rejects_coerced_sizes():
    for sizes in ([2.9, True], [2.0], ["2"], [0], [3, -1]):
        with pytest.raises(ValueError, match="size"):
            JordanStructure({0: sizes})
        with pytest.raises(ValueError, match="size"):
            JordanStructure.from_pairs([(0, sizes)])
    assert JordanStructure({0: [1, 3], 1: []}).entries == {Q(0): (3, 1)}


def test_structure_equality_is_exact():
    a = JordanStructure({Q(1, 3): [2]})
    b = JordanStructure({Q(333333, 1000000): [2]})
    assert a != b


@st.composite
def conjugated_jordan(draw, eigs):
    """(spec, S J S^-1): a dense rational matrix with a known Jordan form."""
    blocks = draw(
        st.lists(st.tuples(eigs, st.integers(1, 4)), min_size=1, max_size=3)
    )
    spec = JordanSpec(blocks)
    dim = spec.total_size
    index = st.integers(0, dim - 1)
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool)
    ops = draw(
        st.lists(st.tuples(index, index, coeff), min_size=3 * dim, max_size=4 * dim)
    )
    return spec, conjugated(spec, ops)


@settings(max_examples=60, deadline=None)
@given(conjugated_jordan(st.just(Q(0))))
def test_image_chain_matches_dense_reference_on_nilpotent(case):
    spec, z = case
    data = weyr_data(z)
    assert list(data.nullities) == reference_nullities(_scaled_int_rows(z))
    assert weyr_structure(z) == tuple(sorted((s for _, s in spec.blocks), reverse=True))


@settings(max_examples=60, deadline=None)
@given(conjugated_jordan(st.sampled_from([Q(0), Q(-1), Q(1, 2), Q(2)])))
def test_image_chain_matches_dense_reference_on_shifted(case):
    spec, a = case
    if any(eig for eig, _ in spec.blocks):
        with pytest.raises(NotNilpotentError):
            weyr_structure(a)
        with pytest.raises(NotNilpotentError):
            reference_nullities(_scaled_int_rows(a))
    eigs = spec.eigenvalues()
    for eig in eigs:
        rows = _scaled_int_rows(a.shifted(eig))
        assert _nullity_chain(_sparse_rows(rows), strict=False) == (
            reference_nullities(rows, strict=False)
        )
    assert oracle_jcf_matrix(a, eigs) == JordanStructure.from_pairs(
        (eig, [size]) for eig, size in spec.blocks
    )


def test_sizes_from_nullities_rejects_inconsistent_sequences():
    assert sizes_from_nullities([0, 2, 3, 4], 4) == (3, 1)
    assert sizes_from_nullities([0, 2, 4, 4], 4) == (2, 2)
    with pytest.raises(WeyrConsistencyError, match="decreasing"):
        sizes_from_nullities([0, 3, 2, 4], 4)
    with pytest.raises(WeyrConsistencyError, match="negative block count"):
        sizes_from_nullities([0, 1, 3, 4], 4)
    with pytest.raises(WeyrConsistencyError, match="sum"):
        sizes_from_nullities([0, 2, 3], 4)


def test_consistency_checks_survive_optimized_mode():
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "from jordankron.oracle import WeyrConsistencyError, sizes_from_nullities\n"
        "from jordankron.toeplitz import InvalidSpecError, ToeplitzSpec, rho\n"
        "try:\n"
        "    sizes_from_nullities([0, 1, 3, 4], 4)\n"
        "except WeyrConsistencyError:\n"
        "    print('raised')\n"
        "for bad in ((2.5, 3, 1, 1, 2), (True, 3, 1, 1, 2), (2, 3.0, 1, 1, 2)):\n"
        "    for build in (rho, ToeplitzSpec):\n"
        "        try:\n"
        "            build(*bad)\n"
        "        except InvalidSpecError:\n"
        "            print('raised')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["raised"] * 7
