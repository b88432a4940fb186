import contextlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction as Q
from operator import mul
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jordankron import (
    BivariatePoly,
    BlockToeplitzUT,
    JordanSpec,
    JordanStructure,
    NotNilpotentError,
    RationalMatrix,
    WeyrConsistencyError,
    oracle_jcf,
    oracle_jcf_matrix,
    reduce_shifted,
)
from jordankron import cli, oracle
from jordankron.exactmat import jordan_block
from jordankron.bttb import block_pair_nilpotent_rows, build_block_pair
from jordankron.jordan import sizes_from_nullities
from jordankron.oracle import _nullity_chain, _sparse_rows, oracle_pair
from helpers import (
    conjugated,
    h_poly,
    plus_constant,
    random_bivariate,
    random_spec_total,
    reference_nullities,
    reference_nullity_chain,
    swap,
    weyr_data,
    weyr_structure,
)

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
        assert oracle_jcf(p, x, y) == oracle_jcf(swap(p), y, x)


def test_oracle_constant_shift_moves_eigenvalues_only():
    rng = random.Random(71)
    for _ in range(15):
        p = random_bivariate(rng, 3, 3)
        x = random_spec_total(rng, max_total=4)
        y = random_spec_total(rng, max_total=4)
        c = Q(rng.randint(-3, 3))
        base = oracle_jcf(p, x, y)
        shifted = oracle_jcf(plus_constant(p, c), x, y)
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
    for blocks in ('"32"', "3", '{"3": 1}', "null", '""'):
        with pytest.raises(ValueError, match="bad Jordan structure JSON"):
            JordanStructure.from_json(
                f'{{"eigenvalues": [{{"eig": "0", "blocks": [1]}}, {{"eig": "1", "blocks": {blocks}}}]}}'
            )


def test_structure_constructor_rejects_coerced_sizes():
    for sizes in ([2.9, True], [2.0], ["2"], [0], [3, -1]):
        with pytest.raises(ValueError, match="size"):
            JordanStructure({0: sizes})
        with pytest.raises(ValueError, match="size"):
            JordanStructure.from_pairs([(0, sizes)])
    assert JordanStructure({0: [1, 3], 1: []}).entries == {Q(0): (3, 1)}
    # The error names the first bad size, in the order given.
    for sizes, first in (([3, 0, 2.5], "0"), ([4, True, -1], "True"), ((5,) * 9 + ("2",), "'2'")):
        with pytest.raises(ValueError, match=rf"must be an integer >= 1, got {first}$"):
            JordanStructure({1: sizes})


def test_oracle_pair_reports_the_eigenvalue_p_eval_gives():
    # The oracle reads each pair's eigenvalue off its offset table, apart
    # from BivariatePoly.eval, the reference.
    rng = random.Random(59)
    for _ in range(400):
        grid = [[Q(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(rng.randint(1, 4))]
                for _ in range(rng.randint(1, 4))]
        p = BivariatePoly(grid)
        lam = Q(rng.randint(-5, 5), rng.randint(1, 4))
        mu = Q(rng.randint(-5, 5), rng.randint(1, 4))
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        eig, sizes = oracle_pair(p, lam, m, mu, n)
        assert type(eig) is Q
        assert eig == p.eval(lam, mu)
        assert sum(sizes) == m * n


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
    assert list(data.nullities) == reference_nullities([list(row) for row in z.num])
    assert weyr_structure(z) == tuple(sorted((s for _, s in spec.blocks), reverse=True))


@settings(max_examples=60, deadline=None)
@given(conjugated_jordan(st.sampled_from([Q(0), Q(-1), Q(1, 2), Q(2)])))
def test_image_chain_matches_dense_reference_on_shifted(case):
    spec, a = case
    if any(eig for eig, _ in spec.blocks):
        with pytest.raises(NotNilpotentError):
            weyr_structure(a)
        with pytest.raises(NotNilpotentError):
            reference_nullities([list(row) for row in a.num])
    eigs = spec.eigenvalues()
    for eig in eigs:
        rows = [list(row) for row in a.shifted(eig).num]
        assert _nullity_chain(_sparse_rows(rows)) == (
            reference_nullities(rows, strict=False)
        )
    assert oracle_jcf_matrix(a, eigs) == JordanStructure.from_pairs(
        (eig, [size]) for eig, size in spec.blocks
    )


@st.composite
def sparse_int_rows(draw):
    """Sparse integer rows of a square matrix of dimension at most 12:
    strictly upper triangular (so nilpotent), such a matrix under an
    integer similarity (nilpotent with dense powers, whose products
    cancel), or general; with zero rows, negative leading entries and
    entries of 60 bits and more."""
    dim = draw(st.integers(0, 12))
    kind = draw(st.sampled_from(["upper", "similar", "general"]))
    # Small multiples of one magnitude cancel often in products.
    entry = st.builds(mul, st.integers(-3, 3).filter(bool), st.sampled_from([1, 2**64, 3**40]))
    rows = [[0] * dim for _ in range(dim)]
    for i in range(dim):
        cols = range(0 if kind == "general" else i + 1, dim)
        for c, x in (draw(st.dictionaries(st.sampled_from(cols), entry)) if cols else {}).items():
            rows[i][c] = x
    if kind == "similar" and dim > 1:
        # (I + c e_i e_j^T) Z (I - c e_i e_j^T), for i != j.
        index = st.integers(0, dim - 1)
        for i, j, c in draw(st.lists(st.tuples(index, index, st.integers(-2, 2)),
                                     max_size=2 * dim)):
            if i != j:
                rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
                for row in rows:
                    row[j] -= c * row[i]
    return [{c: x for c, x in enumerate(row) if x} for row in rows]


@settings(max_examples=200, deadline=None)
@given(sparse_int_rows(), st.randoms(use_true_random=False))
def test_one_pass_chain_matches_the_two_pass_reference(rows, rng):
    # The fused chain keeps the reference's basis, so its nullities are the
    # reference's; a permutation similarity P Z P^T keeps them too.
    copy = [dict(row) for row in rows]
    nullities = _nullity_chain(rows)
    assert rows == copy
    assert nullities == reference_nullity_chain(copy)
    perm = list(range(len(rows)))
    rng.shuffle(perm)
    new_index = {old: new for new, old in enumerate(perm)}
    permuted = [{new_index[c]: x for c, x in rows[old].items()} for old in perm]
    assert _nullity_chain(permuted) == nullities


def test_oracle_pair_rejects_non_nilpotent_rows(monkeypatch):
    # The shifted block pair is nilpotent by construction, so only a defect
    # in its rows reaches this check: here the rows of diag(1, 0, ...).
    def unit_corner(p, lam, m, mu, n):
        return Q(0), [{0: 1}] + [{} for _ in range(m * n - 1)]

    monkeypatch.setattr(oracle, "block_pair_nilpotent_rows", unit_corner)
    with pytest.raises(NotNilpotentError, match="below the dimension 4"):
        oracle_pair(X_PLUS_Y, 0, 2, 0, 2)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["check", "--p", "0,1;1,0", "--X", '[{"eig":"0","size":2}]',
                         "--Y", '[{"eig":"0","size":2}]'])
    assert code == 1 and err.getvalue() == ""
    doc = json.loads(out.getvalue())
    assert set(doc) == {"schema", "error"}
    assert "below the dimension 4" in doc["error"]


@pytest.mark.parametrize("bad", [True, 2.0, 2.5])
@pytest.mark.parametrize("call", [
    lambda v: oracle_pair(X_PLUS_Y, 0, v, 0, 2),
    lambda v: oracle_pair(X_PLUS_Y, 0, 2, 0, v),
    lambda v: block_pair_nilpotent_rows(X_PLUS_Y, 0, v, 0, 2),
    lambda v: build_block_pair(X_PLUS_Y, 0, 2, 0, v),
    lambda v: jordan_block(0, v),
    lambda v: reduce_shifted(BlockToeplitzUT([[1], [1], [1]]), v),
], ids=["oracle-m", "oracle-n", "nilpotent-rows", "block-pair", "jordan-block",
        "reduce-shifted"])
def test_integer_parameters_reject_bools_and_floats(call, bad):
    # None of them may truncate a float or read True as 1.
    with pytest.raises(ValueError):
        call(bad)


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
        "from jordankron.jordan import WeyrConsistencyError, sizes_from_nullities\n"
        "from jordankron.toeplitz import InvalidSpecError, hankel_rank, rank_row\n"
        "from jordankron.toeplitz import rho, sufficient_rank_drop\n"
        "try:\n"
        "    sizes_from_nullities([0, 1, 3, 4], 4)\n"
        "except WeyrConsistencyError:\n"
        "    print('raised')\n"
        "for bad in ((2.5, 3, 1, 1, 2), (True, 3, 1, 1, 2), (2, 3.0, 1, 1, 2)):\n"
        "    for build in (rho, sufficient_rank_drop):\n"
        "        try:\n"
        "            build(*bad)\n"
        "        except InvalidSpecError:\n"
        "            print('raised')\n"
        "for bad in ((2.5, 3, 1, 1), (True, 3, 1, 1), (2, 3.0, 1, 1), (0, 3, 1, 1),\n"
        "            (2, 3, 2, 2)):\n"
        "    for build in (rank_row, hankel_rank):\n"
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
    assert proc.stdout.split() == ["raised"] * 17


@pytest.mark.parametrize("bad", [0.1, 1.0, True])
def test_scalar_constructors_reject_floats_and_bools(bad):
    # A float is a binary fraction and a bool is not a number: neither may
    # become an eigenvalue or a matrix entry.
    with pytest.raises(ValueError):
        JordanStructure({bad: [1]})
    with pytest.raises(ValueError):
        JordanStructure.from_pairs([(bad, [1])])
    with pytest.raises(ValueError):
        oracle_jcf_matrix(RationalMatrix([[1]]), [1, bad])
    with pytest.raises(ValueError):
        BlockToeplitzUT([[Q(1, 2)], [bad]])
    assert JordanStructure({"1/2": [1]}) == JordanStructure.from_pairs([(Q(1, 2), [1])])
    assert BlockToeplitzUT([["1/2"], [1]]).rows == ((Q(1, 2),), (Q(1),))
