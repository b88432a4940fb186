"""A differential on tiny specs: every route to the Jordan structure of
P(X, Y) must give the same answer.

The witnesses are both predictors, the oracle on its block pairs, the
oracle on the literal Kronecker build and on a random permutation of it,
and, where sympy is installed, sympy's ``Matrix.jordan_form`` of the
literal build, which shares no code with the package.  Specs have total
dimension at most 12, where every witness is quick.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jordankron import (
    BivariatePoly,
    DegenerateCaseError,
    JordanSpec,
    JordanStructure,
    RationalMatrix,
    UnivariatePoly,
    bezout_quotient,
    build_raw_kron,
    frechet_jcf,
    oracle_jcf,
    oracle_jcf_matrix,
    predict_generic,
)

from helpers import block_pairs

MAX_DIM = 12
EIGS = st.sampled_from(
    [Fraction(v) for v in (-2, -1, 0, 1, 2)] + [Fraction(1, 2), Fraction(-2, 3)]
)
COEFFS = st.lists(st.integers(-3, 3), min_size=1, max_size=6)


@st.composite
def specs(draw, max_total):
    """A spec of one to three blocks whose sizes sum to at most max_total."""
    blocks, budget = [], max_total
    while budget and len(blocks) < 3 and (not blocks or draw(st.booleans())):
        size = draw(st.integers(1, budget))
        blocks.append((draw(EIGS), size))
        budget -= size
    return JordanSpec(blocks)


@st.composite
def spec_pairs(draw):
    """Specs X and Y with total dimension at most MAX_DIM, and a permutation
    of that many indices."""
    x = draw(specs(MAX_DIM))
    y = draw(specs(MAX_DIM // x.total_size))
    return x, y, draw(st.permutations(range(x.total_size * y.total_size)))


@st.composite
def bivariates(draw):
    """A polynomial of degree at most 3 in each variable, integer or with
    denominators up to 3."""
    dx, dy = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    return BivariatePoly(
        [[draw(coeff) for _ in range(dy + 1)] for _ in range(dx + 1)]
    )


def _matrix_witnesses(p, x, y, perm) -> JordanStructure:
    """The oracle's structure, after checking it against the oracle on the
    literal Kronecker build A and on Q A Q^T for the permutation Q."""
    truth = oracle_jcf(p, x, y)
    raw = build_raw_kron(p, x, y)
    eigs = {p.eval(lam, mu) for lam, _, mu, _ in block_pairs(x, y)}
    assert oracle_jcf_matrix(raw, eigs) == truth
    data = raw.data
    permuted = RationalMatrix([[data[i][j] for j in perm] for i in perm])
    assert oracle_jcf_matrix(permuted, eigs) == truth
    return truth


def _generic_if_defined(p, x, y):
    """predict_generic, or None when p is constant or a pair is degenerate."""
    if p.is_constant():
        return None
    try:
        return predict_generic(p, x, y)
    except DegenerateCaseError:
        return None


@settings(max_examples=100, deadline=None)
@given(COEFFS, spec_pairs())
def test_derivative_mode_witnesses_agree(coeffs, case):
    x, y, perm = case
    f = UnivariatePoly(coeffs)
    p = bezout_quotient(f)
    truth = _matrix_witnesses(p, x, y, perm)
    assert frechet_jcf(f, x, y) == truth
    generic = _generic_if_defined(p, x, y)
    assert generic is None or generic == truth


@settings(max_examples=100, deadline=None)
@given(bivariates(), spec_pairs())
def test_generic_mode_witnesses_agree(p, case):
    x, y, perm = case
    truth = _matrix_witnesses(p, x, y, perm)
    generic = _generic_if_defined(p, x, y)
    assert generic is None or generic == truth


def _sympy_structure(a: RationalMatrix) -> JordanStructure:
    """The Jordan structure of a by sympy's ``jordan_form``: a block ends
    where the superdiagonal of J holds 0."""
    import sympy

    mat = sympy.Matrix([[sympy.Rational(v, a.den) for v in row] for row in a.num])
    _, j = mat.jordan_form()
    blocks, start = [], 0
    for i in range(1, a.rows + 1):
        if i == a.rows or j[i - 1, i] == 0:
            eig = j[start, start]
            assert eig.is_Rational
            blocks.append((Fraction(int(eig.p), int(eig.q)), [i - start]))
            start = i
    return JordanStructure.from_pairs(blocks)


@settings(max_examples=40, deadline=None)
@given(st.one_of(COEFFS.map(UnivariatePoly), bivariates()), spec_pairs())
def test_sympy_jordan_form_agrees_with_the_oracle(poly, case):
    pytest.importorskip("sympy")
    x, y, _ = case
    p = bezout_quotient(poly) if isinstance(poly, UnivariatePoly) else poly
    truth = oracle_jcf(p, x, y)
    assert _sympy_structure(build_raw_kron(p, x, y)) == truth
    if isinstance(poly, UnivariatePoly):
        assert frechet_jcf(poly, x, y) == truth
