"""Jordan structure of the derivative of a polynomial matrix function.

The derivative of ``A -> f(A)`` in Kronecker form corresponds to the
bivariate difference quotient ``(f(x) - f(y)) / (x - y)``, and that rigid
shape admits a complete answer, block pair by block pair:

* distinct eigenvalues lam != mu: shift f by the secant slope, read off
  the first surviving derivative orders k at lam and h at mu, split m and
  n by Euclidean division into partitions driven by k and h, and emit a
  Kronecker-sum staircase for every pair of parts; the eigenvalue is the
  secant slope itself;
* equal eigenvalues: shift f by the tangent slope, let d be the
  multiplicity of lam as a root of the shifted derivative, and count
  blocks through the nullity sequence of the powers of the h_d matrix on
  nilpotent blocks, obtained by summing banded Toeplitz ranks from
  :mod:`jordankron.toeplitz`; the eigenvalue is the tangent slope.

Linear or constant f degenerates to identity-multiple matrices and is
answered with all-size-1 blocks rather than an error.
"""

from __future__ import annotations

from fractions import Fraction

from .bttb import JordanSpec, block_pairs
from .generic import PairPrediction, kronecker_sum_sizes
from .oracle import JordanStructure, sizes_from_nullities
from .polyring import (
    INFINITE,
    RationalLike,
    UnivariatePoly,
    exact_rational,
    root_multiplicity,
    univariate_hasse_eval,
)
from .toeplitz import rank_row


class EqualEigenvaluesError(ValueError):
    """The two eigenvalues must be distinct for the secant construction."""


def phi_distinct(
    f: UnivariatePoly, lam: RationalLike, mu: RationalLike
) -> UnivariatePoly:
    """f minus w times the secant slope (f(lam) - f(mu)) / (lam - mu).

    The result takes equal values at lam and mu by construction.
    """
    lam, mu = Fraction(exact_rational(lam)), Fraction(exact_rational(mu))
    if lam == mu:
        raise EqualEigenvaluesError("need two distinct eigenvalues")
    slope = (f(lam) - f(mu)) / (lam - mu)
    return f - UnivariatePoly([0, slope])


def phi_equal(f: UnivariatePoly, lam: RationalLike) -> UnivariatePoly:
    """f minus w times the tangent slope f'(lam)."""
    return f - UnivariatePoly([0, univariate_hasse_eval(f, 1, lam)])


def first_nonvanishing_order(g: UnivariatePoly, lam: RationalLike, cap: int):
    """Least order i >= 1 whose Hasse derivative of g survives at lam.

    The search stops at min(cap, deg g); when nothing survives there the
    INFINITE sentinel is returned, which for cap >= deg g means exactly
    that g - g(lam) is the zero polynomial.
    """
    if cap < 1:
        raise ValueError("cap must be positive")
    for i in range(1, min(cap, g.degree) + 1):
        if univariate_hasse_eval(g, i, lam):
            return i
    return INFINITE


def euclid_partition(size: int, order) -> tuple[int, ...]:
    """Partition of ``size`` into parts controlled by ``order``.

    For order >= size (including the INFINITE sentinel): size parts of 1.
    Otherwise, with size = a * order + q, there are q parts equal to a + 1
    and order - q parts equal to a.  Parts sum to size.
    """
    if size < 1:
        raise ValueError("size must be positive")
    if order == INFINITE or order >= size:
        return (1,) * size
    if order < 1:
        raise ValueError("order must be positive")
    a, q = divmod(size, order)
    return (a + 1,) * q + (a,) * (order - q)


def pair_prediction(
    f: UnivariatePoly,
    lam: RationalLike,
    m: int,
    mu: RationalLike,
    n: int,
) -> PairPrediction:
    """Record for one block pair, on the branch its eigenvalues select;
    frechet_jcf aggregates these."""
    lam, mu = Fraction(exact_rational(lam)), Fraction(exact_rational(mu))
    if m < 1 or n < 1:
        raise ValueError("block sizes must be positive")
    cap = max(f.degree, 1)
    if lam != mu:
        shifted = phi_distinct(f, lam, mu)
        eig = (f(lam) - f(mu)) / (lam - mu)
        k = first_nonvanishing_order(shifted, lam, cap)
        h = first_nonvanishing_order(shifted, mu, cap)
        s_parts = euclid_partition(m, k)
        t_parts = euclid_partition(n, h)
        sizes: list[int] = []
        for si in s_parts:
            for tj in t_parts:
                sizes.extend(kronecker_sum_sizes(si, tj))
        return PairPrediction(
            lam, mu, m, n, "distinct", eig,
            tuple(sorted(sizes, reverse=True)),
            order_lam=k, order_mu=h, parts_lam=s_parts, parts_mu=t_parts,
        )
    eig = univariate_hasse_eval(f, 1, lam)
    d = root_multiplicity(phi_equal(f, lam).derivative(), lam)
    dim = m * n
    if d == INFINITE or d >= m + n - 1:
        return PairPrediction(
            lam, mu, m, n, "equal", eig, (1,) * dim, local_mult=d
        )
    top = -(-(m + n - 1) // d)
    table: list[tuple[int, int, int]] = []
    nullities = [0]
    for s in range(1, top + 1):
        if s * d >= m + n - 1:
            nullities.append(dim)
            continue
        row = rank_row(m, n, d, s)
        table.extend((s, k, rk) for k, rk in row.items())
        nullities.append(dim - sum(row.values()))
    return PairPrediction(
        lam, mu, m, n, "equal", eig,
        sizes_from_nullities(nullities, dim),
        local_mult=d, rank_table=tuple(table),
    )


def frechet_jcf(f: UnivariatePoly, x: JordanSpec, y: JordanSpec) -> JordanStructure:
    """Jordan structure of the difference-quotient matrix of f on (x, y).

    Dispatches every block pair on whether its eigenvalues coincide and
    merges contributions at equal output eigenvalues, exactly.
    """
    contributions = []
    for lam, m, mu, n in block_pairs(x, y):
        pred = pair_prediction(f, lam, m, mu, n)
        contributions.append((pred.eigenvalue, pred.sizes))
    return JordanStructure.from_pairs(contributions)
