"""Jordan structure of the derivative of a polynomial matrix function.

The derivative of ``A -> f(A)`` in Kronecker form corresponds to the
bivariate difference quotient ``(f(x) - f(y)) / (x - y)``, and that rigid
shape admits a complete answer, block pair by block pair, from the Hermite
data v = (f^[0](lam), ..., f^[deg f](lam)) of f at each eigenvalue: row 0
of the :func:`jordankron.polyring.hasse_value_table` of f as a polynomial
in y, the one table the generic predictor reads too.

* distinct eigenvalues lam != mu: the eigenvalue is the secant slope
  (v_lam[0] - v_mu[0]) / (lam - mu); k is the least i >= 1 with
  v_lam[i] != slope * [i = 1], and h the same at mu.  Euclidean division
  splits m and n into partitions driven by k and h, and every pair of
  parts emits a Kronecker-sum staircase;
* equal eigenvalues: the eigenvalue is the tangent slope v_lam[1], and
  d, the least i >= 2 with v_lam[i] != 0 minus one, is the multiplicity
  of lam as a root of f' - f'(lam).  Blocks are counted through the
  nullities of the powers of the h_d matrix on nilpotent blocks, sums of
  banded Toeplitz ranks from :mod:`jordankron.toeplitz`.  Power s needs
  one ``hankel_rank(m, n, d, s)``, which fixes every rank it sums, and the
  closed sum ``_rank_sum`` of those ranks; the record keeps just the
  per-power Hankel ranks.  Each power calls ``toeplitz._hankel_rank``, the
  one door to the linear complexity that fixes such a rank, on one gamma
  list per pair, which grows only when a power needs it.  At d = 1 every
  such rank is full, and no power builds a gamma.  A pair of dimension
  m*n past ``sys.maxsize`` raises OverflowError before the first power,
  as the branch's all-size-1 answer does: no index reaches it, and its
  powers would run past any budget.

Linear or constant f degenerates to identity-multiple matrices and is
answered with all-size-1 blocks rather than an error.

Each unordered block pair is answered once.  The quotient is symmetric in
x and y, and the commutation matrix turns ``A (x) B`` into ``B (x) A``, so
the pair (mu, n, lam, m) has the Jordan structure of (lam, m, mu, n).  The
record agrees too, field by field: the secant slope is symmetric, k is
read at lam and h at mu, so they trade places as m and n and their
partitions do, the staircase is sorted, and the equal branch reads only
min(m, n) and max(m, n).  :func:`pair_predictions` therefore hands
:func:`jordankron.jordan.per_block_pair` the mirror :func:`_mirror`, which
swaps those fields, and no other caller of that walk passes a mirror.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from .generic import PairPrediction, _first_order, _staircase_sizes, euclid_partition
from .jordan import (
    JordanSpec, JordanStructure, parse_block_size, per_block_pair, sizes_from_nullities
)
from .polyring import (
    BivariatePoly,
    RationalLike,
    UnivariatePoly,
    exact_rational,
    hasse_value_table,
)
from .toeplitz import _hankel_rank, _rank_sum


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
    m, n = parse_block_size(m), parse_block_size(n)
    f_y, deg = BivariatePoly([f.coeffs]), max(f.degree, 0)
    (v_lam,), den_lam = hasse_value_table(f_y, 0, lam, 0, deg)
    if lam != mu:
        (v_mu,), den_mu = hasse_value_table(f_y, 0, mu, 0, deg)
        eig = (Fraction(v_lam[0], den_lam) - Fraction(v_mu[0], den_mu)) / (lam - mu)
        k = _first_order(v_lam, 1, eig * den_lam)
        h = _first_order(v_mu, 1, eig * den_mu)
        s_parts = euclid_partition(m, k)
        t_parts = euclid_partition(n, h)
        return PairPrediction(
            lam, mu, m, n, "distinct", eig, _staircase_sizes(s_parts, t_parts),
            order_lam=k, order_mu=h, parts_lam=s_parts, parts_mu=t_parts,
        )
    eig = Fraction(v_lam[1], den_lam) if deg else Fraction(0)
    d = _first_order(v_lam, 2) - 1  # INFINITE - 1 is INFINITE
    dim = m * n
    if d >= m + n - 1:
        return PairPrediction(lam, mu, m, n, "equal", eig, (1,) * dim, local_mult=d)
    if dim > sys.maxsize:
        raise OverflowError(f"dimension {dim} is past the largest index")
    # Past the power top - 1 the h_d matrix vanishes: s * d >= m + n - 1.
    # Each power below it has one Hankel rank r, which fixes every rank R_k
    # that its nullity sums as min(k - s*d, m + n - k, r), and
    # toeplitz._rank_sum adds those ranks up as r (t - r), t = m + n - s*d.
    top = -(-(m + n - 1) // d)
    short, long = min(m, n), max(m, n)
    powers, hankel, nullities = [[1]], [], [0]
    for s in range(1, top):
        r = _hankel_rank(short, long, d, s, powers)
        hankel.append(r)
        nullities.append(dim - _rank_sum(short, long, s * d, r))
    nullities.append(dim)
    return PairPrediction(
        lam, mu, m, n, "equal", eig,
        sizes_from_nullities(nullities, dim),
        local_mult=d, rank_table=tuple(hankel),
    )


def _mirror(pred: PairPrediction) -> PairPrediction:
    """The record of the pair (mu, n, lam, m), from that of (lam, m, mu, n)."""
    return pred._replace(
        lam=pred.mu, mu=pred.lam, m=pred.n, n=pred.m,
        order_lam=pred.order_mu, order_mu=pred.order_lam,
        parts_lam=pred.parts_mu, parts_mu=pred.parts_lam,
    )


def pair_predictions(
    f: UnivariatePoly, x: JordanSpec, y: JordanSpec
) -> list[PairPrediction]:
    """The record of every block pair of (x, y), x's blocks outer and y's
    inner, each in canonical order, from
    :func:`jordankron.jordan.per_block_pair` with :func:`_mirror`.

    ``pair_prediction`` runs once per unordered pair {(lam, m), (mu, n)}: a
    repeated pair reuses its record, and a mirror takes the swapped record
    of its twin (exact, see the module docstring).
    """
    return per_block_pair(pair_prediction, f, x, y, _mirror)


def frechet_jcf(f: UnivariatePoly, x: JordanSpec, y: JordanSpec) -> JordanStructure:
    """Jordan structure of the difference-quotient matrix of f on (x, y).

    Dispatches every block pair on whether its eigenvalues coincide and
    merges contributions at equal output eigenvalues, exactly.  The records
    come from :func:`pair_predictions`, so a mirror pair (mu, n, lam, m)
    costs a swap of its twin's fields: the quotient is symmetric, and the
    commutation matrix makes the two pairs' matrices permutation-similar.
    """
    preds = pair_predictions(f, x, y)
    return JordanStructure.from_pairs((pr.eigenvalue, pr.sizes) for pr in preds)
