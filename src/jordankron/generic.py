"""Closed-form Jordan structure when the first derivatives cooperate.

For a block pair (lam, m), (mu, n) let k and h be the least orders >= 1
of a surviving pure Hasse derivative of p at (lam, mu): k in x, down
column 0 of the Hasse table, and h in y, along row 0 (INFINITE if none
survives).  Unless k, h, m and n all exceed 1, the pair behaves like the
Kronecker sum of N_m^k and N_n^h, and its sizes are the staircase of
``euclid_partition(m, k)`` and ``euclid_partition(n, h)``: each pair of
parts emits a Kronecker-sum staircase.  The branch says which first
derivatives survive: ``"both-nonzero"`` (k = h = 1, the plain staircase
m+n-1, m+n-3, ..., m+n+1-2*min(m,n)), ``"py-zero"`` (k = 1 < h),
``"px-zero"`` (h = 1 < k) or ``"size-one-escape"`` (neither, but m = 1
or n = 1).

When both first derivatives vanish and both sizes exceed one, no formula
is offered: ``pair_prediction`` returns a record of branch
``"degenerate"`` carrying the size and count bounds of
:mod:`jordankron.bounds`, and the caller picks the oracle or the bounds.

:class:`PairPrediction` is the per-pair record of both predictors, this one
and :func:`jordankron.frechet.pair_prediction`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .bounds import PairBounds, block_count_bounds, max_block_size_bound
from .jordan import JordanSpec, JordanStructure, parse_block_size, per_block_pair
from .polyring import (
    INFINITE,
    BivariatePoly,
    ConstantPolynomialError,
    RationalLike,
    exact_rational,
    format_rational,
    hasse_value_table,
    table_local_degree,
)
from .toeplitz import _tent


def _order_str(value):
    return "inf" if value == INFINITE else value


class PairPrediction(NamedTuple):
    """Prediction for one block pair, with the quantities that drove it.

    ``branch`` names the arm of the analysis: ``"both-nonzero"``,
    ``"py-zero"``, ``"px-zero"``, ``"size-one-escape"`` or ``"degenerate"``
    for the generic predictor, ``"distinct"`` or ``"equal"`` for the
    derivative one.  Every branch but ``"equal"`` and ``"degenerate"`` has
    the staircase of ``euclid_partition(m, k)`` and ``euclid_partition(n,
    h)``.  A degenerate record has no sizes and carries ``bounds`` instead.

    An equal record below the top power keeps in ``rank_table`` the
    ``hankel_rank(m, n, d, s)`` of each power s = 1, 2, ...; at d = 1 each
    is the largest rank, proved without elimination.  Each fixes every rank
    R_k of its power, rank R_k = min(k - s*d, m + n - k, r) by the lemma of
    :mod:`jordankron.toeplitz`, and ``to_json_obj`` expands them, through
    that module's ``_tent``, into the ``"ranks"`` list of
    ``{"s", "k", "rank"}`` entries.
    """

    lam: Fraction
    mu: Fraction
    m: int
    n: int
    branch: str
    eigenvalue: Fraction
    sizes: tuple[int, ...]
    order_lam: "int | float | None" = None
    order_mu: "int | float | None" = None
    parts_lam: "tuple[int, ...] | None" = None
    parts_mu: "tuple[int, ...] | None" = None
    local_mult: "int | float | None" = None
    rank_table: "tuple[int, ...] | None" = None
    bounds: "PairBounds | None" = None

    def to_json_obj(self) -> dict:
        """The pair's entry in the ``diagnostics`` list of a JSON report."""
        entry = {
            "lam": format_rational(self.lam),
            "mu": format_rational(self.mu),
            "m": self.m,
            "n": self.n,
            "branch": self.branch,
            "eig": format_rational(self.eigenvalue),
        }
        if self.branch == "distinct":
            entry["sizes"] = list(self.sizes)
            entry["k"] = _order_str(self.order_lam)
            entry["h"] = _order_str(self.order_mu)
            entry["partsLam"] = list(self.parts_lam)
            entry["partsMu"] = list(self.parts_mu)
        elif self.branch == "equal":
            entry["sizes"] = list(self.sizes)
            entry["d"] = _order_str(self.local_mult)
            if self.rank_table:
                d, m, n = self.local_mult, min(self.m, self.n), max(self.m, self.n)
                ranks = entry["ranks"] = []
                for s, r in enumerate(self.rank_table, 1):
                    ks = range(s * d + 1, m + n)
                    ranks.extend({"s": s, "k": k, "rank": rk}
                                 for k, rk in zip(ks, _tent(m + n - s * d, r)))
        elif self.bounds is not None:
            entry["bounds"] = self.bounds.to_json_obj()
        return entry


class DegenerateCaseError(ValueError):
    """Both first derivatives vanish at the pair and both sizes exceed 1.

    Carries the degenerate record in ``prediction``, bounds included, so
    callers can fall back without recomputing them.
    """

    def __init__(self, prediction: PairPrediction):
        self.prediction = prediction
        pr, b = prediction, prediction.bounds
        super().__init__(
            f"no closed form for the pair at ({pr.lam}, {pr.mu}) with sizes "
            f"({pr.m}, {pr.n}); local degree {b.local_degree}, block sizes <= "
            f"{b.max_block_size}, block count in [{b.count_lower}, {b.count_upper}]"
        )


def kronecker_sum_sizes(m: int, n: int) -> tuple[int, ...]:
    """Block sizes of a Kronecker sum of nilpotent blocks of sizes m and n:
    min(m, n) blocks of sizes m+n-1, m+n-3, ..., m+n+1-2*min(m, n)."""
    m, n = parse_block_size(m), parse_block_size(n)
    return tuple(m + n + 1 - 2 * k for k in range(1, min(m, n) + 1))


def _first_order(v: list[int], start: int, at_one=0):
    """Least i >= start with v[i] != (at_one if i == 1 else 0), else INFINITE."""
    hits = (i for i in range(start, len(v)) if v[i] != (at_one if i == 1 else 0))
    return next(hits, INFINITE)


def euclid_partition(size: int, order) -> tuple[int, ...]:
    """Partition of ``size`` into parts controlled by ``order``: the block
    sizes of the order-th power of a nilpotent block of size ``size``.

    For order >= size (including the INFINITE sentinel): size parts of 1.
    Otherwise, with size = a * order + q, there are q parts equal to a + 1
    and order - q parts equal to a.  Parts sum to size.  The size must be
    an int >= 1 and the order an int >= 1 or INFINITE; anything else, bools
    and integral floats included, raises ValueError.
    """
    size = parse_block_size(size)
    if order != INFINITE and (type(order) is not int or order < 1):
        raise ValueError(
            f"an order must be an integer >= 1 or INFINITE, got {order!r}"
        )
    if order >= size:  # INFINITE included
        return (1,) * size
    a, q = divmod(size, order)
    return (a + 1,) * q + (a,) * (order - q)


def _staircase_sizes(parts_a, parts_b) -> tuple[int, ...]:
    """Descending sizes of every Kronecker sum of a part of parts_a with a
    part of parts_b.

    One part against one part is ``kronecker_sum_sizes`` as it stands.
    Otherwise each distinct pair of parts is summed once, its sizes repeated
    by the product of the two parts' multiplicities (at most four sums, as a
    Euclid partition has at most two distinct parts), and all are sorted.
    """
    if len(parts_a) == len(parts_b) == 1:
        return kronecker_sum_sizes(parts_a[0], parts_b[0])
    sizes: list[int] = []
    for a in set(parts_a):
        for b in set(parts_b):
            times = parts_a.count(a) * parts_b.count(b)
            sizes.extend(kronecker_sum_sizes(a, b) * times)
    return tuple(sorted(sizes, reverse=True))


# The branch of a non-degenerate generic pair, by (k == 1, h == 1).
_BRANCHES = {(True, True): "both-nonzero", (True, False): "py-zero",
             (False, True): "px-zero", (False, False): "size-one-escape"}


def pair_prediction(
    p: BivariatePoly,
    lam: RationalLike,
    m: int,
    mu: RationalLike,
    n: int,
) -> PairPrediction:
    """Closed-form record for one block pair; raises on constant p.

    Every quantity comes from one table of Hasse derivative values at
    (lam, mu), up to the degree of p in each variable: every higher order
    vanishes.  The table's integer rows share one positive denominator, so
    every zero test reads an integer.
    """
    if p.is_constant():
        raise ConstantPolynomialError("a constant polynomial has no case split")
    lam, mu = Fraction(exact_rational(lam)), Fraction(exact_rational(mu))
    m, n = parse_block_size(m), parse_block_size(n)
    table, den = hasse_value_table(
        p, lam, mu, max(p.degree_x(), 1), max(p.degree_y(), 1)
    )
    # k and h; orders past the end of the table vanish.
    eig = Fraction(table[0][0], den)
    k, h = _first_order([row[0] for row in table], 1), _first_order(table[0], 1)
    if k > 1 and h > 1 and m > 1 and n > 1:
        d = table_local_degree(table)
        return PairPrediction(
            lam, mu, m, n, "degenerate", eig, (),
            bounds=PairBounds(
                d, max_block_size_bound(m, n, d), *block_count_bounds(m, n, d)
            ),
        )
    sizes = _staircase_sizes(euclid_partition(m, k), euclid_partition(n, h))
    return PairPrediction(lam, mu, m, n, _BRANCHES[k == 1, h == 1], eig, sizes)


def predict_generic(
    p: BivariatePoly, x: JordanSpec, y: JordanSpec
) -> JordanStructure:
    """Closed-form Jordan structure of p on (x, y), merged by eigenvalue.

    Each distinct block pair is answered once, by ``jordan.per_block_pair``
    with no mirror, and must classify away from the degenerate case; the
    first degenerate pair aborts the prediction with a DegenerateCaseError
    that carries its record.
    """
    contributions = []
    for pred in per_block_pair(pair_prediction, p, x, y):
        if pred.bounds is not None:
            raise DegenerateCaseError(pred)
        contributions.append((pred.eigenvalue, pred.sizes))
    return JordanStructure.from_pairs(contributions)
