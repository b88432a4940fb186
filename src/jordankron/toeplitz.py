"""Banded integer Toeplitz matrices behind the equal-eigenvalue count.

Powers of the matrix of h_d on a nilpotent Jordan pair act degree-by-degree
on the antidiagonal filtration of the m x n grid.  On graded pieces the
action is the banded integer Toeplitz matrix R_k with entries
``gamma_(j - i + c_k)``, where the gamma are the coefficients of
``(1 + z + ... + z^d)^ell`` and c_k is a clamped offset.  Summing the ranks
of the R_k over k gives the nullities that the equal-eigenvalue predictor
consumes, at a fraction of the cost of eliminating the mn x mn matrix.  The
ranks come from the formula below, which builds at most one R_k per
quadruple, as a Hankel matrix.

With m <= n and D = ell*d, R_k is u_(k - D) x u_k for the filtration
dimensions u, so min(u_(k - D), u_k) = min(k - D, m + n - k, m).  Most R_k
have that full rank, and most of those are proved so without building a
matrix.  Since gamma_0 = 1 and gamma_i = 0 for i < 0, the diagonal of R_k
with offset j - i = -c_k holds ones with zeros below it.  Its
``min(n_rows, n_cols + c_k) - c_k`` cells span a unit triangular minor, of
determinant 1, so when that count reaches ``min(n_rows, n_cols)`` the rank
is full, exactly.  That is the case precisely when k <= n or k >= m + D.
(The diagonal of gamma_D = 1, with zeros above it, is the mirror image and
proves no further spec.)

Every uncertified R_k, n < k < m + D, is with its rows reversed a Hankel
matrix ``[s_(i+j)]`` of the same sequence ``s_i = gamma_(D - n + 1 + i)``,
i < N = m + n - D - 1, with k - D rows and m + n - k columns, which add up
to N + 1.  By the rank profile of a Hankel sequence (Iohvidov, *Hankel and
Toeplitz Matrices and Forms*, 1982; Heinig and Rost, *Algebraic Methods for
Toeplitz-like Matrices and Operators*, 1984), such matrices have rank
min(rows, cols, r) for one number r, the rank of the middle one, at
k = (m + n + D) // 2, with t // 2 rows for t = m + n - D.  That profile
extends to the certified k, so one exact rank per quadruple,
``hankel_rank``, from the linear complexity of the window or, for n > D,
of the shorter sequence below, fixes every rank of the row:

    rank R_k = min(k - D, m + n - k, r)   for every valid k.

Proof for a certified k.  If no k is uncertified, the middle is certified,
r is its full rank min(t // 2, m), and min(k - D, m + n - k) <= t // 2.
Otherwise the middle is uncertified too, since the uncertified k are
closed under the flip k -> m + n + D - k.  Its window starts with
n - D - 1 zeros and then s_(n - D - 1) = gamma_0 = 1, and it has more than
n - D rows and columns.  So for n > D the leading (n - D) x (n - D) block
of the middle Hankel matrix is anti-triangular with ones on its
antidiagonal, and r >= n - D (for n <= D trivially).  A certified k has
k - D <= n - D or m + n - k <= n - D, so its full rank is at most r, and
r <= m: the cap r changes nothing there.

That block is never ranked: for n > D only its Schur complement is, and
that is a smaller integer Hankel matrix, of the reciprocal power
series (Heinig and Rost 1984; the nullity theorem of Strang and Nguyen,
SIAM Review 2004, for L(gamma)^-1 = L(1/gamma) with L lower triangular
Toeplitz).  Put w = n - D, u_i = gamma_i for i < m (zero past D), and v_i,
i < m, the coefficients of 1/u, integers since u_0 = 1: v_0 = 1 and
v_i = -(u_1 v_(i-1) + ... + u_i v_0).  The window is w - 1 zeros and then
u, and every p x q Hankel matrix H of it with p + q = N + 1 and p, q >= w
has

    rank H = w + rank [v_(w + 1 + i + j)],   (p - w) x (q - w).

Proof.  With e = p - w, H with its rows reversed is the Toeplitz matrix
[u_(j - i + e)].  Multiply it on the right by the unit upper triangular
Toeplitz matrix [v_(l - j)]; entry (i, l) becomes the sum of u_a v_(l - i
+ e - a) over a = max(e - i, 0) .. l - i + e.  For the last w rows,
i >= e, that is all of u v = 1 in degree l - i + e, so row i is the unit
row of column i - e.  For i < e it is the product's degree l - i + e
term with a < e - i left out, -sum(u_a v_(l - i + e - a), a < e - i).
Clear the first w columns with the unit rows.  What is left of the first
e rows, on columns w .. q - 1 and in reverse order, is minus a unit
lower triangular Toeplitz matrix in u times [v_(w + 1 + i + j)], which
has its rank.  At the middle the remainder has (m - n + D) // 2 rows and
(m - n + D + 1) // 2 columns and reads v_(w + 1) .. v_(m - 1); the v are
the coefficients of ((1 - z) / (1 - z^(d+1)))^ell, which grow only
polynomially.  For n <= D the window starts past gamma_0, no unit block
opens it, and the middle itself is ranked.

Put x = k - D.  Over the k of one quadruple the formula is the tent
min(x, t - x, r) for x = 1 .. t - 1, with 1 <= r <= t // 2: the middle has
t // 2 rows, and holds every s_i, a window that meets the positive
gamma_0 .. gamma_D.  The tent rises by 1 to r, stays there and falls back
by 1, so ``_tent(t, r)`` builds the row of ranks from three ranges, and
``_rank_sum`` adds it up as r (t - r), O(1) instead of O(m + n); the
equal-eigenvalue predictor of :mod:`jordankron.frechet` takes each power's
nullity from that sum.  ``rho`` and ``sufficient_rank_drop`` write the
formula for their one k.

No Hankel matrix is built.  The middle Hankel matrix of a sequence s of
length N has rank min(L, N + 1 - L), for L the linear complexity of s over
Q: the least L with s_i = c_1 s_(i-1) + ... + c_L s_(i-L) for L <= i < N
(Iohvidov 1982; Jonckheere and Ma, *A simple Hankel interpretation of the
Berlekamp-Massey algorithm*, Linear Algebra Appl., 1989).  That is at most
its (N + 1) // 2 rows.  ``_linear_complexity`` finds L by Berlekamp-Massey
(Massey, *Shift-register synthesis and BCH decoding*, 1969) in O(N L)
integer steps.  Where the connection polynomial C meets a nonzero
discrepancy d, it becomes b C - d z^gap B, for B and b the polynomial and
discrepancy at its last change of length, gap steps back, and is then
divided by its content.  Each step scales C by a nonzero integer, so it
takes the branch of the algorithm over Q, and L is exact.  It is
cross-checked against a fraction-free echelon kernel, a full-pivot Bareiss
reference and a rational Gauss reference in the test suite.

At d = 1 no R_k needs that rank.  The gamma are then binomial
coefficients, and R_k is a graded piece of multiplication by (x + y)^ell
on Q[x,y]/(x^m, y^n), which has the largest rank in every degree: that
algebra has the strong Lefschetz property in characteristic 0 (Stanley,
*Weyl groups, the hard Lefschetz theorem, and the Sperner property*, 1980).
So at d = 1, as on a certified middle, r is the largest rank.
``_hankel_rank``, the only caller of ``_linear_complexity``, is the one
place this rule is written, and it builds a gamma only when it takes a
linear complexity.  The certification rule is written where it decides
that, there and in ``rho``'s shortcut, which builds no sequence for a
certified k.

The rank-deficient R_k, those with min(rows, cols) > r, are what this
module's scanner hunts for.  It works one quadruple at a time, at the
cost of its records.  The row of largest ranks is the tent capped at
c = min(m, t // 2), the full rank of the middle, and r <= c.  Each
quadruple takes one ``_hankel_rank``, on the scan's gamma list of its d,
so each (d, ell) gamma is built once, when a quadruple first takes a
linear complexity at ell or above, and no d = 1 gamma is built.  Every
R_k of the quadruple has its largest rank exactly when the middle one
does, that is when r = c; then the tent at c is the row of ranks, and
only below the peak is ``_tent(t, r)`` built too.  The rank-drop test
runs only where it can hold, for ell < maxRank <= d.

The scanner's byte form, ``json.dumps(record.to_json_obj())`` and a
newline, is the only form a record has, and ``_record_lines`` is the one
place it is spelled: given a quadruple and its rows (k, rank, maxRank), it
returns the quadruple's lines as bytes, and a line without a rank drop
takes its text after k from a table by rank.  Each quadruple's new
records reach the JSONL file in one flushed write of those bytes, so a
killed scan loses no finished quadruple and resumes from its file.  A
resume reads a quadruple's complete block as one: every rank of it
follows from r, which its middle line gives, so for 1 <= r <= c, if the
block's bytes are ``_record_lines`` of the ranks ``_tent(t, r)``, one
comparison, each of its lines is a record that passes the per-line check.
Any other line, a subset or a reordering of a block too, is read on its
own by one regular expression and checked by arithmetic.  A resume rejects any line
not in the byte form, and ``DeficiencyRecord.from_json_obj`` checks an
object by writing it in that form and reading it back.
``sufficient_rank_drop`` implements a closed sufficient condition (the
coefficient vector of ``(x - y)^ell`` is then an explicit kernel vector),
but it is not necessary, and the scanner records both kinds.

Every function here takes the quintuple (m, n, d, ell, k) as plain ints,
m and n in either order at the public entry points.  Each of those
normalizes once, by ``_check_params``, which validates the quintuple and
returns m <= n, and then calls only private kernels, which take m <= n and
check nothing.  A scanned quintuple and its rank data are one flat
``DeficiencyRecord``, whose fields are those of a JSONL record in file
order.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from itertools import accumulate, islice
from math import gcd
from operator import le, mul, sub
from pathlib import Path
from typing import NamedTuple


class InvalidSpecError(ValueError):
    """Parameters outside the defining range of the banded matrices."""


def _gamma_step(gamma: list[int], d: int) -> list[int]:
    """The coefficients of (1 + z + ... + z^d)^(ell + 1), given those of the
    power ell: entry i is gamma_(i - d) + ... + gamma_i, a difference of
    two prefix sums."""
    p = [*accumulate(gamma + [0] * d, initial=0)]
    return [*p[1 : d + 1], *map(sub, p[d + 1 :], p)]


def _check_params(
    m: int, n: int, d: int, ell: int, k: int | None = None
) -> tuple[int, int]:
    """Return ``(min(m, n), max(m, n))``, the pair as every kernel takes
    it.  Raise InvalidSpecError unless all parameters are ints (bools
    excluded), all positive, with d*ell + 1 <= k <= m + n - 1; without k,
    unless some k fits that range.  m and n in either order."""
    params = (m, n, d, ell) if k is None else (m, n, d, ell, k)
    if not all(type(v) is int for v in params):
        raise InvalidSpecError(f"parameters must be integers, got {params!r}")
    if min(params) < 1:
        raise InvalidSpecError("all parameters must be positive")
    lo, hi = d * ell + 1, m + n - 1
    if k is None:
        if lo > hi:
            raise InvalidSpecError(f"no k in [{lo}, {hi}]")
    elif not lo <= k <= hi:
        raise InvalidSpecError(f"k = {k} outside [{lo}, {hi}]")
    return (m, n) if m <= n else (n, m)


def _tent(t: int, c: int) -> list[int]:
    """min(x, t - x, c) for x = 1 .. t - 1, for 1 <= c <= t // 2: it rises
    by 1 to c, stays there and falls back by 1.  With t = m + n - shift and
    x = k - shift, at c = r = hankel_rank(m, n, d, ell) it is the row of
    ranks R_k of the quadruple, and at c = min(m, t // 2) the row of
    largest ranks; built from ranges instead of one ``min`` a k."""
    return [*range(1, c), *[c] * (t + 1 - 2 * c), *range(c - 1, 0, -1)]


def _rank_sum(m: int, n: int, shift: int, r: int) -> int:
    """The sum of ``_tent(m + n - shift, r)``, the ranks R_k over every k of
    the quadruple, for m <= n, shift = ell*d and r = hankel_rank(m, n, d,
    ell).  Since 1 <= r <= t // 2 for t = m + n - shift, the two slopes
    add up to r (r - 1) and the t + 1 - 2 r plateau values to r (t + 1 - 2 r),
    so the sum is r (t - r)."""
    t = m + n - shift
    return r * (t - r)


def _linear_complexity(s: list[int]) -> int:
    """The linear complexity L of the integer sequence s over Q: the least
    L such that s_i = c_1 s_(i-1) + ... + c_L s_(i-L) for L <= i < len(s).

    Berlekamp-Massey (Massey 1969), fraction-free: the connection
    polynomial C is updated as b C - d z^gap B, for d its discrepancy and B
    the last C whose length changed, with b its discrepancy, and then
    divided by its content.  Scaling C by a nonzero integer scales its
    discrepancies with it, so every step makes the field algorithm's
    choices, and L is exact.  The sum runs over s reversed, so each
    discrepancy is one slice and one ``sum(map(mul, ...))``.
    """
    n = len(s)
    rs = s[::-1]
    c, back, b, ell, gap = [1], [1], 1, 0, 1
    for i in range(n):
        d = sum(map(mul, c, rs[n - 1 - i :]))
        if not d:
            gap += 1
            continue
        new = c if b == 1 else [b * x for x in c]
        new = new + [0] * (gap + len(back) - len(new))
        for j, x in enumerate(back, gap):
            new[j] -= d * x
        g = gcd(*new)
        if g > 1:
            new = [x // g for x in new]
        if 2 * ell <= i:
            back, b, ell, gap = c, d, i + 1 - ell, 1
        else:
            gap += 1
        c = new
    return ell


def _hankel_rank(m: int, n: int, d: int, ell: int, powers: list[list[int]]) -> int:
    """``hankel_rank`` for m <= n.  ``powers[i]`` holds the coefficients of
    (1 + z + ... + z^d)^i, from ``[[1]]`` on; the call appends the powers
    up to ell, by ``_gamma_step``, only when it ranks a Hankel matrix.

    The middle R_k is ranked by a sequence only when it is uncertified and
    d >= 2; otherwise it has the full rank min(k - shift, m + n - k, m) at
    k = mid, which is min(rows, m) for its rows = mid - shift <= m + n - mid
    columns.
    With shift = ell*d, the window is s_t = gamma_(shift - n + 1 + t),
    t < N = m + n - shift - 1.  For n <= shift, and so m <= shift, it is
    the slice gamma_(shift - n + 1) .. gamma_(m - 1), and r is
    min(L, N + 1 - L) for its linear complexity L.  For n > shift it is
    w - 1 zeros, w = n - shift, and then gamma_0 .. gamma_(m - 1), zero
    past index shift, so the middle opens with a unit anti-triangular
    w x w block, and by the module docstring's peel r is w plus the rank
    of the middle Hankel matrix of v_(w + 1) .. v_(m - 1), the
    coefficients of 1 / gamma, which is ranked the same way.
    """
    shift = ell * d
    mid = (m + n + shift) // 2
    rows = mid - shift
    if d < 2 or not n < mid < m + shift:
        # min(rows, m) without a call: most scanned quadruples end here.
        return rows if rows < m else m
    while len(powers) <= ell:
        powers.append(_gamma_step(powers[-1], d))
    if n <= shift:
        w, s = 0, powers[ell][shift - n + 1 : m]
    else:
        # The first m coefficients of 1 / gamma, of which the Schur
        # complement of the unit anti-triangular block reads those past w.
        w = n - shift
        u = powers[ell][1:m]
        v = [1]
        for _ in range(1, m):
            v.append(-sum(map(mul, u, reversed(v))))
        s = v[w + 1 :]
    lc = _linear_complexity(s)
    return w + min(lc, len(s) + 1 - lc)


def hankel_rank(m: int, n: int, d: int, ell: int) -> int:
    """The rank r of R_k at the middle k = (m + n + ell*d) // 2 of the row
    of (m, n, d, ell); m and n in either order.

    The uncertified k are closed under the flip k -> m + n + ell*d - k, so
    the middle one is uncertified if any is.  Then it is the Hankel matrix
    of the module docstring with (N + 1) // 2 rows, and at d >= 2 r is
    min(L, N + 1 - L) for the linear complexity L of its window; a
    certified middle R_k, and every R_k at d = 1, has full rank and needs
    none.  For n > ell*d the unit anti-triangular (n - ell*d) x
    (n - ell*d) block that opens the middle is peeled off, and r is
    n - ell*d plus the rank of its Schur complement, the middle Hankel
    matrix of 1 / gamma with (m - n + ell*d) // 2 rows, ranked the same
    way by the linear complexity of its sequence.
    """
    m, n = _check_params(m, n, d, ell)
    return _hankel_rank(m, n, d, ell, [[1]])


def rank_row(m: int, n: int, d: int, ell: int) -> dict[int, int]:
    """Ranks of R_k for every valid k of (m, n, d, ell), keyed by k in
    ascending order; m and n in either order.

    They are the tent ``_tent(m + n - ell*d, r)`` capped at the row's one
    ``hankel_rank`` r, so the row costs at most one linear complexity.
    """
    m, n = _check_params(m, n, d, ell)
    r = _hankel_rank(m, n, d, ell, [[1]])
    shift = ell * d
    return dict(zip(range(shift + 1, m + n), _tent(m + n - shift, r)))


def rho(m: int, n: int, d: int, ell: int, k: int) -> int:
    """Rank of the banded Toeplitz matrix R_k; m and n in either order.

    It is min(k - ell*d, m + n - k, r) for the row's ``hankel_rank`` r.
    A certified k has full rank, so m stands in for r there and the k
    costs no matrix; neither does any k at d = 1.  Any other takes one
    linear complexity.
    """
    m, n = _check_params(m, n, d, ell, k)
    shift = ell * d
    r = _hankel_rank(m, n, d, ell, [[1]]) if n < k < m + shift else m
    return min(k - shift, m + n - k, r)


def sufficient_rank_drop(m: int, n: int, d: int, ell: int, k: int) -> bool:
    """Closed sufficient (not necessary) test for rank deficiency of R_k;
    m and n in either order.

    Flip the spec so the matrix has at least as many rows as columns, and
    let v hold the coefficients of (z - 1)^ell in the leading u_k slots.
    Row i of R_k v is then the correlation value
    ``[z^(ell + c_k + 1 - i)] (1 - z^(d+1))^ell``, whose nonzero exponents
    are exactly the multiples of d + 1 in [0, ell*(d+1)].  The rows sweep
    the exponent window of width u_(k - ell*d) ending at ell + c_k, so v is
    a kernel vector precisely when that window avoids every multiple of
    d + 1, i.e. when ``(ell + c_k) mod (d+1) >= u_(k - ell*d)``.

    The test requires u_k > ell so that v is nonzero, and a kernel vector
    of a rows >= cols matrix forces rank < u_k.
    """
    m, n = _check_params(m, n, d, ell, k)
    return _predicted(m, n, d, ell, k, min(k - ell * d, m + n - k, m))


def _predicted(m: int, n: int, d: int, ell: int, k: int, max_rank: int) -> bool:
    """``sufficient_rank_drop`` of a valid quintuple, m <= n, whose R_k is
    nr x nc, of largest rank max_rank = min(nr, nc).

    The flip-normalized spec, of index max(k, m + n + ell*d - k), has the
    larger of nr and nc as its rows, the smaller as its columns, and the
    offset c below.  The test is false unless ell < min(nr, nc) and
    max(nr, nc) <= (ell + c) mod (d + 1), which is at most d; so it is false
    unless ell < max_rank <= d, and only then are nr and nc computed.
    """
    if not ell < max_rank <= d:
        return False
    shift = ell * d
    c = min(max(k - n, m + shift - k, 0), shift)
    # nr = u_(k - shift) and nc = u_k, the filtration dimensions, for m <= n.
    nr = min(k - shift, m, m + n + shift - k)
    nc = min(k, m, m + n - k)
    return (ell + c) % (d + 1) >= max(nr, nc)


_JSON_KEYS = ("m", "n", "d", "ell", "k", "rank", "maxRank", "deficiency", "predicted")


def _checked(fields: tuple) -> tuple:
    """The fields of a scan record, eight ints and a bool in file order,
    once they are checked by arithmetic alone: the quintuple must be valid
    with m <= n, and maxRank, deficiency and predicted must be those of the
    quintuple and its rank; otherwise ValueError is raised.
    """
    m, n, d, ell, k, rk, max_rank, deficiency, predicted = fields
    shift = d * ell
    if not (1 <= m <= n and d >= 1 and ell >= 1 and shift < k < m + n):
        raise InvalidSpecError(
            f"need 1 <= m <= n, d, ell >= 1 and d*ell < k < m + n, "
            f"got {(m, n, d, ell, k)!r}"
        )
    if (
        max_rank != min(k - shift, m + n - k, m)
        or not 0 <= rk <= max_rank
        or deficiency != max_rank - rk
        or predicted is not (ell < max_rank <= d
                             and _predicted(m, n, d, ell, k, max_rank))
    ):
        raise ValueError(
            "deficiency record disagrees with its spec: "
            f"{dict(zip(_JSON_KEYS, fields))!r}"
        )
    return fields


# The one form of a scan record: json.dumps(record.to_json_obj()) and a
# newline.  Each int is spelled as json.dumps spells one, so "k": 04 and
# "deficiency": -0 fail here, while a negative field is left to _checked.
_JSON_INT = rb"(0|-?[1-9][0-9]*)"
_LINE_PATTERN = (
    rb"\{"
    + b", ".join(b'"%s": ' % key.encode() + _JSON_INT for key in _JSON_KEYS[:-1])
    + rb', "predicted": (true|false)\}' + b"\n"
)

# _FULL_TAIL[r] is what follows the k of a line of rank r = maxRank whose
# rank-drop flag is false.  It grows on demand to the largest rank
# formatted, min(m, t // 2) for a block of t - 1 lines, and each entry is
# fixed by its index, so every caller can share it.
_FULL_TAIL: list[str] = []


def _record_lines(m: int, n: int, d: int, ell: int, rows) -> bytes:
    """The lines of the quadruple (m, n, d, ell), m <= n, for its rows
    (k, rank, maxRank) in order, in the scanner's byte form: each is
    ``json.dumps(record.to_json_obj())`` and a newline.  This is the only
    place a record line is spelled: the scanner writes these bytes, and a
    resume compares a complete block with them.  A line without a rank drop
    takes its text after k from ``_FULL_TAIL``; the flag is
    ``_predicted``, run only where it can hold, for ell < maxRank <= d.
    """
    c = min(m, (m + n - ell * d) // 2)
    if len(_FULL_TAIL) <= c:
        _FULL_TAIL.extend(
            f', "rank": {r}, "maxRank": {r}, "deficiency": 0, "predicted": false}}\n'
            for r in range(len(_FULL_TAIL), c + 1)
        )
    head = f'{{"m": {m}, "n": {n}, "d": {d}, "ell": {ell}, "k": '
    lines = [
        str(k) + _FULL_TAIL[mr]
        if not (flag := ell < mr <= d and _predicted(m, n, d, ell, k, mr)) and rk == mr
        else f'{k}, "rank": {rk}, "maxRank": {mr}, "deficiency": {mr - rk}, '
             f'"predicted": {"true" if flag else "false"}}}\n'
        for k, rk, mr in rows
    ]
    return (head + head.join(lines)).encode() if lines else b""


class DeficiencyRecord(NamedTuple):
    """One scanned quintuple, m <= n, with its rank data: the fields of a
    JSONL record in file order, so records sort in scan order."""

    m: int
    n: int
    d: int
    ell: int
    k: int
    rank: int
    max_rank: int
    deficiency: int
    predicted_by_sufficient: bool

    def to_json_obj(self) -> dict:
        return dict(zip(_JSON_KEYS, self))

    @classmethod
    def from_json_obj(cls, obj: dict) -> "DeficiencyRecord":
        """Inverse of to_json_obj: the nine keys in any order, any others
        ignored.  The nine are written in the scanner's byte form and read
        back as a resumed line is, by ``_LINE_PATTERN`` and ``_checked``, so
        a missing key, a field of another JSON type or a record that
        disagrees with its quintuple raises ValueError."""
        try:
            line = json.dumps({key: obj[key] for key in _JSON_KEYS}) + "\n"
        except (KeyError, TypeError) as exc:
            raise ValueError(f"bad deficiency record: {obj!r}") from exc
        hit = re.fullmatch(_LINE_PATTERN, line.encode())
        if hit is None:
            raise ValueError(f"bad deficiency record field types: {obj!r}")
        *ints, flag = hit.groups()
        return cls(*_checked((*map(int, ints), flag == b"true")))


def _block_records(line: bytes, lines, match) -> tuple[list[bytes], dict | None]:
    """The block of lines that ``line`` opens, with its records when it is
    a complete quadruple in the scanner's byte form, else with None.

    If ``line`` matches ``_LINE_PATTERN`` and opens a valid quadruple, at
    k = ell*d + 1, the block holds the t - 2 lines after it, read from the
    iterator ``lines``, t = m + n - ell*d; otherwise it is ``line`` alone.
    Its middle line gives r.  Every rank of the quadruple follows from r,
    so for 1 <= r <= c = min(m, t // 2), if the block's bytes are
    ``_record_lines`` of the ranks ``_tent(t, r)``, each of its lines is a
    record that ``_checked`` passes.  Then its records are returned, keyed
    by quintuple in file order, as the per-line path would read them.
    """
    block = [line]
    hit = match(line)
    if hit is None:
        return block, None
    m, n, d, ell, k = map(int, hit.group(1, 2, 3, 4, 5))
    shift = d * ell
    t = m + n - shift
    if not (1 <= m <= n and d >= 1 and ell >= 1 and k == shift + 1 and t >= 2):
        return block, None
    block += islice(lines, t - 2)
    mid = match(block[t // 2 - 1]) if len(block) == t - 1 else None
    c = min(m, t // 2)
    if mid is None or not 1 <= (r := int(mid[6])) <= c:
        return block, None
    ks = range(k, m + n)
    tops = _tent(t, c)
    if b"".join(block) != _record_lines(m, n, d, ell, zip(ks, _tent(t, r), tops)):
        return block, None
    if r == c:
        return block, dict.fromkeys([(m, n, d, ell, k) for k in ks])
    return block, {
        (m, n, d, ell, k): DeficiencyRecord(
            m, n, d, ell, k, rk, mr, mr - rk,
            ell < mr <= d and _predicted(m, n, d, ell, k, mr)) if rk < mr else None
        for k, rk, mr in zip(ks, _tent(t, r), tops)
    }


def _load_records(path: Path) -> dict[tuple, DeficiencyRecord | None]:
    """Every record of a scan file, keyed by quintuple: its
    ``DeficiencyRecord`` when it is deficient, else None.

    The file is read one quadruple's block of lines at a time, by
    ``_block_records``: a complete block in the scanner's byte form is
    taken whole, by one comparison, without ``_checked`` or a regular
    expression on each line.  Any other line, of a subset of a block,
    another order, a tampered rank or a foreign form, is read on its own,
    by ``_LINE_PATTERN`` and ``_checked``.

    Every record ends with a newline, so text after the last one is a
    record cut short by an interrupted run: it is dropped, and cut off the
    file so that appended records start on a line of their own.  Any
    complete line not in the scanner's byte form, or that fails
    ``_checked``, a blank one too, raises ValueError naming the file and
    the line's number, and leaves the file as it was.
    """
    records = {}
    if not path.exists():
        return records
    # Compiled here, not at import: re caches it, so only the first resume
    # pays for it.
    match = re.compile(_LINE_PATTERN).fullmatch
    with path.open("r+b") as fh:
        lines = iter(fh)
        number = end = 0
        for line in lines:
            block, found = _block_records(line, lines, match)
            if found is not None:
                records.update(found)
                number += len(block)
                end += sum(map(len, block))
                continue
            for text in block:
                number += 1
                if not text.endswith(b"\n"):
                    # Only the file's last line can lack a newline, so this
                    # ends the outer loop too.
                    fh.truncate(end)
                    break
                end += len(text)
                hit = match(text)
                try:
                    if hit is None:
                        text = text.decode(errors="replace")
                        raise ValueError(f"not a scan record line: {text!r}")
                    *ints, flag = hit.groups()
                    fields = _checked((*map(int, ints), flag == b"true"))
                except ValueError as exc:
                    raise type(exc)(f"{path}:{number}: {exc}") from None
                records[fields[:5]] = DeficiencyRecord(*fields) if fields[7] else None
    return records


def scan_deficiencies(
    m_max: int,
    n_max: int,
    d_max: int,
    ell_max: int,
    out_path: "str | Path | None" = None,
) -> list[DeficiencyRecord]:
    """Scan all valid quintuples in range and return the rank-deficient ones.

    Only normalized pairs m <= n are visited, one quadruple (m, n, d, ell)
    at a time.  Each quadruple takes one ``_hankel_rank``, which takes a
    linear complexity only for an uncertified middle R_k at d >= 2, and
    each (d, ell) gamma is built once, when a quadruple first takes one at
    ell or above.  With ``out_path`` every scanned record is appended as
    one JSON line, and each quadruple's new lines are written and flushed
    together, in one write of ``_record_lines``, so a killed scan keeps
    every quadruple it finished.  A quadruple whose records are all present
    in the file is not recomputed, so an interrupted sweep resumes where it
    stopped; resumed records are checked against their quintuples, a
    complete block by one comparison with ``_record_lines`` and any other
    line on its own, and their ranks are the ones reported.
    """
    bounds = (m_max, n_max, d_max, ell_max)
    if any(type(b) is not int or b < 1 for b in bounds):
        raise ValueError(f"bounds must be integers >= 1, got {bounds!r}")
    path = Path(out_path) if out_path is not None else None
    existing = _load_records(path) if path is not None else {}
    have = Counter(key[:4] for key in existing)
    # The file may hold records of a larger box; only those in this one
    # are reported.
    deficient = [rec for rec in existing.values()
                 if rec is not None and all(map(le, rec[:4], bounds))]
    # gammas[d][ell] is the gamma of (d, ell), up to the largest ell
    # ranked by linear complexity so far.
    gammas: dict[int, list[list[int]]] = {}
    sink = path.open("ab") if path is not None else None
    try:
        for m in range(1, m_max + 1):
            for n in range(m, n_max + 1):
                for d in range(1, d_max + 1):
                    powers = gammas.setdefault(d, [[1]])
                    for ell in range(1, ell_max + 1):
                        shift = d * ell
                        t = m + n - shift
                        if t < 2:
                            break  # no k; a larger ell only shifts ks further up
                        done = have[m, n, d, ell]
                        if done == t - 1:
                            continue
                        ks = range(shift + 1, m + n)
                        c = min(m, t // 2)
                        tops = _tent(t, c)
                        # r is at most c, the middle's largest rank, and
                        # every rank is at its largest exactly when r = c.
                        r = _hankel_rank(m, n, d, ell, powers)
                        full = r == c
                        rows = zip(ks, tops if full else _tent(t, r), tops)
                        if done:
                            rows = [row for row in rows
                                    if (m, n, d, ell, row[0]) not in existing]
                        if not full:
                            rows = [*rows]
                            deficient.extend(
                                DeficiencyRecord(m, n, d, ell, k, rk, mr, mr - rk,
                                                 ell < mr <= d
                                                 and _predicted(m, n, d, ell, k, mr))
                                for k, rk, mr in rows if rk < mr)
                        if sink is not None:
                            # One write a quadruple; the flush hands the whole
                            # block to the file before the next is computed.
                            sink.write(_record_lines(m, n, d, ell, rows))
                            sink.flush()
    finally:
        if sink is not None:
            sink.close()
    deficient.sort()
    return deficient
