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
matrix ``[s_(i+j)]`` of the same sequence ``s_t = gamma_(D - n + 1 + t)``,
t < N = m + n - D - 1, with k - D rows and m + n - k columns, which add up
to N + 1.  By the rank profile of a Hankel sequence (Iohvidov, *Hankel and
Toeplitz Matrices and Forms*, 1982; Heinig and Rost, *Algebraic Methods for
Toeplitz-like Matrices and Operators*, 1984), such matrices have rank
min(rows, cols, r) for one number r, the rank of the one with (N + 1) // 2
rows.  So one exact elimination per quadruple, ``hankel_rank``, by the
echelon kernel of :mod:`jordankron.exactmat`, fixes every rank of the row:

    rank R_k = min(k - D, m + n - k, r if n < k < m + D else m).

``_ranks`` is the one place that formula is written.  ``rank_row`` reads it
for every valid k of a quadruple, ``rho`` for one k, eliminating nothing
for a certified k; with r = m it gives the largest rank min(rows, cols)
itself.  Over the k of one quadruple the formula is a capped tent in k, so
``_rank_sum`` adds it up in closed form, O(1) instead of O(m + n); the
equal-eigenvalue predictor of :mod:`jordankron.frechet` takes each power's
nullity from that sum.

The rank-deficient R_k, those with min(rows, cols) > r, are what this
module's scanner hunts for.  It works one quadruple at a time, and one
``_hankel_rank`` and the ``_ranks`` row of largest ranks give every record
of the quadruple.  Every R_k of the quadruple has its largest rank
exactly when the middle one does, that is when r reaches
min(m, (m + n - D) // 2), the peak of the tent; then that row is the row
of ranks, and only below the peak is a second row read.  The rank-drop
test runs only where it can hold, for ell < d.  The quadruple's new
records reach the JSONL file in one flushed write, so a killed scan loses
no finished quadruple and resumes from its file, read one line at a time:
a line in the scanner's own byte form by one regular expression, any
other by ``json.loads``, and both through the same arithmetic checks.
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
from itertools import accumulate
from operator import itemgetter, le, sub
from pathlib import Path
from typing import NamedTuple, Sequence

from .bounds import filtration_dim
from .exactmat import _rank_int_rows


class InvalidSpecError(ValueError):
    """Parameters outside the defining range of the banded matrices."""


def _gamma_step(gamma: list[int], d: int) -> list[int]:
    """The coefficients of (1 + z + ... + z^d)^(ell + 1), given those of the
    power ell: entry i is gamma_(i - d) + ... + gamma_i, a difference of
    two prefix sums."""
    p = [*accumulate(gamma + [0] * d, initial=0)]
    return [*p[1 : d + 1], *map(sub, p[d + 1 :], p)]


def gamma_coeffs(d: int, ell: int) -> tuple[int, ...]:
    """Coefficients gamma_0 .. gamma_(ell*d) of (1 + z + ... + z^d)^ell."""
    if type(d) is not int or type(ell) is not int or d < 1 or ell < 1:
        raise ValueError(f"d and ell must be positive integers, got {(d, ell)!r}")
    gamma = [1] * (d + 1)
    for _ in range(ell - 1):
        gamma = _gamma_step(gamma, d)
    return tuple(gamma)


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


def _ranks(m: int, n: int, shift: int, r: int, ks: range) -> list[int]:
    """rank R_k for each k of ks, for m <= n, shift = ell*d and
    r = hankel_rank(m, n, d, ell); a certified k never reads r.  With r = m
    they are the largest ranks, min(u_(k - shift), u_k)."""
    top = m + shift
    return [min(k - shift, m + n - k, r if n < k < top else m) for k in ks]


def _ramp_sum(x: int, c: int) -> int:
    """The sum of min(y, c) over 1 <= y <= x, for x, c >= 0: a triangle of
    min(x, c) rows and a rectangle of height c."""
    a = min(x, c)
    return a * (a + 1) // 2 + c * (x - a)


def _rank_sum(m: int, n: int, shift: int, r: int) -> int:
    """``sum(_ranks(m, n, shift, r, range(shift + 1, m + n)))`` in O(1), for
    m <= n, shift = ell*d and r = hankel_rank(m, n, d, ell).

    Put x = k - shift and t = m + n - shift.  The term of k in ``_ranks`` is
    min(x, t - x, c) for x = 1 .. t - 1, with the cap c = r on the
    uncertified k, n < k < m + shift, and c = m on the others.  The
    uncertified x run from low + 1 to t - low - 1, for low = max(n - shift,
    0), so the certified x are two mirror-image runs of length low, or all
    of them when 2 low + 1 >= t; then no term reads r, and r = m gives the
    same terms.

    - A cap c <= t // 2 over every x sums to c (t - c): the tent rises by 1
      to c, stays there, and falls back by 1.  Since min(x, t - x) <= t // 2,
      the cap may first be cut to t // 2.
    - On x <= low < t / 2, min(x, t - x, c) is min(x, c), so either run
      sums to ``_ramp_sum(low, c)``.

    So the sum is the whole tent capped at r, with both certified runs
    moved from cap r to cap m.
    """
    t = m + n - shift
    low = max(n - shift, 0)
    if 2 * low + 1 >= t:
        r = m
    cm, cr = min(m, t // 2), min(r, t // 2)
    return cr * (t - cr) + 2 * (_ramp_sum(low, cm) - _ramp_sum(low, cr))


def _hankel_rank(m: int, n: int, d: int, ell: int, gamma: Sequence[int]) -> int:
    """``hankel_rank`` for m <= n, given the sequence of coefficients of
    (d, ell); a certified middle R_k reads none.

    With shift = ell*d, the window s_t = gamma_(shift - n + 1 + t),
    t < N = m + n - shift - 1, is one slice of gamma with zeros on either
    side where it runs past index 0 (n > shift + 1) or past index shift
    (m > shift + 1).
    """
    shift = ell * d
    mid = (m + n + shift) // 2
    rows, cols = mid - shift, m + n - mid
    if not n < mid < m + shift:
        return min(rows, cols, m)
    a = shift - n + 1
    s = [*[0] * -a, *gamma[max(a, 0) : m], *[0] * (m - 1 - shift)]
    return _rank_int_rows([s[i : i + cols] for i in range(rows)])


def hankel_rank(m: int, n: int, d: int, ell: int) -> int:
    """The rank r of R_k at the middle k = (m + n + ell*d) // 2 of the row
    of (m, n, d, ell); m and n in either order.

    The uncertified k are closed under the flip k -> m + n + ell*d - k, so
    the middle one is uncertified if any is.  Then it is the Hankel matrix
    of the module docstring with (N + 1) // 2 rows, and r takes one exact
    elimination; a certified middle R_k has full rank and needs none.
    """
    m, n = _check_params(m, n, d, ell)
    return _hankel_rank(m, n, d, ell, gamma_coeffs(d, ell))


def rank_row(m: int, n: int, d: int, ell: int) -> dict[int, int]:
    """Ranks of R_k for every valid k of (m, n, d, ell), keyed by k in
    ascending order; m and n in either order.

    They are ``_ranks`` of the row's one ``hankel_rank``, so the row costs
    at most one exact elimination.
    """
    m, n = _check_params(m, n, d, ell)
    r = _hankel_rank(m, n, d, ell, gamma_coeffs(d, ell))
    shift = ell * d
    ks = range(shift + 1, m + n)
    return dict(zip(ks, _ranks(m, n, shift, r, ks)))


def rho(m: int, n: int, d: int, ell: int, k: int) -> int:
    """Rank of the banded Toeplitz matrix R_k; m and n in either order.

    A certified k costs no matrix; any other takes the row's
    ``hankel_rank``, one exact elimination.
    """
    m, n = _check_params(m, n, d, ell, k)
    shift = ell * d
    # A certified k never reads r, so m stands in for it there.
    r = _hankel_rank(m, n, d, ell, gamma_coeffs(d, ell)) if n < k < m + shift else m
    return _ranks(m, n, shift, r, range(k, k + 1))[0]


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
    return _predicted(m, n, d, ell, k, _ranks(m, n, ell * d, m, (k,))[0])


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
    nr, nc = filtration_dim(m, n, k - shift), filtration_dim(m, n, k)
    return (ell + c) % (d + 1) >= max(nr, nc)


_JSON_KEYS = ("m", "n", "d", "ell", "k", "rank", "maxRank", "deficiency", "predicted")
_RECORD_FIELDS = itemgetter(*_JSON_KEYS)


def _checked_fields(obj: dict) -> tuple:
    """The fields m, n, d, ell, k, rank, maxRank, deficiency, predicted of a
    scan record's JSON object, in that order.

    Every field must have its JSON type, and the fields must pass
    ``_checked``; otherwise ValueError is raised.
    """
    try:
        fields = _RECORD_FIELDS(obj)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"bad deficiency record: {obj!r}") from exc
    m, n, d, ell, k, rk, max_rank, deficiency, predicted = fields
    if not (
        type(m) is type(n) is type(d) is type(ell) is type(k)
        is type(rk) is type(max_rank) is type(deficiency) is int
        and type(predicted) is bool
    ):
        raise ValueError(f"bad deficiency record field types: {obj!r}")
    return _checked(fields)


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
        max_rank != min(k - shift, m + n - k, m)  # _ranks at r = m
        or not 0 <= rk <= max_rank
        or deficiency != max_rank - rk
        or predicted is not (ell < d and _predicted(m, n, d, ell, k, max_rank))
    ):
        raise ValueError(
            "deficiency record disagrees with its spec: "
            f"{dict(zip(_JSON_KEYS, fields))!r}"
        )
    return fields


# A line in the scanner's own byte form, json.dumps(record.to_json_obj())
# and a newline, each int in JSON's integer grammar, so that "k": 04 falls
# through to json.loads and fails there.
_JSON_INT = rb"(-?(?:0|[1-9][0-9]*))"
_LINE_PATTERN = (
    rb"\{"
    + b", ".join(b'"%s": ' % key.encode() + _JSON_INT for key in _JSON_KEYS[:-1])
    + rb', "predicted": (true|false)\}' + b"\n"
)


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
        """Inverse of to_json_obj, with the checks of ``_checked_fields``."""
        return cls(*_checked_fields(obj))


def _load_records(path: Path) -> dict[tuple, DeficiencyRecord | None]:
    """Every record of a scan file, keyed by quintuple: its
    ``DeficiencyRecord`` when it is deficient, else None.

    The file is read one line at a time.  Every record ends with a newline,
    so text after the last one is a record cut short by an interrupted
    run: it is dropped, and cut off the file so that appended records start
    on a line of their own.  A line in the scanner's own byte form is read
    by ``_LINE_PATTERN``, and any other by ``json.loads`` and
    ``_checked_fields``; both end in ``_checked``, and a complete line that
    fails either route raises ValueError.
    """
    records = {}
    if not path.exists():
        return records
    # Compiled here, not at import: re caches it, so only the first resume
    # pays for it.
    match = re.compile(_LINE_PATTERN).fullmatch
    with path.open("r+b") as fh:
        end = 0
        for line in fh:
            if not line.endswith(b"\n"):
                fh.truncate(end)
                break
            end += len(line)
            hit = match(line)
            if hit is not None:
                *ints, flag = hit.groups()
                fields = _checked((*map(int, ints), flag == b"true"))
            elif line.strip():
                fields = _checked_fields(json.loads(line.decode()))
            else:
                continue
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
    at a time, and each takes one ``_hankel_rank``.  With ``out_path`` every
    scanned record is appended as one JSON line, and each quadruple's new
    lines are written and flushed together, so a killed scan keeps every
    quadruple it finished.  A quadruple whose records are all present in
    the file is not recomputed, so an interrupted sweep resumes where it
    stopped; resumed records are checked against their quintuples, and
    their ranks are the ones reported.
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
    sink = path.open("a") if path is not None else None
    try:
        for m in range(1, m_max + 1):
            for n in range(m, n_max + 1):
                for d in range(1, d_max + 1):
                    gamma = [1]
                    for ell in range(1, ell_max + 1):
                        shift = d * ell
                        ks = range(shift + 1, m + n)
                        if not ks:
                            break  # a larger ell only shifts ks further up
                        gamma = _gamma_step(gamma, d)
                        done = have[m, n, d, ell]
                        if done == len(ks):
                            continue
                        r = _hankel_rank(m, n, d, ell, gamma)
                        tops = _ranks(m, n, shift, m, ks)
                        # Every k has min(k - shift, m + n - k) <= t // 2,
                        # t = m + n - shift, so a cap r at or above
                        # min(m, t // 2) leaves every rank at its largest.
                        full = r >= min(m, (m + n - shift) // 2)
                        new = [*zip(ks, tops if full else _ranks(m, n, shift, r, ks),
                                    tops)]
                        if done:
                            new = [t for t in new
                                   if (m, n, d, ell, t[0]) not in existing]
                        if not full:
                            deficient.extend(
                                DeficiencyRecord(m, n, d, ell, k, rk, mr, mr - rk,
                                                 _predicted(m, n, d, ell, k, mr))
                                for k, rk, mr in new if rk < mr)
                        if sink is not None:
                            # Byte for byte json.dumps(record.to_json_obj()).
                            # _predicted is false unless ell < maxRank <= d.
                            head = f'{{"m": {m}, "n": {n}, "d": {d}, "ell": {ell}, "k": '
                            sink.write("".join([
                                f'{head}{k}, "rank": {rk}, "maxRank": {mr}, '
                                f'"deficiency": {mr - rk}, "predicted": '
                                f'{"true" if ell < d and _predicted(m, n, d, ell, k, mr) else "false"}}}\n'
                                for k, rk, mr in new
                            ]))
                            sink.flush()
    finally:
        if sink is not None:
            sink.close()
    deficient.sort()
    return deficient
