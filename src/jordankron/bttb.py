"""Builders for the structured matrices of the Jordan-block calculus.

Evaluating a bivariate polynomial p on a pair of Jordan blocks,
``P = sum a_ij (J_m(lam)^i (x) J_n(mu)^j)``, produces a block-Toeplitz
matrix with Toeplitz blocks whose entries are Hasse derivative values of p
at (lam, mu).  The builders compute them from that definition, never from
the Hasse table the predictors read: ``_offset_table`` combines the first
rows of the blocks' powers term by term, in integers over one denominator.
``build_block_pair`` fills the matrix from that one table.  For the oracle,
``block_pair_nilpotent_rows`` reads the eigenvalue off it and gives the
matrix shifted by it to be nilpotent, as sparse integer rows.

``per_block_pair`` is the one walk over the block pairs of two Jordan
specs, for the predictors and the oracle too.  Through it ``build_full``
returns the direct sum over all block pairs, which is permutation similar
to the Kronecker ordering and therefore interchangeable with it for any
Jordan-structure purpose.  ``build_raw_kron`` provides the literal
Kronecker ordering for cross-validation.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, NamedTuple

from .exactmat import RationalMatrix, _from_int_rows, direct_sum, jordan_block, kron
from .polyring import (
    BivariatePoly,
    RationalLike,
    exact_rational,
    format_rational,
    parse_rational,
)


def parse_block_size(value) -> int:
    """A block size, from JSON or a constructor: an integer >= 1, never
    coerced.

    Floats (even integral ones), bools and strings are rejected rather than
    truncated or converted.
    """
    if type(value) is not int or value < 1:
        raise ValueError(f"a block size must be an integer >= 1, got {value!r}")
    return value


class _Blocks(NamedTuple):
    blocks: tuple[tuple[Fraction, int], ...]


class JordanSpec(_Blocks):
    """A matrix described by its Jordan blocks: a multiset of (eigenvalue, size).

    Blocks are kept in canonical order, eigenvalue ascending then size
    descending.  A spec has at least one block.
    """

    __slots__ = ()

    def __new__(cls, blocks: Iterable[tuple[RationalLike, int]]):
        norm = []
        for eig, size in blocks:
            norm.append((Fraction(exact_rational(eig)), parse_block_size(size)))
        if not norm:
            raise ValueError("a Jordan spec needs at least one block")
        norm.sort(key=lambda b: (b[0], -b[1]))
        return super().__new__(cls, tuple(norm))

    @classmethod
    def single(cls, eig: RationalLike, size: int) -> "JordanSpec":
        return cls([(eig, size)])

    @property
    def total_size(self) -> int:
        return sum(size for _, size in self.blocks)

    def eigenvalues(self) -> tuple[Fraction, ...]:
        return tuple(sorted({eig for eig, _ in self.blocks}))

    @classmethod
    def from_json_obj(cls, obj) -> "JordanSpec":
        if not isinstance(obj, list):
            raise ValueError("a Jordan spec is a JSON list of blocks")
        blocks = []
        for item in obj:
            try:
                blocks.append((parse_rational(str(item["eig"])), item["size"]))
            except (KeyError, TypeError) as exc:
                raise ValueError(f"bad Jordan block entry: {item!r}") from exc
        return cls(blocks)

    @classmethod
    def from_json(cls, text: str) -> "JordanSpec":
        try:
            obj = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ValueError(f"bad Jordan spec JSON: {exc}") from exc
        return cls.from_json_obj(obj)

    def to_json_obj(self) -> list:
        return [
            {"eig": format_rational(eig), "size": size} for eig, size in self.blocks
        ]

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())


def _power_rows(value: "int | Fraction", size: int, deg: int) -> list[list[int]]:
    """First rows of b^deg J_size(value)^i for i = 0 .. deg, value = a/b,
    cut to their first min(size, deg + 1) entries, past which they vanish.

    A power of a Jordan block is upper triangular Toeplitz, so its first
    row fixes it, and the first row of J^(i + 1) is that of J^i times J:
    entry h becomes value u[h] + u[h - 1], which is a u[h] + b u[h - 1] in
    the rows scaled by b^i.  Row i is then scaled on to b^deg.
    """
    a, b = value.numerator, value.denominator
    u = [1] + [0] * (min(size, deg + 1) - 1)
    rows = [u]
    for _ in range(deg):
        u = [a * u[0]] + [a * x + b * y for x, y in zip(u[1:], u)]
        rows.append(u)
    if b != 1:
        rows = [[x * b ** (deg - i) for x in row] for i, row in enumerate(rows)]
    return rows


def _offset_table(
    p: BivariatePoly,
    lam: RationalLike,
    m: int,
    mu: RationalLike,
    n: int,
) -> tuple[list[list[int]], int]:
    """The entries of P = sum a_ij J_m(lam)^i (x) J_n(mu)^j by offset, from
    that definition, as integer rows over one denominator: ``num[h][k] /
    den`` is the entry at block offset h and in-block offset k, for
    0 <= h < m and 0 <= k < n.  m and n must pass ``parse_block_size``.

    J_m(lam)^i (x) J_n(mu)^j has the entry u_i[h] v_j[k] at offset (h, k),
    for the first rows u_i of J_m(lam)^i and v_j of J_n(mu)^j.  With the
    coefficients of ``p.terms()`` over their lcm L, lam = a/b and mu = c/e,
    every entry is an integer over den = L b^Dx e^Dy, for the largest
    powers Dx of x and Dy of y in the terms.  The sum over j is taken first:
    w_i = sum_j a_ij v_j, then num[h] = sum_i u_i[h] w_i.
    """
    m, n = parse_block_size(m), parse_block_size(n)
    lam, mu = exact_rational(lam), exact_rational(mu)
    terms = [*p.terms()]
    num = [[0] * n for _ in range(m)]
    if not terms:
        return num, 1
    dx = max(i for i, _, _ in terms)
    dy = max(j for _, j, _ in terms)
    big_l = lcm(*(c.denominator for _, _, c in terms))
    us, vs = _power_rows(lam, m, dx), _power_rows(mu, n, dy)
    ws: dict[int, list[int]] = {}
    for i, j, c in terms:
        w = ws.setdefault(i, [0] * len(vs[0]))
        scaled = c.numerator * (big_l // c.denominator)
        for k, v in enumerate(vs[j]):
            w[k] += scaled * v
    for i, w in ws.items():
        for row, u in zip(num, us[i]):
            if u:
                for k, x in enumerate(w):
                    row[k] += u * x
    return num, big_l * lam.denominator**dx * mu.denominator**dy


def build_block_pair(
    p: BivariatePoly,
    lam: RationalLike,
    m: int,
    mu: RationalLike,
    n: int,
) -> RationalMatrix:
    """The mn x mn matrix of p evaluated on the Jordan pair (lam, m), (mu, n).

    Entry (r, c), with r = n*(i_r - 1) + j_r and c = n*(i_c - 1) + j_c,
    equals the order-(i_c - i_r, j_c - j_r) Hasse derivative of p at
    (lam, mu) when both offsets are nonnegative, and 0 otherwise.  The
    integer rows of ``_offset_table`` over its one denominator fill the
    matrix's integer rows directly.
    """
    num, den = _offset_table(p, lam, m, mu, n)
    data = []
    for br in range(m):
        for jr in range(n):
            row = [0] * (n * br)
            for hrow in num[: m - br]:
                row.extend([0] * jr + hrow[: n - jr])
            data.append(row)
    return _from_int_rows(data, den)


def block_pair_nilpotent_rows(
    p: BivariatePoly,
    lam: RationalLike,
    m: int,
    mu: RationalLike,
    n: int,
) -> tuple[Fraction, list[dict[int, int]]]:
    """The order-(0, 0) entry eig = p(lam, mu) of the offset table, the
    pair's one eigenvalue, and the sparse integer rows of L * (P - eig I).

    P is build_block_pair(...) and L the common denominator of its entries,
    so the rows are exactly those of ``P.shifted(eig).num``.  Row r maps
    each column holding a nonzero entry to that entry.  The entries are the
    offset table's integer numerators, divided by their gcd with its
    denominator.
    """
    num, den = _offset_table(p, lam, m, mu, n)
    # The shift cancels the diagonal offset (0, 0).  Every other offset
    # occurs in the matrix, so L is den over the gcd of den and those
    # offsets' numerators.
    offsets = [
        (h, k, v)
        for h, hrow in enumerate(num)
        for k, v in enumerate(hrow)
        if v and (h or k)
    ]
    g = gcd(den, *(v for _, _, v in offsets))
    if g != 1:
        offsets = [(h, k, v // g) for h, k, v in offsets]
    return Fraction(num[0][0], den), [
        {n * (br + h) + jr + k: v for h, k, v in offsets if br + h < m and jr + k < n}
        for br in range(m)
        for jr in range(n)
    ]


def block_pairs(x: JordanSpec, y: JordanSpec):
    """All (lam, m, mu, n) pairs of the two specs, in canonical order."""
    for lam, m in x.blocks:
        for mu, n in y.blocks:
            yield lam, m, mu, n


def per_block_pair(answer, p, x: JordanSpec, y: JordanSpec, mirror=None) -> list:
    """``answer(p, lam, m, mu, n)`` for every block pair of (x, y), in
    ``block_pairs`` order, called once per distinct ordered pair: a repeated
    pair reuses its answer.  Given ``mirror``, a pair whose swap is already
    answered takes ``mirror`` of that answer instead.  No answer is None.
    """
    # Each distinct block gets a number once, so that no Fraction is hashed
    # per pair; the loops walk the pairs as block_pairs does.
    index: dict[tuple, int] = {}
    xs = [(index.setdefault(block, len(index)), *block) for block in x.blocks]
    ys = [(index.setdefault(block, len(index)), *block) for block in y.blocks]
    memo: dict[tuple[int, int], object] = {}
    answers = []
    for i, lam, m in xs:
        for j, mu, n in ys:
            ans = memo.get((i, j))
            if ans is None:
                twin = None if mirror is None else memo.get((j, i))
                ans = answer(p, lam, m, mu, n) if twin is None else mirror(twin)
                memo[i, j] = ans
            answers.append(ans)
    return answers


def build_full(p: BivariatePoly, x: JordanSpec, y: JordanSpec) -> RationalMatrix:
    """Direct sum of build_block_pair over all block pairs of x and y."""
    return direct_sum(per_block_pair(build_block_pair, p, x, y))


def assemble_jordan_matrix(spec: JordanSpec) -> RationalMatrix:
    """The concrete block-diagonal matrix described by a Jordan spec."""
    return direct_sum([jordan_block(eig, size) for eig, size in spec.blocks])


def build_raw_kron(p: BivariatePoly, x: JordanSpec, y: JordanSpec) -> RationalMatrix:
    """The literal sum a_ij (X^i (x) Y^j) on the assembled Jordan matrices."""
    a = assemble_jordan_matrix(x)
    b = assemble_jordan_matrix(y)
    a_pows = [RationalMatrix.identity(a.rows)]
    for _ in range(max(p.degree_x(), 0)):
        a_pows.append(a_pows[-1] @ a)
    b_pows = [RationalMatrix.identity(b.rows)]
    for _ in range(max(p.degree_y(), 0)):
        b_pows.append(b_pows[-1] @ b)
    acc = RationalMatrix.zeros(a.rows * b.rows, a.rows * b.rows)
    for i, j, coeff in p.terms():
        acc = acc + kron(a_pows[i], b_pows[j]).scale(coeff)
    return acc

