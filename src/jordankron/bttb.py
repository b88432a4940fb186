"""Builders for the structured matrices of the Jordan-block calculus.

Evaluating a bivariate polynomial p on a pair of Jordan blocks,
``P = sum a_ij (J_m(lam)^i (x) J_n(mu)^j)``, produces a block-Toeplitz
matrix with Toeplitz blocks whose entries are Hasse derivative values of p
at (lam, mu).  ``build_block_pair`` fills that matrix directly from the
entry formula.

For matrices given by their Jordan data, ``build_full`` returns the direct
sum over all block pairs, which is permutation similar to the Kronecker
ordering and therefore interchangeable with it for any Jordan-structure
purpose.  ``build_raw_kron`` provides the literal Kronecker ordering for
cross-validation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable

from .exactmat import RationalMatrix, direct_sum, jordan_block, kron
from .polyring import (
    BivariatePoly,
    RationalLike,
    UnivariatePoly,
    bezout_quotient,
    format_rational,
    hasse_value_table,
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


@dataclass(frozen=True)
class JordanSpec:
    """A matrix described by its Jordan blocks: a multiset of (eigenvalue, size).

    Blocks are kept in canonical order, eigenvalue ascending then size
    descending.
    """

    blocks: tuple[tuple[Fraction, int], ...]

    def __init__(self, blocks: Iterable[tuple[RationalLike, int]]):
        norm = []
        for eig, size in blocks:
            norm.append((Fraction(eig), parse_block_size(size)))
        norm.sort(key=lambda b: (b[0], -b[1]))
        object.__setattr__(self, "blocks", tuple(norm))

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
    (lam, mu) when both offsets are nonnegative, and 0 otherwise.
    """
    if m < 1 or n < 1:
        raise ValueError("block sizes must be positive")
    vals = hasse_value_table(p, lam, mu, m - 1, n - 1)
    zero = Fraction(0)
    data = []
    for br in range(m):
        for jr in range(n):
            row = []
            for bc in range(m):
                h = bc - br
                if h < 0:
                    row.extend([zero] * n)
                    continue
                hrow = vals[h]
                row.extend(
                    hrow[jc - jr] if jc >= jr else zero for jc in range(n)
                )
            data.append(row)
    return RationalMatrix(data)


def block_pair_nilpotent_rows(
    p: BivariatePoly,
    lam: RationalLike,
    m: int,
    mu: RationalLike,
    n: int,
) -> list[dict[int, int]]:
    """Sparse integer rows of L * (P - p(lam, mu) I), P = build_block_pair(...).

    L is the common denominator of the entries, so the rows are exactly
    ``_scaled_int_rows(build_block_pair(p, lam, m, mu, n).shifted(eig))``
    with eig = p(lam, mu), the order-(0, 0) value.  Row r maps each column
    holding a nonzero entry to that entry.
    """
    if m < 1 or n < 1:
        raise ValueError("block sizes must be positive")
    vals = hasse_value_table(p, lam, mu, m - 1, n - 1)
    # The shift cancels the diagonal offset (0, 0); every other offset
    # occurs in the matrix, so its denominator enters L.
    offsets = [
        (h, k, v)
        for h, hrow in enumerate(vals)
        for k, v in enumerate(hrow)
        if v and (h or k)
    ]
    denom = lcm(*(v.denominator for _, _, v in offsets))
    offsets = [(h, k, v.numerator * (denom // v.denominator)) for h, k, v in offsets]
    return [
        {n * (br + h) + jr + k: v for h, k, v in offsets if br + h < m and jr + k < n}
        for br in range(m)
        for jr in range(n)
    ]


def block_pairs(x: JordanSpec, y: JordanSpec):
    """All (lam, m, mu, n) pairs of the two specs, in canonical order."""
    for lam, m in x.blocks:
        for mu, n in y.blocks:
            yield lam, m, mu, n


def build_full(p: BivariatePoly, x: JordanSpec, y: JordanSpec) -> RationalMatrix:
    """Direct sum of build_block_pair over all block pairs of x and y."""
    return direct_sum(
        [build_block_pair(p, lam, m, mu, n) for lam, m, mu, n in block_pairs(x, y)]
    )


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


def frechet_kronecker_form(f: UnivariatePoly, w: JordanSpec) -> RationalMatrix:
    """Matrix representation of the derivative of the map A -> f(A) at w.

    A Jordan spec is similarity invariant under transposition, so the
    transposed left factor contributes the same spec and the result is
    build_full of the difference quotient of f on (w, w).
    """
    return build_full(bezout_quotient(f), w, w)
