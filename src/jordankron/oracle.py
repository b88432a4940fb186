"""Independent ground truth: Jordan structure by brute force.

The oracle recovers the exact Jordan canonical form of the matrices built
by :mod:`jordankron.bttb` using nothing but ranks of powers (the Weyr
characteristic): for a nilpotent Z, the number of blocks of size s equals
``2 nu_s - nu_(s-1) - nu_(s+1)`` where ``nu_s`` is the nullity of ``Z^s``.
No structure theorem is consulted anywhere in this module, which is what
makes it usable as an independent check of the predictors.

The ranks come from an image chain on sparse integer rows of Z scaled by
its common denominator (rank is invariant under nonzero scaling): the
``num`` rows of a :class:`~jordankron.exactmat.RationalMatrix`, or for a
block pair the rows of :func:`~jordankron.bttb.block_pair_nilpotent_rows`,
built from the definition of P, not from the Hasse table the predictors
read.  ``B_1`` is an echelon basis of the row space of Z, and ``B_s`` one
of the row space of ``B_(s-1) Z``, which is the row space of ``Z^s``; so
``rank Z^s = |B_s|``.  Each power is one pass: every row of ``B_(s-1)`` is
multiplied by Z, and the product v is at once reduced by ``v <- a v - b p``
against the row p of ``B_s`` owning its leading column, where a and b are
the two leading entries divided by their gcd.  A product that survives
joins ``B_s`` divided by the gcd of its entries, with a positive leading
entry, so all arithmetic is exact integer arithmetic.  The chain uses only
row spaces and products with Z, never any property of the matrices it is
given, so it stays structure-agnostic.  It runs until the nullities stop
growing, and their last value is the algebraic multiplicity of 0:
``oracle_pair`` requires it to be the dimension, which certifies the
eigenvalue it read off the pair's offset table and returns beside the
sizes, and ``oracle_jcf_matrix`` reads it as the multiplicity of each
candidate eigenvalue.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping, Sequence

from .bttb import JordanSpec, block_pair_nilpotent_rows, parse_block_size, per_block_pair
from .exactmat import RationalMatrix
from .polyring import (
    BivariatePoly,
    RationalLike,
    exact_rational,
    format_rational,
    parse_rational,
)


class NotNilpotentError(ValueError):
    """The matrix handed to the Weyr computation is not nilpotent."""


class WeyrConsistencyError(ArithmeticError):
    """A nullity sequence cannot be the Weyr characteristic of any matrix.

    Raised instead of an ``assert`` so the check survives ``python -O``; it
    signals a defect in a rank computation, not bad input.
    """


def sizes_from_nullities(nullities: Sequence[int], dim: int) -> tuple[int, ...]:
    """Jordan block sizes, descending, from nu_0 = 0, nu_1, ... of a
    nilpotent part of dimension dim.

    The sequence is read as constant past its last entry.  It must never
    decrease, its steps must never grow (so no block count is negative),
    and it must end at dim; otherwise WeyrConsistencyError is raised.
    """
    nus = list(nullities)
    nus.extend([nus[-1]] * 2)
    sizes: list[int] = []
    for s in range(1, len(nus) - 1):
        if nus[s] < nus[s - 1]:
            raise WeyrConsistencyError(f"decreasing nullity step at power {s}")
        count = 2 * nus[s] - nus[s - 1] - nus[s + 1]
        if count < 0:
            raise WeyrConsistencyError(
                f"negative block count {count} for size {s}: nonconcave nullity steps"
            )
        sizes.extend([s] * count)
    if sum(sizes) != dim:
        raise WeyrConsistencyError(
            f"block sizes sum to {sum(sizes)}, not the dimension {dim}"
        )
    sizes.sort(reverse=True)
    return tuple(sizes)


def _sparse_rows(rows: Iterable[Sequence[int]]) -> list[dict[int, int]]:
    return [{j: e for j, e in enumerate(row) if e} for row in rows]


def _nullity_chain(z_rows: list[dict[int, int]]) -> list[int]:
    """Nullities nu_0 = 0, nu_1, ... of the powers of a square matrix, one
    pass per power from the nonzero rows of Z (see the module docstring),
    up to the first power whose nullity reaches the dimension or equals the
    previous one: the stable value, the algebraic multiplicity of 0."""
    dim = len(z_rows)
    z_items = [tuple(row.items()) for row in z_rows]
    nullities = [0]
    basis, first = [row for row in z_rows if row], True
    while True:
        pivots: dict[int, dict[int, int]] = {}
        pivot_of = pivots.get
        for row in basis:
            if first:
                v = dict(row)
            else:
                v = {}
                get = v.get
                for j, vj in row.items():
                    for c, x in z_items[j]:
                        v[c] = get(c, 0) + vj * x
                if 0 in v.values():
                    v = {c: x for c, x in v.items() if x}
            while v:
                lead = min(v)
                p = pivot_of(lead)
                if p is None:
                    g = gcd(*v.values())
                    if v[lead] < 0:
                        g = -g
                    if g != 1:
                        v = {c: x // g for c, x in v.items()}
                    pivots[lead] = v
                    break
                a, b = p[lead], v[lead]
                g = gcd(a, b)
                if g != 1:
                    a, b = a // g, b // g
                if a != 1:
                    v = {c: a * x for c, x in v.items()}
                get = v.get
                for c, x in p.items():
                    y = get(c, 0) - b * x
                    if y:
                        v[c] = y
                    else:
                        del v[c]
        nu = dim - len(pivots)
        if nu == nullities[-1]:
            return nullities
        nullities.append(nu)
        if nu == dim:
            return nullities
        basis, first = pivots.values(), False


def oracle_pair(
    p: BivariatePoly, lam: RationalLike, m: int, mu: RationalLike, n: int
) -> tuple[Fraction, tuple[int, ...]]:
    """The only eigenvalue of p on the Jordan pair (lam, m), (mu, n), read
    off the pair's offset table, and its block sizes, descending; that the
    shifted rows are nilpotent certifies the eigenvalue."""
    eig, rows = block_pair_nilpotent_rows(p, lam, m, mu, n)
    nullities = _nullity_chain(rows)
    if nullities[-1] != m * n:
        raise NotNilpotentError(
            f"nullities stabilized at {nullities[-1]} below the dimension {m * n}"
        )
    return eig, sizes_from_nullities(nullities, m * n)


class JordanStructure:
    """Map from eigenvalue to the descending multiset of its block sizes."""

    __slots__ = ("entries",)

    def __init__(self, entries: Mapping[RationalLike, Iterable[int]]):
        norm: dict[Fraction, tuple[int, ...]] = {}
        for eig, sizes in entries.items():
            sizes = tuple(sizes)
            if set(map(type, sizes)) - {int} or min(sizes, default=1) < 1:
                list(map(parse_block_size, sizes))  # raises at the first bad size
            if sizes:
                norm[Fraction(exact_rational(eig))] = tuple(sorted(sizes, reverse=True))
        self.entries = norm

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[RationalLike, Iterable[int]]]):
        """Accumulate (eigenvalue, sizes) contributions, merging eigenvalue
        collisions by exact rational equality."""
        acc: dict[Fraction, list[int]] = {}
        for eig, sizes in pairs:
            acc.setdefault(Fraction(exact_rational(eig)), []).extend(sizes)
        return cls(acc)

    @property
    def dimension(self) -> int:
        return sum(sum(sizes) for sizes in self.entries.values())

    def sorted_items(self) -> list[tuple[Fraction, tuple[int, ...]]]:
        return sorted(self.entries.items())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, JordanStructure):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash(tuple(self.sorted_items()))

    def to_json_obj(self) -> dict:
        return {
            "eigenvalues": [
                {"eig": format_rational(eig), "blocks": list(sizes)}
                for eig, sizes in self.sorted_items()
            ]
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())

    @classmethod
    def from_json_obj(cls, obj) -> "JordanStructure":
        try:
            pairs = [(parse_rational(str(item["eig"])), item["blocks"])
                     for item in obj["eigenvalues"]]
            if not all(type(sizes) is list for _, sizes in pairs):
                raise TypeError("blocks must be a list")
        except (KeyError, TypeError) as exc:
            raise ValueError(f"bad Jordan structure JSON: {obj!r}") from exc
        return cls.from_pairs(pairs)

    @classmethod
    def from_json(cls, text: str) -> "JordanStructure":
        try:
            obj = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ValueError(f"bad Jordan structure JSON: {exc}") from exc
        return cls.from_json_obj(obj)

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{format_rational(eig)}: {list(sizes)}"
            for eig, sizes in self.sorted_items()
        )
        return f"JordanStructure({{{inner}}})"


def oracle_jcf(p: BivariatePoly, x: JordanSpec, y: JordanSpec) -> JordanStructure:
    """Exact Jordan structure of p evaluated on (x, y), by brute force.

    Each distinct block pair, a mirror included, gets one ``oracle_pair``
    answer, the Weyr structure of its built matrix at the eigenvalue that
    makes it nilpotent; contributions at equal eigenvalues merge.
    """
    return JordanStructure.from_pairs(per_block_pair(oracle_pair, p, x, y))


def oracle_jcf_matrix(
    a: RationalMatrix, eigenvalues: Iterable[RationalLike]
) -> JordanStructure:
    """Brute-force Jordan structure of a square matrix with known spectrum.

    For each candidate eigenvalue the nullity chain of (A - e I)^s is run
    until it stabilizes; the stabilized value is the algebraic
    multiplicity.  The multiplicities must sum to the dimension, otherwise
    the candidate set was wrong and a ValueError is raised.
    """
    if not a.is_square():
        raise ValueError("need a square matrix")
    dim = a.rows
    contributions = []
    covered = 0
    for eig in sorted({Fraction(exact_rational(e)) for e in eigenvalues}):
        rows = _sparse_rows(a.shifted(eig).num)
        nullities = _nullity_chain(rows)
        algebraic = nullities[-1]
        if algebraic == 0:
            continue
        covered += algebraic
        contributions.append((eig, sizes_from_nullities(nullities, algebraic)))
    if covered != dim:
        raise ValueError(
            f"candidate eigenvalues cover {covered} of {dim} dimensions"
        )
    return JordanStructure.from_pairs(contributions)
