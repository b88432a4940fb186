"""Independent ground truth: Jordan structure by brute force.

The oracle recovers the exact Jordan canonical form of the matrices built
by :mod:`jordankron.bttb` using nothing but ranks of powers (the Weyr
characteristic): for a nilpotent Z, the number of blocks of size s equals
``2 nu_s - nu_(s-1) - nu_(s+1)`` where ``nu_s`` is the nullity of ``Z^s``.
No structure theorem is consulted anywhere in this module, which is what
makes it usable as an independent check of the predictors.

The ranks come from an image chain.  Z is scaled by the common
denominator of its entries (rank is invariant under nonzero scaling) and
held as sparse integer rows.  ``B_1`` is an echelon basis of the row space
of Z, and ``B_s`` one of the row space of ``B_(s-1) Z``, which is the row
space of ``Z^s``; so ``rank Z^s = |B_s|``.  Basis rows are kept primitive
(divided by the gcd of their entries) and eliminated fraction-free, so all
arithmetic is exact integer arithmetic.  The chain uses only row spaces and
products with Z, never any property of the matrices it is given, so it stays
structure-agnostic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping, Sequence

from .bttb import JordanSpec, block_pair_nilpotent_rows, block_pairs, parse_block_size
from .exactmat import RationalMatrix, _scaled_int_rows
from .polyring import BivariatePoly, RationalLike, format_rational, parse_rational


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


@dataclass(frozen=True)
class WeyrData:
    """Nullity sequence nu_0 = 0, nu_1, ... of the powers of a nilpotent matrix.

    The stored sequence ends at the first index reaching the ambient
    dimension.  It is strictly increasing until then, with concave
    increments.
    """

    dimension: int
    nullities: tuple[int, ...]

    def block_sizes(self) -> tuple[int, ...]:
        return sizes_from_nullities(self.nullities, self.dimension)


def _sparse_rows(rows: list[list[int]]) -> list[dict[int, int]]:
    return [{j: e for j, e in enumerate(row) if e} for row in rows]


def _echelon(rows: Iterable[dict[int, int]]) -> list[dict[int, int]]:
    """Primitive echelon basis of the row space of sparse integer rows.

    Each basis row has its own leading column, a positive leading entry and
    entries with gcd 1.  A row v is reduced against the basis row p owning
    its leading column by ``v <- a v - b p``, where a and b are the two
    leading entries divided by their gcd, so every step stays integral.
    The input rows are consumed: elimination updates them in place.
    """
    pivots: dict[int, dict[int, int]] = {}
    for v in rows:
        while v:
            lead = min(v)
            p = pivots.get(lead)
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
            a, b = a // g, b // g
            if a != 1:
                v = {c: a * x for c, x in v.items()}
            for c, x in p.items():
                y = v.get(c, 0) - b * x
                if y:
                    v[c] = y
                else:
                    del v[c]
    return list(pivots.values())


def _times(v: dict[int, int], z_rows: list[dict[int, int]]) -> dict[int, int]:
    """The sparse row vector v times the matrix with sparse rows z_rows."""
    acc: dict[int, int] = {}
    for j, vj in v.items():
        for c, x in z_rows[j].items():
            acc[c] = acc.get(c, 0) + vj * x
    return {c: x for c, x in acc.items() if x}


def _nullity_chain(z_rows: list[dict[int, int]], strict: bool) -> list[int]:
    """Nullities nu_0 = 0, nu_1, ... of the powers of a square matrix.

    The chain stops at the first power whose nullity reaches the dimension
    or equals the previous one (the nullities are then stable).  A stop of
    the second kind means the matrix is not nilpotent: with ``strict`` it
    raises NotNilpotentError, otherwise the stable value is the algebraic
    multiplicity of the eigenvalue 0 and is the last entry returned.
    """
    dim = len(z_rows)
    nullities = [0]
    basis = _echelon(dict(row) for row in z_rows if row)
    while True:
        nu = dim - len(basis)
        if nu == nullities[-1]:
            if strict:
                raise NotNilpotentError(
                    f"nullity sequence stabilized at {nu} below the dimension {dim}"
                )
            return nullities
        nullities.append(nu)
        if nu == dim:
            return nullities
        basis = _echelon(_times(row, z_rows) for row in basis)


def weyr_data(z: RationalMatrix) -> WeyrData:
    """Nullity sequence of z, z^2, ...; z must be square and nilpotent."""
    if not z.is_square():
        raise ValueError("need a square matrix")
    rows = _sparse_rows(_scaled_int_rows(z))
    return WeyrData(z.rows, tuple(_nullity_chain(rows, strict=True)))


def weyr_structure(z: RationalMatrix) -> tuple[int, ...]:
    """Jordan block sizes of a nilpotent matrix, descending."""
    return weyr_data(z).block_sizes()


def oracle_pair_sizes(
    p: BivariatePoly, lam: RationalLike, m: int, mu: RationalLike, n: int
) -> tuple[int, ...]:
    """Jordan block sizes of p on the Jordan pair (lam, m), (mu, n), all at
    its only eigenvalue p(lam, mu), descending."""
    rows = block_pair_nilpotent_rows(p, lam, m, mu, n)
    return sizes_from_nullities(_nullity_chain(rows, strict=True), m * n)


class JordanStructure:
    """Map from eigenvalue to the descending multiset of its block sizes."""

    __slots__ = ("entries",)

    def __init__(self, entries: Mapping[RationalLike, Iterable[int]]):
        norm: dict[Fraction, tuple[int, ...]] = {}
        for eig, sizes in entries.items():
            sizes = tuple(sorted(map(parse_block_size, sizes), reverse=True))
            if sizes:
                norm[Fraction(eig)] = sizes
        self.entries = norm

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[RationalLike, Iterable[int]]]):
        """Accumulate (eigenvalue, sizes) contributions, merging eigenvalue
        collisions by exact rational equality."""
        acc: dict[Fraction, list[int]] = {}
        for eig, sizes in pairs:
            acc.setdefault(Fraction(eig), []).extend(sizes)
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
            pairs = [
                (
                    parse_rational(str(item["eig"])),
                    [parse_block_size(b) for b in item["blocks"]],
                )
                for item in obj["eigenvalues"]
            ]
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

    Each block pair contributes the Weyr structure of its built matrix
    shifted by its only eigenvalue p(lam, mu); contributions at equal
    eigenvalues merge.
    """
    return JordanStructure.from_pairs(
        (p.eval(lam, mu), oracle_pair_sizes(p, lam, m, mu, n))
        for lam, m, mu, n in block_pairs(x, y)
    )


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
    for eig in sorted({Fraction(e) for e in eigenvalues}):
        rows = _sparse_rows(_scaled_int_rows(a.shifted(eig)))
        nullities = _nullity_chain(rows, strict=False)
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
