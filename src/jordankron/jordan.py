"""The Jordan data both routes share.

A :class:`JordanSpec` describes a matrix by its Jordan blocks, and a
:class:`JordanStructure` is what both routes answer for p on a pair of
specs: the closed-form predictors of ``generic`` and ``frechet`` and the
brute-force oracle of ``oracle``.  ``per_block_pair`` is the one walk over
the block pairs of two specs, for the predictors and the oracle alike.
``sizes_from_nullities`` is the one Weyr formula from the nullities of
the powers of a nilpotent matrix to its block sizes; the oracle reads the
nullities off its image chain, the equal-eigenvalue predictor off its sums
of Toeplitz ranks.

This module imports only ``polyring``, and the two routes share no other
module of the package.  The predictors (``generic``, ``frechet``,
``toeplitz``, ``bounds``) import neither ``similarity`` nor the oracle side
(``oracle``, its builders in ``bttb``, the matrices of ``exactmat``), and
the oracle side imports no predictor, so the oracle checks the predictors
with none of their code.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence

from .polyring import RationalLike, exact_rational, format_rational, parse_rational



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


def per_block_pair(answer, p, x: JordanSpec, y: JordanSpec, mirror=None) -> list:
    """``answer(p, lam, m, mu, n)`` for every block pair of (x, y), x's
    blocks outer and y's inner, each in canonical order, called once per
    distinct ordered pair: a repeated pair reuses its answer.  Given
    ``mirror``, a pair whose swap is already answered takes ``mirror`` of
    that answer instead.  No answer is None.
    """
    # Each distinct block gets a number once, so that no Fraction is hashed per pair.
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
