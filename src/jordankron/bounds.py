"""Guarantees for the doubly-critical case.

When both first Hasse derivatives of p vanish at (lam, mu) and both blocks
have size above one, no closed-form block structure is available.  What
survives is arithmetic in (m, n, d), where d is the local degree of p at
the point:

* every Jordan block has size at most ceil((m + n - 1) / d);
* the number of blocks lies between the explicit bounds of
  :func:`block_count_bounds`.

The filtration dimensions u_j = min(j, m, n + m - j) underlie both bounds
and also size the banded Toeplitz matrices in :mod:`jordankron.toeplitz`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class FiltrationDims:
    """Dimensions u_1 .. u_(m+n-1) of the graded pieces of the antidiagonal
    filtration of an m x n grid (normalized so m <= n)."""

    m: int
    n: int
    dims: tuple[int, ...]

    def u(self, j: int) -> int:
        """u_j, with u_j = 0 outside 1 <= j <= m + n - 1."""
        return filtration_dim(self.m, self.n, j)


def filtration_dim(m: int, n: int, j: int) -> int:
    """u_j = min(j, m, n, m + n - j) on 1 <= j <= m + n - 1, else 0.

    O(1) and symmetric in (m, n); every filtration dimension in the package
    is read from here.
    """
    if j < 1 or j >= m + n:
        return 0
    return min(j, m, n, m + n - j)


def filtration_dims(m: int, n: int) -> FiltrationDims:
    """The sequence u_j = min(j, m, n + m - j); arguments in either order."""
    if m < 1 or n < 1:
        raise ValueError("sizes must be positive")
    if m > n:
        m, n = n, m
    dims = tuple(filtration_dim(m, n, j) for j in range(1, m + n))
    return FiltrationDims(m, n, dims)


def max_block_size_bound(m: int, n: int, d: int) -> int:
    """Upper bound ceil((m + n - 1) / d) on any Jordan block size."""
    if m < 1 or n < 1 or d < 1:
        raise ValueError("arguments must be positive")
    return -(-(m + n - 1) // d)


def block_count_bounds(m: int, n: int, d: int) -> tuple[int, int]:
    """(lower, upper) bounds on the number of Jordan blocks of the pair.

    For d >= m + n - 1 the matrix is scalar and the count is exactly mn.
    Otherwise the upper bound is max(m, n) * min(m, n, d) and the lower
    bound is d * min(m, n), reduced by floor(delta^2 / 4) when
    delta = d - |n - m| is positive.
    """
    if m < 1 or n < 1 or d < 1:
        raise ValueError("arguments must be positive")
    if d >= m + n - 1:
        return m * n, m * n
    upper = max(m, n) * min(m, n, d)
    delta = d - abs(n - m)
    lower = d * min(m, n)
    if delta > 0:
        lower -= delta * delta // 4
    return lower, upper


@dataclass(frozen=True)
class PairBounds:
    """Both bounds for one degenerate pair of sizes (m, n) at local degree d."""

    local_degree: int
    max_block_size: int
    count_lower: int
    count_upper: int

    def hold(self, sizes: Sequence[int]) -> bool:
        """Whether descending block sizes satisfy both bounds."""
        return (
            self.count_lower <= len(sizes) <= self.count_upper
            and sizes[0] <= self.max_block_size
        )

    def to_json_obj(self) -> dict:
        return {
            "localDegree": self.local_degree,
            "maxBlockSize": self.max_block_size,
            "countLower": self.count_lower,
            "countUpper": self.count_upper,
        }
