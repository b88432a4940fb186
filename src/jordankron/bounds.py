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

from typing import NamedTuple, Sequence


def filtration_dim(m: int, n: int, j: int) -> int:
    """u_j = min(j, m, n, m + n - j) on 1 <= j <= m + n - 1, else 0.

    O(1) and symmetric in (m, n); no module of the package reads it.
    ``toeplitz._predicted`` writes u_(k - ell*d) and u_k out for m <= n,
    and the largest rank min(u_(k - ell*d), u_k) of R_k is written out as
    min(k - ell*d, m + n - k, m) in toeplitz's ``rho``,
    ``sufficient_rank_drop``, ``_checked`` and ``_hankel_rank``, and as the
    scanner's row ``_tent(t, min(m, t // 2))``, t = m + n - ell*d.
    """
    if j < 1 or j >= m + n:
        return 0
    return min(j, m, n, m + n - j)


def _check_arguments(m: int, n: int, d: int) -> None:
    """Raise ValueError unless m, n and d are ints >= 1 (bools excluded)."""
    if any(type(a) is not int or a < 1 for a in (m, n, d)):
        raise ValueError(f"arguments must be integers >= 1, got {(m, n, d)!r}")


def max_block_size_bound(m: int, n: int, d: int) -> int:
    """Upper bound ceil((m + n - 1) / d) on any Jordan block size."""
    _check_arguments(m, n, d)
    return -(-(m + n - 1) // d)


def block_count_bounds(m: int, n: int, d: int) -> tuple[int, int]:
    """(lower, upper) bounds on the number of Jordan blocks of the pair.

    For d >= m + n - 1 the matrix is scalar and the count is exactly mn.
    Otherwise the upper bound is max(m, n) * min(m, n, d) and the lower
    bound is d * min(m, n), reduced by floor(delta^2 / 4) when
    delta = d - |n - m| is positive.
    """
    _check_arguments(m, n, d)
    if d >= m + n - 1:
        return m * n, m * n
    upper = max(m, n) * min(m, n, d)
    delta = d - abs(n - m)
    lower = d * min(m, n)
    if delta > 0:
        lower -= delta * delta // 4
    return lower, upper


class PairBounds(NamedTuple):
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
