"""Shared random-instance generators for the test suites."""

from __future__ import annotations

import random
from fractions import Fraction
from operator import mul

from jordankron import (
    BivariatePoly,
    BlockToeplitzUT,
    JordanSpec,
    NotNilpotentError,
    RationalMatrix,
    UnivariatePoly,
)
from jordankron.bttb import assemble_jordan_matrix
from jordankron.exactmat import kron, matrix_power


def random_univariate(rng: random.Random, max_deg=8, bound=3) -> UnivariatePoly:
    deg = rng.randint(0, max_deg)
    return UnivariatePoly([rng.randint(-bound, bound) for _ in range(deg + 1)])


def random_bivariate(rng: random.Random, max_dx=3, max_dy=3, bound=3) -> BivariatePoly:
    return BivariatePoly(
        [
            [rng.randint(-bound, bound) for _ in range(max_dy + 1)]
            for _ in range(max_dx + 1)
        ]
    )


def random_spec(
    rng: random.Random, max_blocks=2, max_size=5, eigs=(-2, -1, 0, 1, 2)
) -> JordanSpec:
    count = rng.randint(1, max_blocks)
    return JordanSpec(
        [(rng.choice(eigs), rng.randint(1, max_size)) for _ in range(count)]
    )


def random_spec_total(
    rng: random.Random, max_total=6, eigs=(-2, -1, 0, 1, 2)
) -> JordanSpec:
    """Random spec whose sizes sum to at most max_total."""
    budget = rng.randint(1, max_total)
    blocks = []
    while budget > 0:
        size = rng.randint(1, budget)
        blocks.append((rng.choice(eigs), size))
        budget -= size
    return JordanSpec(blocks)


def random_ring_row(rng: random.Random, n: int, bound=3, unit=False):
    row = [Fraction(rng.randint(-bound, bound)) for _ in range(n)]
    if unit:
        while row[0] == 0:
            row[0] = Fraction(rng.randint(-bound, bound))
    return row


def random_block_toeplitz(
    rng: random.Random, m: int, n: int, r=1, bound=3
) -> BlockToeplitzUT:
    """Random block UT Toeplitz with zero blocks below order r and an
    invertible block at order r."""
    rows = [random_ring_row(rng, n, bound)]
    rows.extend([Fraction(0)] * n for _ in range(1, r))
    rows.append(random_ring_row(rng, n, bound, unit=True))
    rows.extend(random_ring_row(rng, n, bound) for _ in range(r + 1, m))
    return BlockToeplitzUT.from_first_rows(rows)


def random_degenerate_poly(rng: random.Random, size=4, bound=3) -> BivariatePoly:
    """Nonconstant p whose both first derivatives vanish at (0, 0)."""
    while True:
        grid = [
            [rng.randint(-bound, bound) for _ in range(size)] for _ in range(size)
        ]
        grid[0][0] = grid[0][1] = grid[1][0] = 0
        p = BivariatePoly(grid)
        if not p.is_constant():
            return p


def reference_rank_int(rows: list[list[int]]) -> int:
    """Rank over Q by Bareiss fraction-free elimination with full pivoting;
    mutates its argument.  Test-only reference for the package's echelon
    kernel.

    Full pivoting (largest absolute value) keeps every intermediate entry a
    minor of the input, so the division by the previous pivot is exact.
    """
    nrows = len(rows)
    if not nrows:
        return 0
    ncols = len(rows[0])
    r = 0
    prev = 1
    lim = min(nrows, ncols)
    while r < lim:
        bi = bj = -1
        best = 0
        for i in range(r, nrows):
            row = rows[i]
            for j in range(r, ncols):
                v = row[j]
                if v:
                    a = -v if v < 0 else v
                    if a > best:
                        best, bi, bj = a, i, j
        if bi < 0:
            return r
        if bi != r:
            rows[r], rows[bi] = rows[bi], rows[r]
        if bj != r:
            for row in rows:
                row[r], row[bj] = row[bj], row[r]
        piv_row = rows[r]
        piv = piv_row[r]
        for i in range(r + 1, nrows):
            row = rows[i]
            f = row[r]
            if f:
                for j in range(r + 1, ncols):
                    row[j] = (row[j] * piv - f * piv_row[j]) // prev
            elif prev != 1:
                for j in range(r + 1, ncols):
                    row[j] = row[j] * piv // prev
            else:
                for j in range(r + 1, ncols):
                    row[j] = row[j] * piv
            row[r] = 0
        prev = piv
        r += 1
    return r


def _matmul_int_rows(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    bt = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in bt] for row in a]


def reference_nullities(rows: list[list[int]], strict: bool = True) -> list[int]:
    """Nullities nu_0 = 0, nu_1, ... of the powers of a dense integer matrix,
    by forming each power with a dense product and eliminating it from
    scratch.  Stops where the nullity reaches the dimension or stabilizes;
    a stabilization below the dimension raises NotNilpotentError when
    ``strict``.  Test-only reference for the oracle's image chain."""
    dim = len(rows)
    nullities = [0]
    current = rows
    while True:
        nu = dim - reference_rank_int([row[:] for row in current])
        if nu == nullities[-1]:
            if strict:
                raise NotNilpotentError("nullities stabilized below the dimension")
            return nullities
        nullities.append(nu)
        if nu == dim:
            return nullities
        current = _matmul_int_rows(current, rows)


def conjugated(spec: JordanSpec, ops) -> RationalMatrix:
    """S J S^-1 for J the Jordan matrix of spec and S the product of the
    elementary matrices I + c e_i e_j^T given as (i, j, c) in ops; pairs with
    i == j are skipped.  The result is dense and rational for enough ops,
    and has exactly the Jordan structure of spec."""
    data = [list(row) for row in assemble_jordan_matrix(spec).data]
    for i, j, c in ops:
        if i == j or not c:
            continue
        # Left factor adds c * row j to row i; right factor (its inverse)
        # subtracts c * column i from column j.
        data[i] = [a + c * b for a, b in zip(data[i], data[j])]
        for row in data:
            row[j] -= c * row[i]
    return RationalMatrix(data)


def univariate_at_matrix(f: UnivariatePoly, a: RationalMatrix) -> RationalMatrix:
    """f(A) for a square matrix A, by Horner's rule."""
    if not a.is_square():
        raise ValueError("need a square matrix")
    n = a.rows
    acc = RationalMatrix.zeros(n, n)
    for c in reversed(f.coeffs):
        acc = acc @ a
        if c:
            acc = acc + RationalMatrix.identity(n).scale(c)
    return acc


def frechet_kronecker_raw(f: UnivariatePoly, w: RationalMatrix) -> RationalMatrix:
    """The literal derivative representation sum_i f_i sum_j (W^T)^j (x) W^(i-j).

    Here f_i is the coefficient of w^(i+1) in f.  Cross-check companion of
    frechet_kronecker_form for a concrete matrix argument.
    """
    if not w.is_square():
        raise ValueError("need a square matrix")
    n = w.rows
    deg = f.degree
    dim = n * n
    acc = RationalMatrix.zeros(dim, dim)
    if deg < 1:
        return acc
    wt = w.transpose()
    wt_pows = [matrix_power(wt, j) for j in range(deg)]
    w_pows = [matrix_power(w, j) for j in range(deg)]
    for i in range(deg):
        c = f.coeffs[i + 1]
        if not c:
            continue
        for j in range(i + 1):
            acc = acc + kron(wt_pows[j], w_pows[i - j]).scale(c)
    return acc
