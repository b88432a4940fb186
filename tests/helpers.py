"""Shared random-instance generators, references and test-only
constructions for the test suites.

The references here are the slow, obviously correct counterparts of the
package's fast paths (rank kernels, the oracle's image chain, the integer
row representation of matrices, Hasse values and the derivative
predictor's Fraction route); the constructions (Weyr data of a dense
matrix, Hasse derivative polynomials, structural checks of the banded
Toeplitz family, filtration dimensions) are only needed to cross-check the
package, so they live here rather than in it.
"""

from __future__ import annotations

import json
import random
import re
import sys
from dataclasses import astuple, dataclass, replace
from fractions import Fraction
from itertools import islice
from math import comb, gcd
from operator import mul
from pathlib import Path
from typing import Iterable, NamedTuple

from jordankron import (
    INFINITE,
    BivariatePoly,
    BlockToeplitzUT,
    ConstantPolynomialError,
    DeficiencyRecord,
    JordanSpec,
    NotNilpotentError,
    RationalMatrix,
    UnivariatePoly,
    bezout_quotient,
    build_full,
)
from jordankron import toeplitz
from jordankron.bounds import filtration_dim
from jordankron.bttb import assemble_jordan_matrix
from jordankron.exactmat import NotSquareError, _from_int_rows, kron
from jordankron.frechet import euclid_partition, pair_prediction
from jordankron.generic import PairPrediction, kronecker_sum_sizes
from jordankron.jordan import sizes_from_nullities
from jordankron.oracle import _nullity_chain, _sparse_rows, oracle_pair
from jordankron.polyring import RationalLike, table_local_degree
from jordankron.similarity import SimilarityReduction
from jordankron.toeplitz import (
    _LINE_PATTERN,
    InvalidSpecError,
    _check_params,
    _checked,
    _gamma_step,
    _hankel_rank,
    _reciprocal_step,
    _Table,
    rank_row,
    sufficient_rank_drop,
)


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


def block_pairs(x: JordanSpec, y: JordanSpec):
    """All (lam, m, mu, n) pairs of the two specs, in canonical order: the
    order in which ``per_block_pair`` answers them."""
    for lam, m in x.blocks:
        for mu, n in y.blocks:
            yield lam, m, mu, n


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
    return BlockToeplitzUT(rows)


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


def rank_int_rows(rows: list[list[int]]) -> int:
    """Rank over Q by row echelon elimination on integer rows; consumes its
    argument.  The test suite's integer rank, and its reference for the
    Hankel ranks that ``jordankron.toeplitz`` takes from linear complexity.

    Columns are cleared from left to right.  The pivot is the nonzero entry
    of least magnitude in the column, and the search stops at a unit.  Below
    a unit pivot p a row x with x_j = f becomes x - (f p) y, unscaled, for
    y the pivot row.  Below any other pivot it becomes (p / g) x - (f / g) y
    for g = gcd(p, f), divided by the gcd of its entries, so it stays
    primitive.  A row with a zero in the pivot column is left as it is.  Each
    step scales a row by a nonzero integer, subtracts a multiple of the pivot
    row or divides by a common factor, so the row space over Q never
    changes, and the rank is the number of pivots.
    """
    # ``active`` holds the rows without a pivot yet, each cut down to its
    # entries from the current column on.
    active = rows
    rank = 0
    while active and active[0]:
        best = bi = 0
        for i, row in enumerate(active):
            v = row[0]
            if v:
                a = v if v > 0 else -v
                if not best or a < best:
                    best, bi = a, i
                    if a == 1:
                        break
        if not best:
            for row in active:
                del row[0]
            continue
        piv_row = active.pop(bi)
        piv = piv_row[0]
        del piv_row[0]
        rank += 1
        nxt = []
        for row in active:
            f = row[0]
            if not f:
                del row[0]
                nxt.append(row)
            elif best == 1:
                q = f * piv
                nxt.append([x - q * y for x, y in zip(islice(row, 1, None), piv_row)])
            else:
                g = gcd(piv, f)
                a, b = piv // g, f // g
                new = [x * a - y * b for x, y in zip(islice(row, 1, None), piv_row)]
                g = gcd(*new)
                nxt.append([x // g for x in new] if g > 1 else new)
        active = nxt
    return rank


def reference_rank_int(rows: list[list[int]]) -> int:
    """Rank over Q by Bareiss fraction-free elimination with full pivoting;
    mutates its argument.  Test-only reference for ``rank_int_rows``.

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


@dataclass(frozen=True)
class ToeplitzSpec:
    """Parameter quintuple (m, n, d, ell, k) of one R_k, with m <= n and
    d*ell + 1 <= k <= m + n - 1, checked as the package checks its int
    arguments.  The test suite's handle on one matrix of the family; the
    package itself passes the quintuple as plain ints."""

    m: int
    n: int
    d: int
    ell: int
    k: int

    def __post_init__(self):
        _check_params(self.m, self.n, self.d, self.ell, self.k)
        if self.m > self.n:
            raise InvalidSpecError(f"need m <= n, got ({self.m}, {self.n})")

    @property
    def n_cols(self) -> int:
        return filtration_dim(self.m, self.n, self.k)

    @property
    def n_rows(self) -> int:
        return filtration_dim(self.m, self.n, self.k - self.ell * self.d)

    @property
    def max_rank(self) -> int:
        return min(self.n_rows, self.n_cols)


def gamma_coeffs(d: int, ell: int) -> tuple[int, ...]:
    """Coefficients gamma_0 .. gamma_(ell*d) of (1 + z + ... + z^d)^ell,
    ell >= 1, by ell convolution steps from the package's ``_gamma_step``."""
    gamma = [1]
    for _ in range(ell):
        gamma = _gamma_step(gamma, d)
    return tuple(gamma)


def reference_reciprocal(d: int, ell: int, cap: int) -> list[int]:
    """The first ``cap`` coefficients of 1 / (1 + z + ... + z^d)^ell, by the
    convolution recurrence v_0 = 1, v_i = -(gamma_1 v_(i-1) + ... +
    gamma_i v_0), O(cap^2).  Test-only reference for the package's
    reciprocal ladder, ``_reciprocal_step``."""
    u = gamma_coeffs(d, ell)[1:cap]
    v = [1]
    for _ in range(1, cap):
        v.append(-sum(map(mul, u, reversed(v))))
    return v


def _count_steps(monkeypatch, step) -> list[int]:
    """The d of every call of the ladder step ``step`` the package makes
    from now on, by wrapping it in each loaded module of the package that
    binds it."""
    steps = []

    def counted(seq, d):
        steps.append(d)
        return step(seq, d)

    name = step.__name__
    for mod_name, module in list(sys.modules.items()):
        if mod_name.split(".")[0] == "jordankron" and getattr(module, name, None) is step:
            monkeypatch.setattr(module, name, counted)
    return steps


def count_gamma_steps(monkeypatch) -> list[int]:
    """The d of every convolution step ``_gamma_step`` from now on."""
    return _count_steps(monkeypatch, _gamma_step)


def count_reciprocal_steps(monkeypatch) -> list[int]:
    """The d of every reciprocal step ``_reciprocal_step`` from now on."""
    return _count_steps(monkeypatch, _reciprocal_step)


def count_runs(monkeypatch) -> list[int]:
    """The start of every Berlekamp-Massey run, ``_linear_complexities``,
    that ``_hankel_rank`` begins from now on."""
    runs = []
    kernel = toeplitz._linear_complexities

    def counted(s, start):
        runs.append(start)
        return kernel(s, start)

    monkeypatch.setattr(toeplitz, "_linear_complexities", counted)
    return runs


def eliminated_linear_complexity(s: list[int]) -> int:
    """The linear complexity of s over Q by elimination: the least L for
    which s_i = c_1 s_(i-1) + ... + c_L s_(i-L), L <= i < len(s), has a
    solution c, that is, for which the system's matrix and its augmented
    matrix have one ``rank_int_rows``.  Test-only reference for
    ``toeplitz._linear_complexities``."""
    for ell in range(len(s) + 1):
        rows = [s[i - ell : i][::-1] for i in range(ell, len(s))]
        augmented = [row + [s[i]] for row, i in zip(rows, range(ell, len(s)))]
        if rank_int_rows(rows) == rank_int_rows(augmented):
            return ell
    raise AssertionError("unreachable: L = len(s) always solves")


def offset_c(spec: ToeplitzSpec) -> int:
    """Band offset: 0 for k <= n, then k - n, clamped at ell*d."""
    return min(max(spec.k - spec.n, 0), spec.ell * spec.d)


def _padded_gamma(d: int, ell: int, m: int) -> list[int]:
    """The gamma of (d, ell) with m - 1 zeros on each side.  Every row of
    every R_k on an m x n grid, m <= n, is one slice of it: R_k has at most
    m rows and m columns, and 0 <= c_k <= ell*d."""
    pad = [0] * (m - 1)
    return pad + list(gamma_coeffs(d, ell)) + pad


def _banded_rows(
    padded: list[int], m: int, c: int, nr: int, nc: int
) -> list[list[int]]:
    """Fresh rows of R: row i is gamma_(c - i) .. gamma_(c - i + nc - 1), cut
    from ``_padded_gamma(d, ell, m)``."""
    start = m - 1 + c
    return [padded[start - i : start - i + nc] for i in range(nr)]


def build_R(spec: ToeplitzSpec) -> RationalMatrix:
    """The u_(k - ell*d) x u_k banded Toeplitz matrix of the spec, an integer
    matrix (denominator 1).  Test-only dense reference for the rank formula
    of ``jordankron.toeplitz``."""
    padded = _padded_gamma(spec.d, spec.ell, spec.m)
    return _from_int_rows(
        _banded_rows(padded, spec.m, offset_c(spec), spec.n_rows, spec.n_cols)
    )


def two_case_ranks(m: int, n: int, shift: int, r: int, ks: Iterable[int]) -> list[int]:
    """rank R_k for each k of ks, for m <= n, shift = ell*d and
    r = hankel_rank(m, n, d, ell), by the rank formula in two cases: the
    Hankel cap r on an uncertified k, n < k < m + shift, and the full rank
    min(k - shift, m + n - k, m) on a certified one, which never reads r.
    Test-only reference for the one-case formula of ``jordankron.toeplitz``,
    rank R_k = min(k - shift, m + n - k, r) for every k."""
    return [min(k - shift, m + n - k, r if n < k < m + shift else m) for k in ks]


def eliminated_hankel_rank(m: int, n: int, d: int, ell: int) -> int:
    """``hankel_rank(m, n, d, ell)`` for m <= n, by ``rank_int_rows`` on
    the middle R_k that build_R builds: an elimination on every call, also
    where the package proves the rank full."""
    spec = ToeplitzSpec(m, n, d, ell, (m + n + d * ell) // 2)
    return rank_int_rows([list(row) for row in build_R(spec).num])


def uncertified_middles(n_max: int) -> Iterable[tuple[int, int, int, int]]:
    """Every (m, n, d, ell) with m <= n <= n_max, d = 2..6 and ell <= 8
    whose middle R_k is uncertified: the quadruples on which the package's
    ``_hankel_rank`` calls the elimination kernel."""
    for n in range(1, n_max + 1):
        for m in range(1, n + 1):
            for d in range(2, 7):
                for ell in range(1, 9):
                    shift = d * ell
                    if m + n - shift >= 2 and n < (m + n + shift) // 2 < m + shift:
                        yield m, n, d, ell


def hankel_rank_mismatches(n_max: int) -> tuple[int, list[tuple[int, int, int, int]]]:
    """The number of uncertified middles of ``uncertified_middles(n_max)``,
    and the quadruples among them where ``_hankel_rank``, by linear
    complexity and for n > ell*d after its peel, differs from
    ``eliminated_hankel_rank``.  The door takes one ``_Table`` per d, of
    capacity n_max, shared by every middle of that d, as the scanner's
    is: one gamma ladder, one reciprocal ladder and one Berlekamp-Massey
    run per (ell, n), so each middle's rank is read from a prefix of the
    run that the first middle of its (d, ell, n) started."""
    checked, bad = 0, []
    tables = {d: _Table(n_max) for d in range(2, 7)}
    for m, n, d, ell in uncertified_middles(n_max):
        checked += 1
        if _hankel_rank(m, n, d, ell, tables[d]) != eliminated_hankel_rank(m, n, d, ell):
            bad.append((m, n, d, ell))
    return checked, bad


def d1_rank_deficits(n_max: int) -> tuple[int, list[tuple[int, int, int, int]]]:
    """The number of uncertified middle R_k at d = 1 with m <= n <= n_max,
    at every ell with some k, and the quadruples (m, n, 1, ell) among them
    whose eliminated rank is below the full rank min(rows, cols).  The
    package eliminates none of them: at d = 1 every R_k has full rank."""
    checked, deficits = 0, []
    for n in range(1, n_max + 1):
        for m in range(1, n + 1):
            for ell in range(1, m + n - 1):
                mid = (m + n + ell) // 2
                if not n < mid < m + ell:
                    continue
                checked += 1
                spec = ToeplitzSpec(m, n, 1, ell, mid)
                if eliminated_hankel_rank(m, n, 1, ell) < spec.max_rank:
                    deficits.append((m, n, 1, ell))
    return checked, deficits


def certified_full_rank(spec: ToeplitzSpec) -> bool:
    """Whether the unit triangular minor alone proves build_R(spec) full rank.

    The diagonal j - i = -c holds gamma_0 = 1 with zeros below it, so its
    min(nr, nc + c) - c cells span a unit lower triangular minor; the rank
    is full when that count is min(nr, nc).  This holds exactly when k <= n
    or k >= m + ell*d, the certified k of ``two_case_ranks``.
    """
    nr, nc, c = spec.n_rows, spec.n_cols, offset_c(spec)
    return min(nr, nc + c) - c == min(nr, nc)


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


def reference_nullity_chain(z_rows: list[dict[int, int]]) -> list[int]:
    """Nullities nu_0 = 0, nu_1, ... of the powers of a square matrix, up to
    their stable value, in two passes per power: the products of the basis
    with Z, then their echelon basis.  Test-only reference for the oracle's
    one-pass ``_nullity_chain``, which must keep its basis and its answers.

    The chain stops at the first power whose nullity reaches the dimension
    or equals the previous one (the nullities are then stable).  The last
    entry returned is the stable value, the algebraic multiplicity of the
    eigenvalue 0; it is the dimension exactly when the matrix is nilpotent.
    """
    dim = len(z_rows)
    nullities = [0]
    basis = _echelon(dict(row) for row in z_rows if row)
    while True:
        nu = dim - len(basis)
        if nu == nullities[-1]:
            return nullities
        nullities.append(nu)
        if nu == dim:
            return nullities
        basis = _echelon(_times(row, z_rows) for row in basis)


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


# ---------------------------------------------------------------------------
# Dense matrices: powers, nullity, and the entrywise Fraction reference of
# every RationalMatrix operation.
# ---------------------------------------------------------------------------


def matrix_power(a: RationalMatrix, e: int) -> RationalMatrix:
    """a**e by binary exponentiation; a**0 is the identity."""
    if not a.is_square():
        raise NotSquareError("only square matrices have powers")
    if e < 0:
        raise ValueError("exponent must be nonnegative")
    result = RationalMatrix.identity(a.rows)
    base = a
    while e:
        if e & 1:
            result = result @ base
        e >>= 1
        if e:
            base = base @ base
    return result


def rank(a: RationalMatrix) -> int:
    """Exact rank over Q, by ``rank_int_rows`` on the integer
    rows of a (scaling by ``a.den`` does not change the rank)."""
    return rank_int_rows(list(map(list, a.num)))


def nullity(a: RationalMatrix) -> int:
    return a.cols - rank(a)


def _pivot_score(q: Fraction) -> int:
    # Magnitude bound used for pivot selection: |num| * den.
    return abs(q.numerator) * q.denominator


def reference_rank_fraction(rows: list[list[Fraction]]) -> int:
    """Pivoted rational Gauss elimination rank; mutates its argument.
    Test-only rational reference for the package's echelon kernel.

    The pivot is the entry of the trailing submatrix with the largest
    |numerator| * denominator bound, ties broken by lowest row index.
    """
    nrows = len(rows)
    if not nrows:
        return 0
    ncols = len(rows[0])
    r = 0
    lim = min(nrows, ncols)
    while r < lim:
        bi = bj = -1
        best = 0
        for i in range(r, nrows):
            row = rows[i]
            for j in range(r, ncols):
                v = row[j]
                if v:
                    score = _pivot_score(v)
                    if score > best:
                        best, bi, bj = score, i, j
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
            if row[r]:
                factor = row[r] / piv
                for j in range(r + 1, ncols):
                    row[j] -= factor * piv_row[j]
                row[r] = Fraction(0)
        r += 1
    return r


# Entrywise references on tuples of tuples of Fractions, the representation
# RationalMatrix had before it kept integer rows over one denominator.

Grid = tuple[tuple[Fraction, ...], ...]


def _grid(rows) -> Grid:
    return tuple(tuple(Fraction(e) for e in row) for row in rows)


def ref_add(a: Grid, b: Grid) -> Grid:
    return _grid((x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def ref_sub(a: Grid, b: Grid) -> Grid:
    return _grid((x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def ref_neg(a: Grid) -> Grid:
    return _grid((-x for x in row) for row in a)


def ref_matmul(a: Grid, b: Grid) -> Grid:
    return _grid([sum(map(mul, row, col), Fraction(0)) for col in zip(*b)] for row in a)


def ref_scale(a: Grid, c: Fraction) -> Grid:
    return _grid((c * x for x in row) for row in a)


def ref_shifted(a: Grid, c: Fraction) -> Grid:
    return _grid((x - c if i == j else x for j, x in enumerate(row)) for i, row in enumerate(a))


def ref_transpose(a: Grid) -> Grid:
    return _grid(zip(*a))


def ref_zeros(rows: int, cols: int) -> Grid:
    return _grid([0] * cols for _ in range(rows))


def ref_identity(n: int) -> Grid:
    return _grid([int(i == j) for j in range(n)] for i in range(n))


def ref_kron(a: Grid, b: Grid) -> Grid:
    return _grid([x * y for x in arow for y in brow] for arow in a for brow in b)


def ref_direct_sum(blocks: list[Grid]) -> Grid:
    total = sum(len(blk) for blk in blocks)
    out = [[Fraction(0)] * total for _ in range(total)]
    offset = 0
    for blk in blocks:
        for i, row in enumerate(blk):
            out[offset + i][offset : offset + len(row)] = row
        offset += len(blk)
    return _grid(out)


def ref_jordan_block(lam: Fraction, size: int) -> Grid:
    return _grid(
        [lam if i == j else 1 if j == i + 1 else 0 for j in range(size)]
        for i in range(size)
    )


# ---------------------------------------------------------------------------
# Weyr data of a dense nilpotent matrix, through the oracle's own chain.
# ---------------------------------------------------------------------------


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


def weyr_data(z: RationalMatrix) -> WeyrData:
    """Nullity sequence of z, z^2, ...; z must be square and nilpotent."""
    if not z.is_square():
        raise ValueError("need a square matrix")
    nullities = _nullity_chain(_sparse_rows(z.num))
    if nullities[-1] != z.rows:
        raise NotNilpotentError("nullities stabilized below the dimension")
    return WeyrData(z.rows, tuple(nullities))


def weyr_structure(z: RationalMatrix) -> tuple[int, ...]:
    """Jordan block sizes of a nilpotent matrix, descending."""
    return weyr_data(z).block_sizes()


def frechet_kronecker_form(f: UnivariatePoly, w: JordanSpec) -> RationalMatrix:
    """Matrix representation of the derivative of the map A -> f(A) at w.

    A Jordan spec is similarity invariant under transposition, so the
    transposed left factor contributes the same spec and the result is
    build_full of the difference quotient of f on (w, w).
    """
    return build_full(bezout_quotient(f), w, w)


def full_transform(red: SimilarityReduction) -> RationalMatrix:
    """S with Z @ S == S @ normal_form."""
    return red.transform @ red.scaling


# ---------------------------------------------------------------------------
# Polynomials: Hasse derivatives as polynomials, h_d, local degree.
# ---------------------------------------------------------------------------


class Biindex(NamedTuple):
    """A pair of Hasse derivative orders (x-order, y-order)."""

    beta: int
    gamma: int

    @property
    def total(self) -> int:
        return self.beta + self.gamma


def hasse_derivative(p: BivariatePoly, idx: "Biindex | tuple[int, int]") -> BivariatePoly:
    """Formal Hasse derivative of order (beta, gamma)."""
    beta, gamma = idx
    if beta < 0 or gamma < 0:
        raise ValueError("derivative orders must be nonnegative")
    nr = max(p.nrows - beta, 1)
    nc = max(p.ncols - gamma, 1)
    zero = Fraction(0)
    grid = []
    for i in range(nr):
        row = []
        for j in range(nc):
            si, sj = i + beta, j + gamma
            if si < p.nrows and sj < p.ncols:
                row.append(comb(si, beta) * comb(sj, gamma) * p.coeffs[si][sj])
            else:
                row.append(zero)
        grid.append(row)
    return BivariatePoly(grid)


def reference_hasse_value_table(
    p: BivariatePoly,
    lam: RationalLike,
    mu: RationalLike,
    max_x_order: int,
    max_y_order: int,
) -> list[list[Fraction]]:
    """Reference for ``hasse_value_table``: ``table[h][k]`` is the
    order-(h, k) Hasse derivative value at (lam, mu) as a Fraction, summed
    term by term as C(i, h) C(j, k) a_ij lam^(i-h) mu^(j-k)."""
    lam, mu = Fraction(lam), Fraction(mu)
    lam_pow = [Fraction(1)]
    for _ in range(max(p.nrows - 1, 0)):
        lam_pow.append(lam_pow[-1] * lam)
    mu_pow = [Fraction(1)]
    for _ in range(max(p.ncols - 1, 0)):
        mu_pow.append(mu_pow[-1] * mu)
    table = [
        [Fraction(0)] * (max_y_order + 1) for _ in range(max_x_order + 1)
    ]
    for i, j, a in p.terms():
        for h in range(min(i, max_x_order) + 1):
            left = comb(i, h) * a * lam_pow[i - h]
            row = table[h]
            for k in range(min(j, max_y_order) + 1):
                row[k] += left * comb(j, k) * mu_pow[j - k]
    return table


# ---------------------------------------------------------------------------
# The derivative predictor's Fraction route: Hasse values summed term by
# term, secant and tangent shifts of f, and root multiplicities by
# synthetic division.  The package reads all of these off one Hasse table.
# ---------------------------------------------------------------------------


def reference_univariate_hasse_eval(
    f: UnivariatePoly, order: int, lam: RationalLike
) -> Fraction:
    """Value at lam of the order-th Hasse derivative of f."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    lam = Fraction(lam)
    total = Fraction(0)
    for i in range(len(f.coeffs) - 1, order - 1, -1):
        c = f.coeffs[i]
        if c:
            total += comb(i, order) * c * lam ** (i - order)
    return total


def reference_root_multiplicity(g: UnivariatePoly, lam: RationalLike):
    """Largest t with (w - lam)^t dividing g; 0 when g(lam) != 0 and
    INFINITE for the zero polynomial."""
    if g.is_zero():
        return INFINITE
    lam = Fraction(lam)
    mult = 0
    coeffs = list(g.coeffs)
    while True:
        # Synthetic division by (w - lam): bs[0] is the remainder g(lam),
        # bs[1:] the quotient coefficients.
        bs = [Fraction(0)] * len(coeffs)
        acc = Fraction(0)
        for i in range(len(coeffs) - 1, -1, -1):
            acc = coeffs[i] + lam * acc
            bs[i] = acc
        if bs[0] != 0:
            return mult
        mult += 1
        coeffs = bs[1:]


def reference_phi_distinct(
    f: UnivariatePoly, lam: RationalLike, mu: RationalLike
) -> UnivariatePoly:
    """f minus w times the secant slope (f(lam) - f(mu)) / (lam - mu), for
    lam != mu; it takes equal values at lam and mu."""
    lam, mu = Fraction(lam), Fraction(mu)
    return f - UnivariatePoly([0, (f(lam) - f(mu)) / (lam - mu)])


def reference_phi_equal(f: UnivariatePoly, lam: RationalLike) -> UnivariatePoly:
    """f minus w times the tangent slope f'(lam)."""
    return f - UnivariatePoly([0, reference_univariate_hasse_eval(f, 1, lam)])


def reference_first_nonvanishing_order(g: UnivariatePoly, lam: RationalLike, cap: int):
    """Least order 1 <= i <= min(cap, deg g) whose Hasse derivative of g
    survives at lam, else INFINITE."""
    if cap < 1:
        raise ValueError("cap must be positive")
    for i in range(1, min(cap, g.degree) + 1):
        if reference_univariate_hasse_eval(g, i, lam):
            return i
    return INFINITE


def reference_pair_prediction(
    f: UnivariatePoly, lam: RationalLike, m: int, mu: RationalLike, n: int
) -> PairPrediction:
    """The record of ``frechet.pair_prediction`` by the Fraction route: the
    orders k and h of the secant-shifted f, d as the root multiplicity of
    lam in the derivative of the tangent-shifted f, and every banded
    Toeplitz rank by the Bareiss reference."""
    lam, mu = Fraction(lam), Fraction(mu)
    cap = max(f.degree, 1)
    if lam != mu:
        shifted = reference_phi_distinct(f, lam, mu)
        eig = (f(lam) - f(mu)) / (lam - mu)
        k = reference_first_nonvanishing_order(shifted, lam, cap)
        h = reference_first_nonvanishing_order(shifted, mu, cap)
        s_parts, t_parts = euclid_partition(m, k), euclid_partition(n, h)
        sizes = [z for si in s_parts for tj in t_parts
                 for z in kronecker_sum_sizes(si, tj)]
        return PairPrediction(
            lam, mu, m, n, "distinct", eig, tuple(sorted(sizes, reverse=True)),
            order_lam=k, order_mu=h, parts_lam=s_parts, parts_mu=t_parts,
        )
    eig = reference_univariate_hasse_eval(f, 1, lam)
    d = reference_root_multiplicity(reference_phi_equal(f, lam).derivative(), lam)
    dim = m * n
    if d == INFINITE or d >= m + n - 1:
        return PairPrediction(lam, mu, m, n, "equal", eig, (1,) * dim, local_mult=d)
    # Every rank R_k of every power s is eliminated on its own matrix; the
    # record keeps the rank of the middle R_k of each power.
    hankel, nullities = [], [0]
    for s in range(1, -(-(m + n - 1) // d) + 1):
        if s * d >= m + n - 1:
            nullities.append(dim)
            continue
        ranks = {
            k: reference_rank_int(
                [list(row) for row in build_R(ToeplitzSpec(
                    min(m, n), max(m, n), d, s, k)).num]
            )
            for k in range(s * d + 1, m + n)
        }
        hankel.append(ranks[(m + n + s * d) // 2])
        nullities.append(dim - sum(ranks.values()))
    return PairPrediction(
        lam, mu, m, n, "equal", eig, sizes_from_nullities(nullities, dim),
        local_mult=d, rank_table=tuple(hankel),
    )


def per_k_pair_prediction(
    f: UnivariatePoly, lam: RationalLike, m: int, n: int
) -> PairPrediction:
    """The equal-branch record of ``frechet.pair_prediction`` on the pair
    (lam, m), (lam, n) by its per-k route: one elimination of the middle
    R_k per power s, by ``eliminated_hankel_rank``, and each nullity m*n
    minus the sum of the ``two_case_ranks`` of every k of that power.  The
    eigenvalue and d come from the Fraction route."""
    lam = Fraction(lam)
    eig = reference_univariate_hasse_eval(f, 1, lam)
    d = reference_root_multiplicity(reference_phi_equal(f, lam).derivative(), lam)
    dim = m * n
    if d == INFINITE or d >= m + n - 1:
        return PairPrediction(lam, lam, m, n, "equal", eig, (1,) * dim, local_mult=d)
    short, long = min(m, n), max(m, n)
    hankel = tuple(eliminated_hankel_rank(short, long, d, s)
                   for s in range(1, -(-(m + n - 1) // d)))
    nullities = [0] + [
        dim - sum(two_case_ranks(short, long, s * d, r, range(s * d + 1, m + n)))
        for s, r in enumerate(hankel, 1)
    ] + [dim]
    return PairPrediction(
        lam, lam, m, n, "equal", eig, sizes_from_nullities(nullities, dim),
        local_mult=d, rank_table=hankel,
    )


def local_degree(p: BivariatePoly, lam: RationalLike, mu: RationalLike) -> int:
    """Smallest d >= 1 with a nonvanishing order-d Hasse derivative at (lam, mu)."""
    if p.is_constant():
        raise ConstantPolynomialError("local degree is undefined for constants")
    return table_local_degree(
        reference_hasse_value_table(p, lam, mu, p.degree_x(), p.degree_y())
    )


def h_poly(d: int) -> BivariatePoly:
    """Complete homogeneous symmetric polynomial of degree d: sum_j x^j y^(d-j)."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    grid = [[0] * (d + 1) for _ in range(d + 1)]
    for j in range(d + 1):
        grid[j][d - j] = 1
    return BivariatePoly(grid)


def total_degree(p: BivariatePoly) -> int:
    return max((i + j for i, j, _ in p.terms()), default=-1)


def swap(p: BivariatePoly) -> BivariatePoly:
    """The polynomial p(y, x), i.e. the transposed coefficient grid."""
    return BivariatePoly(zip(*p.coeffs))


def plus_constant(p: BivariatePoly, c: RationalLike) -> BivariatePoly:
    grid = [list(row) for row in p.coeffs]
    grid[0][0] += Fraction(c)
    return BivariatePoly(grid)


# ---------------------------------------------------------------------------
# Filtration dimensions and the banded Toeplitz family.
# ---------------------------------------------------------------------------


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


def filtration_dims(m: int, n: int) -> FiltrationDims:
    """The sequence u_j = min(j, m, n + m - j); arguments in either order."""
    if m < 1 or n < 1:
        raise ValueError("sizes must be positive")
    if m > n:
        m, n = n, m
    dims = tuple(filtration_dim(m, n, j) for j in range(1, m + n))
    return FiltrationDims(m, n, dims)


def iter_valid_specs(
    m_max: int, n_max: int, d_max: int, ell_max: int
) -> Iterable[ToeplitzSpec]:
    """All valid specs with m <= n in the given ranges."""
    for m in range(1, m_max + 1):
        for n in range(m, n_max + 1):
            for d in range(1, d_max + 1):
                for ell in range(1, ell_max + 1):
                    for k in range(d * ell + 1, m + n):
                        yield ToeplitzSpec(m, n, d, ell, k)


def reference_scan(
    m_max: int, n_max: int, d_max: int, ell_max: int, out_path=None
) -> list[DeficiencyRecord]:
    """``scan_deficiencies`` as a loop over every k: a quadruple with a
    missing record takes its ranks from ``rank_row``, and each record is
    built from its ``ToeplitzSpec`` and ``sufficient_rank_drop`` and written
    by ``json.dumps``.  A resumed record is read by
    ``DeficiencyRecord.from_json_obj``, after text past the last newline is
    cut off the file.  The reference for the scanner's JSONL bytes, its
    deficient list and its resumes."""
    path = Path(out_path) if out_path is not None else None
    existing = {}
    if path is not None and path.exists():
        data = path.read_bytes()
        data = data[: data.rfind(b"\n") + 1]
        path.write_bytes(data)
        for line in data.decode("utf-8").splitlines():
            if line.strip():
                rec = DeficiencyRecord.from_json_obj(json.loads(line))
                existing[rec[:5]] = rec.rank
    deficient = []
    sink = path.open("a") if path is not None else None
    try:
        for m in range(1, m_max + 1):
            for n in range(m, n_max + 1):
                for d in range(1, d_max + 1):
                    for ell in range(1, ell_max + 1):
                        ks = range(d * ell + 1, m + n)
                        found = [existing.get((m, n, d, ell, k)) for k in ks]
                        if None in found:
                            ranks = rank_row(m, n, d, ell)
                        lines = []
                        for k, rk in zip(ks, found):
                            spec = ToeplitzSpec(m, n, d, ell, k)
                            fresh = rk is None
                            if fresh:
                                rk = ranks[k]
                            rec = DeficiencyRecord(
                                m, n, d, ell, k, rk, spec.max_rank,
                                spec.max_rank - rk, sufficient_rank_drop(m, n, d, ell, k),
                            )
                            if fresh:
                                lines.append(json.dumps(rec.to_json_obj()) + "\n")
                            if rec.deficiency:
                                deficient.append(rec)
                        if sink is not None:
                            sink.write("".join(lines))
    finally:
        if sink is not None:
            sink.close()
    return deficient


def reference_load_records(path: Path) -> dict[tuple, DeficiencyRecord | None]:
    """``toeplitz._load_records`` one line at a time: every line is read by
    ``_LINE_PATTERN`` and checked by ``_checked``.  The reference for the
    records a resume reads, the errors it raises and the bytes it leaves.

    Every record of a scan file, keyed by quintuple: its
    ``DeficiencyRecord`` when it is deficient, else None.

    The file is read one line at a time.  Every record ends with a newline,
    so text after the last one is a record cut short by an interrupted
    run: it is dropped, and cut off the file so that appended records start
    on a line of their own.  Every complete line must be in the scanner's
    own byte form, read by ``_LINE_PATTERN``, and pass ``_checked``; any
    other line, a blank one too, raises ValueError naming the file and the
    line's number, and leaves the file as it was.
    """
    records = {}
    if not path.exists():
        return records
    # Compiled here, not at import: re caches it, so only the first resume
    # pays for it.
    match = re.compile(_LINE_PATTERN).fullmatch
    with path.open("r+b") as fh:
        end = 0
        for number, line in enumerate(fh, 1):
            if not line.endswith(b"\n"):
                fh.truncate(end)
                break
            end += len(line)
            hit = match(line)
            try:
                if hit is None:
                    text = line.decode(errors="replace")
                    raise ValueError(f"not a scan record line: {text!r}")
                *ints, flag = hit.groups()
                fields = _checked((*map(int, ints), flag == b"true"))
            except ValueError as exc:
                raise type(exc)(f"{path}:{number}: {exc}") from None
            records[fields[:5]] = DeficiencyRecord(*fields) if fields[7] else None
    return records


def mirror(spec: ToeplitzSpec) -> ToeplitzSpec:
    """The spec at the flip-symmetric index ell*d + m + n - k."""
    return replace(spec, k=spec.ell * spec.d + spec.m + spec.n - spec.k)


class PropertyViolationError(AssertionError):
    """A structural property of the banded matrices failed; this would
    indicate an implementation bug, never expected on valid specs."""


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of the structural checks on one spec; all fields True on a
    correct implementation."""

    offset_in_range: bool
    dimension_relation: bool
    top_left_positive: bool
    bottom_right_positive: bool
    flip_transpose: bool

    def all_ok(self) -> bool:
        return all(
            (
                self.offset_in_range,
                self.dimension_relation,
                self.top_left_positive,
                self.bottom_right_positive,
                self.flip_transpose,
            )
        )


def check_properties(spec: ToeplitzSpec) -> PropertyReport:
    """Verify the five structural properties of the banded matrix family.

    Raises PropertyViolationError if any fails.
    """
    shift = spec.ell * spec.d
    c = offset_c(spec)
    u_k = spec.n_cols
    u_k_shift = spec.n_rows
    r = build_R(spec).num
    g = dict(enumerate(gamma_coeffs(spec.d, spec.ell)))
    flipped = tuple(tuple(row[::-1]) for row in r[::-1])
    report = PropertyReport(
        offset_in_range=0 <= c <= shift,
        dimension_relation=u_k_shift <= u_k + c <= u_k_shift + shift,
        top_left_positive=r[0][0] == g.get(c, 0) > 0,
        bottom_right_positive=r[-1][-1] == g.get(u_k - u_k_shift + c, 0) > 0,
        flip_transpose=build_R(mirror(spec)).num == tuple(zip(*flipped)),
    )
    if not report.all_ok():
        raise PropertyViolationError(f"{spec}: {report}")
    return report


def normalized_wide(spec: ToeplitzSpec) -> ToeplitzSpec:
    # Flip so that rows >= cols, i.e. k >= ceil((m + n + ell*d) / 2).
    mid = -(-(spec.m + spec.n + spec.ell * spec.d) // 2)
    return spec if spec.k >= mid else mirror(spec)


def rank_drop_witness(spec: ToeplitzSpec) -> tuple[ToeplitzSpec, list[int]]:
    """The kernel vector promised by the sufficient condition.

    Returns the flip-normalized spec together with the integer vector v of
    length u_k holding the coefficients of (z - 1)^ell, low power first,
    padded with zeros; build_R of that spec annihilates it.
    """
    spec = normalized_wide(spec)
    if not sufficient_rank_drop(*astuple(spec)):
        raise ValueError("the sufficient condition does not hold for this spec")
    ell = spec.ell
    v = [comb(ell, s) * (-1) ** (ell - s) for s in range(ell + 1)]
    v.extend([0] * (spec.n_cols - len(v)))
    return spec, v


def annihilates(a: RationalMatrix, v: list[int]) -> bool:
    """Whether a @ v == 0 for an integer column vector v."""
    return all(sum(map(mul, row, v)) == 0 for row in a.num)


# The triples (m, n, d), m <= n <= 32 and d <= 6, with a deficient record in
# scan_deficiencies(32, 32, 6, 62): the block pairs within the oracle's reach
# on which the equal branch reads a Hankel rank below the peak of its tent.
DEFICIENT_TRIPLES = Path(__file__).resolve().parent / "data" / "deficient_triples.json"


def deficient_triples() -> list[tuple[int, int, int]]:
    return [tuple(t) for t in json.loads(DEFICIENT_TRIPLES.read_text())["triples"]]


def tangent_power(d: int) -> UnivariatePoly:
    """w^(d+1): at 0, f' - f'(0) has a root of multiplicity exactly d."""
    return UnivariatePoly([0] * (d + 1) + [1])


def perturbed_tangent_power(d: int) -> UnivariatePoly:
    """3 + w^(d+1) - 2 w^(d+2) + w^(d+3): the local multiplicity d of
    tangent_power(d) at 0, with a constant and non-zero higher terms that
    the equal branch must reduce to the homogeneous model."""
    return UnivariatePoly([3] + [0] * d + [1, -2, 1])


def two_term_tangent_power(d: int) -> UnivariatePoly:
    """w^(d+1) + w^(d+2): the local multiplicity d of tangent_power(d) at 0,
    with a second term, so that the h_d matrix is not homogeneous."""
    return UnivariatePoly([0] * (d + 1) + [1, 1])


def equal_branch_mismatches(f_of_d, triples) -> list[tuple[int, int, int]]:
    """The triples (m, n, d) on which the derivative predictor's record for
    J_m(0), J_n(0) with f = f_of_d(d) disagrees with ``oracle_pair`` on the
    difference quotient of f, in eigenvalue or sizes."""
    bad = []
    for m, n, d in triples:
        f = f_of_d(d)
        pred = pair_prediction(f, 0, m, 0, n)
        if (pred.eigenvalue, pred.sizes) != oracle_pair(bezout_quotient(f), 0, m, 0, n):
            bad.append((m, n, d))
    return bad
