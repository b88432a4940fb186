"""Banded integer Toeplitz matrices behind the equal-eigenvalue count.

Powers of the matrix of h_d on a nilpotent Jordan pair act degree-by-degree
on the antidiagonal filtration of the m x n grid.  On graded pieces the
action is the banded integer Toeplitz matrix R_k with entries
``gamma_(j - i + c_k)``, where the gamma are the coefficients of
``(1 + z + ... + z^d)^ell`` and c_k is a clamped offset.  Summing the ranks
of the R_k over k gives the nullities that the equal-eigenvalue predictor
consumes, at a fraction of the cost of eliminating the mn x mn matrix.

Most R_k have full rank, and ``rho`` proves most of those without building
a matrix.  Since gamma_0 = 1 and gamma_i = 0 for i < 0, the diagonal of R_k
with offset j - i = -c_k holds ones with zeros below it.  Its
``min(n_rows, n_cols + c_k) - c_k`` cells span a unit triangular minor, of
determinant 1, so when that count reaches ``min(n_rows, n_cols)`` the rank
is full, exactly.  For m <= n that is the case precisely when k <= n or
k >= m + ell*d.  (The diagonal of gamma_(ell*d) = 1, with zeros above it,
is the mirror image and proves no further spec.)  Every other R_k is cut
row by row from one zero-padded copy of the gamma and eliminated by the
Bareiss kernel.  The exceptions, the rank-deficient R_k, are what this
module's scanner hunts for.  ``sufficient_rank_drop``
implements a closed sufficient condition (the coefficient vector of
``(x - y)^ell`` is then an explicit kernel vector), but it is not
necessary, and the scanner records both kinds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from math import comb
from pathlib import Path
from typing import Iterable

from .bounds import filtration_dim
# ``rank`` is no longer called here; it stays importable from this module
# because the benchmark's tracer (perfbench/spans.py) hooks it by this name.
from .exactmat import IntegerMatrix, _rank_int_rows, rank  # noqa: F401


class InvalidSpecError(ValueError):
    """Parameters outside the defining range of the banded matrices."""


class PropertyViolationError(AssertionError):
    """A structural property of the banded matrices failed; this would
    indicate an implementation bug, never expected on valid specs."""


@dataclass(frozen=True)
class GammaCoeffs:
    """Coefficients of (1 + z + ... + z^d)^ell; zero outside 0..ell*d."""

    d: int
    ell: int
    gamma: tuple[int, ...]

    def __getitem__(self, i: int) -> int:
        if 0 <= i < len(self.gamma):
            return self.gamma[i]
        return 0


def gamma_coeffs(d: int, ell: int) -> GammaCoeffs:
    if d < 1 or ell < 1:
        raise ValueError("d and ell must be positive")
    # J. C. P. Miller's recurrence for a power of a polynomial with constant
    # term 1: k a_k = sum over 1 <= i <= min(k, d) of ((ell + 1) i - k) a_(k-i).
    # The coefficients are symmetric, so the first half fixes the rest.
    top = ell * d
    a = [1] * (top + 1)
    for k in range(1, top // 2 + 1):
        acc = 0
        for i in range(1, min(k, d) + 1):
            acc += ((ell + 1) * i - k) * a[k - i]
        a[k] = a[top - k] = acc // k
    return GammaCoeffs(d, ell, tuple(a))


def _check_params(m: int, n: int, d: int, ell: int, k: int) -> None:
    """Raise InvalidSpecError unless all five are ints (bools excluded), all
    positive, with d*ell + 1 <= k <= m + n - 1; m and n in either order."""
    if not (
        type(m) is int
        and type(n) is int
        and type(d) is int
        and type(ell) is int
        and type(k) is int
    ):
        raise InvalidSpecError(
            f"parameters must be integers, got {(m, n, d, ell, k)!r}"
        )
    if min(m, n, d, ell, k) < 1:
        raise InvalidSpecError("all parameters must be positive")
    if not (d * ell + 1 <= k <= m + n - 1):
        raise InvalidSpecError(
            f"k = {k} outside [{d * ell + 1}, {m + n - 1}]"
        )


@dataclass(frozen=True)
class ToeplitzSpec:
    """Parameter quintuple (m, n, d, ell, k) with m <= n and
    d*ell + 1 <= k <= m + n - 1."""

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

    def mirror(self) -> "ToeplitzSpec":
        """The spec at the flip-symmetric index ell*d + m + n - k."""
        return replace(self, k=self.ell * self.d + self.m + self.n - self.k)


def _offset(n: int, shift: int, k: int) -> int:
    return min(max(k - n, 0), shift)


def offset_c(spec: ToeplitzSpec) -> int:
    """Band offset: 0 for k <= n, then k - n, clamped at ell*d."""
    return _offset(spec.n, spec.ell * spec.d, spec.k)


def _banded_rows(
    gamma: tuple[int, ...], c: int, nr: int, nc: int
) -> list[list[int]]:
    """Fresh rows of R: row i is gamma_(c - i) .. gamma_(c - i + nc - 1), one
    slice of a single zero-padded copy of gamma."""
    left = max(nr - 1 - c, 0)
    right = max(nc + c - len(gamma), 0)
    padded = [0] * left + list(gamma) + [0] * right
    start = left + c
    return [padded[start - i : start - i + nc] for i in range(nr)]


def _unit_triangular_full_rank(nr: int, nc: int, c: int) -> bool:
    """Whether a unit triangular minor proves the nr x nc matrix full rank.

    The diagonal j - i = -c holds gamma_0 = 1 with zeros below it, so its
    min(nr, nc + c) - c cells span a unit lower triangular minor; the rank
    is full when that count is min(nr, nc).  For m <= n this holds exactly
    when k <= n or k >= m + ell*d.  The gamma_(ell*d) diagonal, the mirror
    image of this one, proves no further spec.
    """
    return min(nr, nc + c) - c == min(nr, nc)


def build_R(spec: ToeplitzSpec) -> IntegerMatrix:
    """The u_(k - ell*d) x u_k banded Toeplitz matrix of the spec."""
    g = gamma_coeffs(spec.d, spec.ell)
    return IntegerMatrix(
        _banded_rows(g.gamma, offset_c(spec), spec.n_rows, spec.n_cols)
    )


def certified_full_rank(spec: ToeplitzSpec) -> bool:
    """Whether the unit triangular minor alone proves build_R(spec) full rank."""
    return _unit_triangular_full_rank(spec.n_rows, spec.n_cols, offset_c(spec))


def rho(m: int, n: int, d: int, ell: int, k: int) -> int:
    """Rank of the banded Toeplitz matrix; m and n in either order.

    Full rank proved by a unit triangular minor is returned without
    building the matrix; any other matrix is eliminated exactly.
    """
    _check_params(m, n, d, ell, k)
    if m > n:
        m, n = n, m
    shift = ell * d
    nr = filtration_dim(m, n, k - shift)
    nc = filtration_dim(m, n, k)
    c = _offset(n, shift, k)
    if _unit_triangular_full_rank(nr, nc, c):
        return min(nr, nc)
    return _rank_int_rows(_banded_rows(gamma_coeffs(d, ell).gamma, c, nr, nc))


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
    r = build_R(spec)
    g = gamma_coeffs(spec.d, spec.ell)
    mirror = build_R(spec.mirror())
    flipped_ok = mirror.rows == r.cols and mirror.cols == r.rows and all(
        r.data[r.rows - 1 - i][r.cols - 1 - j] == mirror.data[j][i]
        for i in range(r.rows)
        for j in range(r.cols)
    )
    report = PropertyReport(
        offset_in_range=0 <= c <= shift,
        dimension_relation=u_k_shift <= u_k + c <= u_k_shift + shift,
        top_left_positive=r.data[0][0] == g[c] > 0,
        bottom_right_positive=(
            r.data[-1][-1] == g[u_k - u_k_shift + c] > 0
        ),
        flip_transpose=flipped_ok,
    )
    if not report.all_ok():
        raise PropertyViolationError(f"{spec}: {report}")
    return report


def _normalized_wide(spec: ToeplitzSpec) -> ToeplitzSpec:
    # Flip so that rows >= cols, i.e. k >= ceil((m + n + ell*d) / 2).
    mid = -(-(spec.m + spec.n + spec.ell * spec.d) // 2)
    return spec if spec.k >= mid else spec.mirror()


def sufficient_rank_drop(spec: ToeplitzSpec) -> bool:
    """Closed sufficient (not necessary) test for rank deficiency.

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
    spec = _normalized_wide(spec)
    if spec.n_cols <= spec.ell:
        return False
    return (spec.ell + offset_c(spec)) % (spec.d + 1) >= spec.n_rows


def rank_drop_witness(spec: ToeplitzSpec) -> tuple[ToeplitzSpec, list[int]]:
    """The kernel vector promised by the sufficient condition.

    Returns the flip-normalized spec together with the integer vector v of
    length u_k holding the coefficients of (z - 1)^ell, low power first,
    padded with zeros; build_R of that spec annihilates it.
    """
    spec = _normalized_wide(spec)
    if not sufficient_rank_drop(spec):
        raise ValueError("the sufficient condition does not hold for this spec")
    ell = spec.ell
    v = [comb(ell, s) * (-1) ** (ell - s) for s in range(ell + 1)]
    v.extend([0] * (spec.n_cols - len(v)))
    return spec, v


_INT_FIELDS = ("m", "n", "d", "ell", "k", "rank", "maxRank", "deficiency")


@dataclass(frozen=True)
class DeficiencyRecord:
    """One scanned quintuple with its rank data."""

    spec: ToeplitzSpec
    rank: int
    max_rank: int
    deficiency: int
    predicted_by_sufficient: bool

    def to_json_obj(self) -> dict:
        s = self.spec
        return {
            "m": s.m,
            "n": s.n,
            "d": s.d,
            "ell": s.ell,
            "k": s.k,
            "rank": self.rank,
            "maxRank": self.max_rank,
            "deficiency": self.deficiency,
            "predicted": self.predicted_by_sufficient,
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "DeficiencyRecord":
        """Inverse of to_json_obj; every field must have its JSON type."""
        try:
            ints = [obj[key] for key in _INT_FIELDS]
            predicted = obj["predicted"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"bad deficiency record: {obj!r}") from exc
        if any(type(v) is not int for v in ints) or type(predicted) is not bool:
            raise ValueError(f"bad deficiency record field types: {obj!r}")
        m, n, d, ell, k, rk, max_rank, deficiency = ints
        return cls(ToeplitzSpec(m, n, d, ell, k), rk, max_rank, deficiency, predicted)


def _record_for(spec: ToeplitzSpec, rk: int) -> DeficiencyRecord:
    max_rank = spec.max_rank
    return DeficiencyRecord(
        spec, rk, max_rank, max_rank - rk, sufficient_rank_drop(spec)
    )


def _load_records(path: Path) -> dict[tuple, DeficiencyRecord]:
    """Records of a scan file, keyed by quintuple.

    Every record ends with a newline, so text after the last one is a
    record cut short by an interrupted run: it is dropped, and cut off the
    file so that appended records start on a line of their own.  A
    malformed complete line raises ValueError.
    """
    existing: dict[tuple, DeficiencyRecord] = {}
    if not path.exists():
        return existing
    data = path.read_bytes()
    end = data.rfind(b"\n") + 1
    if end < len(data):
        with path.open("r+b") as fh:
            fh.truncate(end)
    for line in data[:end].decode("utf-8").splitlines():
        if line.strip():
            rec = DeficiencyRecord.from_json_obj(json.loads(line))
            s = rec.spec
            existing[(s.m, s.n, s.d, s.ell, s.k)] = rec
    return existing


def scan_deficiencies(
    m_max: int,
    n_max: int,
    d_max: int,
    ell_max: int,
    out_path: "str | Path | None" = None,
) -> list[DeficiencyRecord]:
    """Scan all valid quintuples in range and return the rank-deficient ones.

    Only normalized pairs m <= n are visited, and within each quadruple the
    flip symmetry halves the rank computations (the mirrored index has the
    same rank).  With ``out_path`` every scanned record is appended as one
    JSON line, and records already present there are not recomputed, so an
    interrupted sweep resumes where it stopped.
    """
    if min(m_max, n_max, d_max, ell_max) < 1:
        raise ValueError("bounds must be positive")
    path = Path(out_path) if out_path is not None else None
    existing = _load_records(path) if path is not None else {}
    sink = path.open("a") if path is not None else None
    deficient: list[DeficiencyRecord] = []
    try:
        for m in range(1, m_max + 1):
            for n in range(m, n_max + 1):
                for d in range(1, d_max + 1):
                    for ell in range(1, ell_max + 1):
                        lo, hi = d * ell + 1, m + n - 1
                        if lo > hi:
                            continue
                        mid = -(-(m + n + ell * d) // 2)
                        ranks: dict[int, int] = {}
                        for k in range(max(lo, mid), hi + 1):
                            key = (m, n, d, ell, k)
                            if key in existing:
                                ranks[k] = existing[key].rank
                            else:
                                ranks[k] = rho(m, n, d, ell, k)
                        for k in range(lo, hi + 1):
                            key = (m, n, d, ell, k)
                            if key in existing:
                                rec = existing[key]
                            else:
                                rk = ranks.get(k)
                                if rk is None:
                                    rk = ranks[ell * d + m + n - k]
                                rec = _record_for(
                                    ToeplitzSpec(m, n, d, ell, k), rk
                                )
                                if sink is not None:
                                    sink.write(
                                        json.dumps(rec.to_json_obj()) + "\n"
                                    )
                            if rec.deficiency > 0:
                                deficient.append(rec)
    finally:
        if sink is not None:
            sink.close()
    deficient.sort(
        key=lambda r: (r.spec.m, r.spec.n, r.spec.d, r.spec.ell, r.spec.k)
    )
    return deficient


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
