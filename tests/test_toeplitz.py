import hashlib
import json
import os
import random
import re
import signal
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from dataclasses import astuple
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from jordankron import DeficiencyRecord, rho, scan_deficiencies, sufficient_rank_drop
from jordankron import toeplitz
from jordankron import RationalMatrix
from jordankron.toeplitz import (
    InvalidSpecError,
    _hankel_rank,
    _linear_complexity,
    _rank_sum,
    _tent,
    hankel_rank,
    rank_row,
)

from helpers import (
    ToeplitzSpec,
    annihilates,
    build_R,
    certified_full_rank,
    check_properties,
    count_gamma_steps,
    eliminated_hankel_rank,
    gamma_coeffs,
    iter_valid_specs,
    mirror,
    offset_c,
    rank,
    rank_drop_witness,
    reference_load_records,
    reference_rank_int,
    reference_scan,
    two_case_ranks,
    uncertified_middles,
)


def test_gamma_coeffs_examples():
    assert gamma_coeffs(3, 2) == (1, 2, 3, 4, 3, 2, 1)
    assert gamma_coeffs(4, 1) == (1, 1, 1, 1, 1)
    assert gamma_coeffs(1, 2) == (1, 2, 1)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 12))
def test_gamma_symmetry_and_sum(d, ell):
    g = gamma_coeffs(d, ell)
    assert len(g) == ell * d + 1
    assert g == g[::-1]
    assert sum(g) == (d + 1) ** ell
    # Reference: ell schoolbook products by 1 + z + ... + z^d.
    ref = [1]
    for _ in range(ell):
        ref = [sum(ref[max(0, i - d) : i + 1]) for i in range(len(ref) + d)]
    assert g == tuple(ref)


def test_gamma_coeffs_match_schoolbook_products_up_to_d8_ell40():
    for d in range(1, 9):
        ref = [1]
        for ell in range(1, 41):
            ref = [sum(ref[max(0, i - d) : i + 1]) for i in range(len(ref) + d)]
            assert gamma_coeffs(d, ell) == tuple(ref)


def test_offset_examples():
    assert offset_c(ToeplitzSpec(4, 8, 3, 2, 9)) == 1
    assert offset_c(ToeplitzSpec(4, 8, 3, 2, 8)) == 0
    assert offset_c(ToeplitzSpec(6, 6, 2, 1, 7)) == 1
    assert offset_c(ToeplitzSpec(8, 8, 1, 2, 15)) == 2


def test_build_R_golden_matrices():
    assert build_R(ToeplitzSpec(4, 8, 3, 2, 9)).num == (
        (2, 3, 4),
        (1, 2, 3),
        (0, 1, 2),
    )
    assert build_R(ToeplitzSpec(6, 6, 2, 1, 7)).num == (
        (1, 1, 0, 0, 0),
        (1, 1, 1, 0, 0),
        (0, 1, 1, 1, 0),
        (0, 0, 1, 1, 1),
        (0, 0, 0, 1, 1),
    )
    assert build_R(ToeplitzSpec(4, 4, 4, 1, 6)).num == ((1, 1), (1, 1))
    assert build_R(ToeplitzSpec(4, 4, 4, 1, 6)).den == 1


def test_spec_validation():
    # m > n is no error here, as both take m and n in either order; the
    # scan record check rejects it.
    for bad in (
        (4, 4, 2, 2, 4),  # k below d*ell + 1
        (4, 4, 1, 1, 8),  # k above m + n - 1
        (0, 4, 1, 1, 2),
    ):
        for call in (rho, sufficient_rank_drop):
            with pytest.raises(InvalidSpecError):
                call(*bad)


def test_spec_rejects_non_int_parameters():
    for bad in (
        (2.5, 3, 1, 1, 2),
        (True, 3, 1, 1, 2),
        (2, 3.0, 1, 1, 2),
        (2, 3, 1, 1, True),
        (2, 3, "1", 1, 2),
        (2, 3, 1, None, 2),
    ):
        for call in (rho, sufficient_rank_drop):
            with pytest.raises(InvalidSpecError, match="integers"):
                call(*bad)


def _entry_formula_rows(spec):
    g = dict(enumerate(gamma_coeffs(spec.d, spec.ell)))
    c = offset_c(spec)
    return tuple(
        tuple(g.get(j - i + c, 0) for j in range(spec.n_cols))
        for i in range(spec.n_rows)
    )


def _has_full_unit_diagonal(spec):
    # Entries gamma_0 = 1 lie on offset j - i = -c, gamma_(ell*d) = 1 on
    # offset ell*d - c; count the cells of each diagonal inside the matrix.
    c = offset_c(spec)
    return any(
        sum(1 for i in range(spec.n_rows) if 0 <= i + t < spec.n_cols)
        == spec.max_rank
        for t in (-c, spec.ell * spec.d - c)
    )


def _assert_rho_matches_bareiss(spec):
    ref = reference_rank_int([list(row) for row in build_R(spec).num])
    assert rho(spec.m, spec.n, spec.d, spec.ell, spec.k) == ref
    assert rho(spec.n, spec.m, spec.d, spec.ell, spec.k) == ref
    if certified_full_rank(spec):
        assert ref == spec.max_rank
    return ref


def test_rho_matches_bareiss_on_every_small_spec():
    certified = deficient = 0
    rows = {}
    for spec in iter_valid_specs(18, 20, 5, 5):
        quad = (spec.m, spec.n, spec.d, spec.ell)
        if quad not in rows:
            row = rank_row(*quad)
            assert list(row) == list(range(spec.ell * spec.d + 1, spec.m + spec.n))
            swapped = rank_row(spec.n, spec.m, spec.d, spec.ell)
            assert list(swapped.items()) == list(row.items())
            # hankel_rank is the rank of the middle R_k, checked by Bareiss
            # below with every other k.
            middle = (spec.m + spec.n + spec.ell * spec.d) // 2
            assert hankel_rank(*quad) == row[middle]
            rows[quad] = row
        assert build_R(spec).num == _entry_formula_rows(spec)
        certificate = certified_full_rank(spec)
        assert certificate == _has_full_unit_diagonal(spec)
        assert certificate == (
            spec.k <= spec.n or spec.k >= spec.m + spec.ell * spec.d
        )
        ref = _assert_rho_matches_bareiss(spec)
        assert rows[quad][spec.k] == ref
        certified += certificate
        deficient += ref < spec.max_rank
    # Both sides of the certificate are exercised.
    assert certified and deficient


def test_rank_formula_matches_definitions_on_the_40_box():
    # By arithmetic alone: the uncapped formula min(k - D, m + n - k, m) is
    # min(u_(k - D), u_k), and the Hankel cap r applies, n < k < m + D,
    # exactly where the unit triangular minor proves nothing.
    capped = 0
    for spec in iter_valid_specs(40, 40, 6, 8):
        m, n, shift, k = spec.m, spec.n, spec.ell * spec.d, spec.k
        assert min(k - shift, m + n - k, m) == spec.max_rank
        cap = n < k < m + shift
        assert cap is not certified_full_rank(spec)
        capped += cap
    assert capped


def test_every_uncertified_middle_has_rank_at_least_n_minus_shift():
    # The bound behind the one-case formula: the middle window starts with
    # n - shift - 1 zeros and then gamma_0 = 1, so the leading
    # (n - shift) x (n - shift) block of the middle Hankel matrix is
    # anti-triangular with ones on its antidiagonal.  Each middle is
    # eliminated here; the bound is met with equality on 286 of them.  The
    # package's rank agrees on each, and for n > shift it is the peeled one:
    # n - shift plus the rank of the Schur complement of that block.
    checked = tight = peeled = 0
    powers = {d: [[1]] for d in range(2, 7)}
    for m, n, d, ell in uncertified_middles(32):
        shift = d * ell
        r = eliminated_hankel_rank(m, n, d, ell)
        assert r >= n - shift, (m, n, d, ell)
        assert _hankel_rank(m, n, d, ell, powers[d]) == r, (m, n, d, ell)
        checked += 1
        tight += r == n - shift
        peeled += n > shift
    assert (checked, tight, peeled) == (9112, 286, 5836)


def test_a_peeled_middle_passes_only_its_schur_complement_to_the_kernel(monkeypatch):
    # One linear complexity per uncertified middle; for n > shift it is
    # that of v_(n - shift + 1) .. v_(m - 1) of 1 / gamma, the sequence of
    # the Schur complement, and for n <= shift that of the whole window.
    lengths = []
    kernel = toeplitz._linear_complexity

    def recorded(s):
        lengths.append(len(s))
        return kernel(s)

    monkeypatch.setattr(toeplitz, "_linear_complexity", recorded)
    powers = {d: [[1]] for d in range(2, 7)}
    peeled = 0
    for m, n, d, ell in uncertified_middles(32):
        shift = d * ell
        lengths.clear()
        _hankel_rank(m, n, d, ell, powers[d])
        if n > shift:
            peeled += 1
            want = m - n + shift - 1
        else:
            want = m + n - shift - 1
        assert lengths == [want], (m, n, d, ell)
    assert peeled == 5836


def _hankel_ranks_of_the_40_box():
    """(m, n, shift, r) for every quadruple with m <= n <= 40, d <= 6 and
    ell <= 8 that has a k, r its ``_hankel_rank``."""
    for m in range(1, 41):
        for n in range(m, 41):
            for d in range(1, 7):
                powers = [[1]]
                for ell in range(1, 9):
                    shift = d * ell
                    if m + n - shift < 2:
                        break
                    yield m, n, shift, _hankel_rank(m, n, d, ell, powers)


def test_rank_sum_matches_summed_ranks_on_the_40_box():
    # At the Hankel rank r of each quadruple, the one-case row, the tent
    # capped at r, is the two-case formula, and _rank_sum is its sum.
    for m, n, shift, r in _hankel_ranks_of_the_40_box():
        t = m + n - shift
        ranks = two_case_ranks(m, n, shift, r, range(shift + 1, m + n))
        assert _tent(t, r) == ranks, (m, n, shift)
        assert _rank_sum(m, n, shift, r) == sum(ranks) == r * (t - r)


def test_the_largest_ranks_are_the_ranks_from_the_peak_on_the_40_box():
    # The scanner reuses the row of largest ranks as the row of ranks when
    # r reaches the peak of the tent, c = min(m, t // 2) for
    # t = m + n - shift, and r never passes it.  Below the peak the middle
    # R_k, uncertified whenever any k is, loses rank.
    below = 0
    for m, n, shift, r in _hankel_ranks_of_the_40_box():
        ks = range(shift + 1, m + n)
        peak = min(m, (m + n - shift) // 2)
        assert 1 <= r <= peak
        full = two_case_ranks(m, n, shift, r, ks) == two_case_ranks(m, n, shift, m, ks)
        assert full is (r == peak), (m, n, shift)
        below += not full
    assert below


def test_the_tent_from_ranges_is_the_largest_rank_row_on_the_40_box():
    # _tent(t, c) is min(x, t - x, c) at every cap it takes; at
    # c = min(m, t // 2) it is the two-case formula at r = m, the largest
    # ranks, for every shift of the box.
    for t in range(2, 80):
        for c in range(1, t // 2 + 1):
            assert _tent(t, c) == [min(x, t - x, c) for x in range(1, t)]
    for m in range(1, 41):
        for n in range(m, 41):
            for shift in range(1, m + n - 1):
                t = m + n - shift
                ks = range(shift + 1, m + n)
                assert _tent(t, min(m, t // 2)) == two_case_ranks(m, n, shift, m, ks)


def test_the_scan_eliminates_once_per_uncertified_middle_on_its_gamma(monkeypatch):
    # Each (d, ell) gamma is built once, by one convolution step, and is
    # gamma_coeffs(d, ell); only a quadruple with d >= 2 whose middle R_k
    # is uncertified takes a linear complexity, what this test's name
    # calls an elimination.  At d = 1 every R_k has full rank, so
    # no d = 1 gamma is built.
    calls, eliminated = [], []
    hankel, kernel = toeplitz._hankel_rank, toeplitz._linear_complexity
    gammas = {(d, ell): list(gamma_coeffs(d, ell))
              for d in range(1, 6) for ell in range(1, 7)}

    def recorded(m, n, d, ell, powers):
        before = len(eliminated)
        r = hankel(m, n, d, ell, powers)
        if len(eliminated) > before:
            calls.append((m, n, d, ell))
            assert powers[ell] == gammas[d, ell], (d, ell)
        return r

    def counted(s):
        eliminated.append(len(s))
        return kernel(s)

    box = (12, 14, 5, 6)
    want = reference_scan(*box)
    monkeypatch.setattr(toeplitz, "_hankel_rank", recorded)
    monkeypatch.setattr(toeplitz, "_linear_complexity", counted)
    steps = count_gamma_steps(monkeypatch)
    got = scan_deficiencies(*box)
    uncertified = [(m, n, d, ell)
                   for m in range(1, 13) for n in range(m, 15)
                   for d in range(1, 6) for ell in range(1, 7)
                   if d >= 2 and d * ell + 1 < m + n
                   and n < (m + n + d * ell) // 2 < m + d * ell]
    assert calls == uncertified
    # One step per ell up to the largest that meets an uncertified middle.
    assert Counter(steps) == {d: max(q[3] for q in uncertified if q[2] == d)
                              for d in {q[2] for q in uncertified}}
    assert _as_json(got) == _as_json(want)


def test_a_huge_ell_max_costs_what_the_reached_ells_cost(tmp_path, monkeypatch):
    # No quadruple of m, n <= 4 has d*ell >= 7, so ell_max = 10**6 scans
    # what ell_max = 6 scans, and builds gamma only for the ell it reaches.
    # Past a hundred convolution steps gamma is built for an ell no
    # quadruple reaches, and the scan fails here instead of running on.
    step = toeplitz._gamma_step
    steps = []

    def bounded(gamma, d):
        steps.append(d)
        if len(steps) > 100:
            raise AssertionError("gamma built past the ell the box reaches")
        return step(gamma, d)

    want, ours = tmp_path / "want.jsonl", tmp_path / "ours.jsonl"
    records = scan_deficiencies(4, 4, 2, 6, out_path=want)
    monkeypatch.setattr(toeplitz, "_gamma_step", bounded)
    start = time.perf_counter()
    assert scan_deficiencies(4, 4, 2, 10**6, out_path=ours) == records
    assert scan_deficiencies(4, 4, 2, 10**6) == records
    assert time.perf_counter() - start < 1.0
    assert ours.read_bytes() == want.read_bytes()


def test_sliced_window_rank_past_either_end_of_gamma():
    # The window gamma_(shift - n + 1) .. gamma_(m - 1) runs past index 0
    # when n > shift + 1 and past index shift when m > shift + 1; both
    # happen only for n > shift, where the door peels the unit block the
    # window opens with.  Every window takes its gamma from one list per d
    # and is checked against hankel_rank and against the Bareiss rank of
    # the middle R_k that build_R builds.
    past_low = past_high = 0
    for d in range(1, 5):
        powers = [[1]]
        for ell in range(1, 9):
            shift = d * ell
            for m in range(1, 25):
                for n in range(m, 25):
                    mid = (m + n + shift) // 2
                    if shift + 1 > m + n - 1 or not n < mid < m + shift:
                        continue
                    ref = reference_rank_int(
                        [list(row) for row in build_R(ToeplitzSpec(m, n, d, ell, mid)).num])
                    assert _hankel_rank(m, n, d, ell, powers) == hankel_rank(m, n, d, ell) == ref
                    past_low += n > shift + 1
                    past_high += m > shift + 1
    assert past_low and past_high


def test_rank_row_makes_at_most_one_elimination(monkeypatch):
    calls = []
    kernel = toeplitz._linear_complexity

    def counted(s):
        calls.append(len(s))
        return kernel(s)

    monkeypatch.setattr(toeplitz, "_linear_complexity", counted)
    steps = count_gamma_steps(monkeypatch)
    for quad in ((30, 30, 2, 7), (12, 40, 3, 5), (40, 12, 1, 30), (5, 60, 1, 2)):
        calls.clear()
        steps.clear()
        row = rank_row(*quad)
        m, n = min(quad[:2]), max(quad[:2])
        shift = quad[2] * quad[3]
        uncertified = [k for k in row if n < k < m + shift]
        # At d = 1 every R_k has full rank, and none takes a linear
        # complexity, what this test's name calls an elimination.
        eliminates = bool(uncertified) and quad[2] >= 2
        assert len(calls) == eliminates
        # Gamma is built, one step a power, only for that rank.
        assert len(steps) == (quad[3] if eliminates else 0)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 30), st.integers(1, 30), st.integers(1, 6), st.integers(1, 6))
def test_rank_row_matches_bareiss_on_random_quadruples(a, b, d, ell):
    assume(d * ell + 1 <= a + b - 1)
    m, n = min(a, b), max(a, b)
    row = rank_row(a, b, d, ell)
    assert list(row) == list(range(d * ell + 1, m + n))
    for k, rk in row.items():
        matrix = build_R(ToeplitzSpec(m, n, d, ell, k)).num
        assert rk == reference_rank_int([list(r) for r in matrix])


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 8),
    st.lists(st.one_of(st.just(0), st.integers(-3, 3),
                       st.integers(-3, 3).map(lambda x: x << 64)), max_size=16),
    st.integers(0, 8),
)
def test_hankel_rank_profile(lead, core, trail):
    # rank_row rests on this: the (N + 1 - q) x q Hankel matrices of one
    # sequence of length N have rank min(q, N + 1 - q, r), r the rank of
    # the one with q = (N + 1) // 2, and _hankel_rank on this: r is
    # min(L, N + 1 - L) for the linear complexity L of the sequence.  The
    # sequences have many zeros, as the gamma windows of rank_row do: runs
    # at either end, sparse inside.  Entries of 2^64 and more keep the
    # fraction-free connection polynomial from staying small.
    s = ([0] * lead + core + [0] * trail)[:16]
    assume(s)
    big_n = len(s)
    lc = _linear_complexity(s)

    def hankel_rank(q):
        return reference_rank_int([s[i : i + q] for i in range(big_n + 1 - q)])

    r = hankel_rank((big_n + 1) // 2)
    for q in range(1, big_n + 1):
        assert hankel_rank(q) == min(q, big_n + 1 - q, r) == min(
            q, big_n + 1 - q, lc, big_n + 1 - lc), (s, q)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 6),
    st.lists(st.one_of(st.integers(-3, 3), st.integers(-3, 3).map(lambda x: x << 64)),
             max_size=14),
)
def test_a_unit_anti_triangle_peels_off_every_hankel_split(zeros, tail):
    # The peel of _hankel_rank: for s = z zeros, then 1, then any integers,
    # and v the coefficients of 1 / s[z:], every Hankel matrix H_{p,q}(s)
    # with p + q = N + 1 and p, q >= z + 1 has rank z + 1 plus that of
    # H_{p-z-1,q-z-1}(v[z+2 ..]), the Schur complement of its unit
    # anti-triangular leading block.  Entries of 2^64 and more keep the
    # reciprocal's integers from staying small.
    assume(len(tail) >= zeros)  # else no split has p, q >= z + 1
    s = [0] * zeros + [1] + tail
    big_n = len(s)
    u = s[zeros:]
    v = [1]
    for i in range(1, len(u)):
        v.append(-sum(u[j] * v[i - j] for j in range(1, i + 1)))
    w = zeros + 1
    rest = v[w + 1 :]

    def hankel(seq, p, q):
        return [seq[i : i + q] for i in range(p)]

    for p in range(w, big_n + 2 - w):
        q = big_n + 1 - p
        assert reference_rank_int(hankel(s, p, q)) == (
            w + reference_rank_int(hankel(rest, p - w, q - w))
        ), (s, p)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 40),
    st.integers(1, 40),
    st.integers(1, 5),
    st.integers(1, 5),
    st.data(),
)
def test_rho_matches_bareiss_on_random_specs(a, b, d, ell, data):
    m, n = min(a, b), max(a, b)
    assume(d * ell + 1 <= m + n - 1)
    k = data.draw(st.integers(d * ell + 1, m + n - 1))
    _assert_rho_matches_bareiss(ToeplitzSpec(m, n, d, ell, k))


def test_rho_matches_bareiss_on_scanned_deficiencies():
    records = scan_deficiencies(8, 8, 4, 3)
    assert records
    for rec in records:
        spec = ToeplitzSpec(*rec[:5])
        assert not certified_full_rank(spec)
        assert _assert_rho_matches_bareiss(spec) == rec.rank
        assert rec.deficiency == rec.max_rank - rec.rank > 0


def test_rank_row_rejects_bad_parameters():
    for bad in (
        (2.5, 3, 1, 1),
        (True, 3, 1, 1),
        (2, 3.0, 1, 1),
        (2, 3, "1", 1),
        (2, 3, 1, None),
        (2, 3, 1, False),
    ):
        for build in (rank_row, hankel_rank):
            with pytest.raises(InvalidSpecError, match="integers"):
                build(*bad)
    for bad in ((0, 3, 1, 1), (2, -3, 1, 1), (2, 3, 0, 1), (2, 3, 1, 0)):
        for build in (rank_row, hankel_rank):
            with pytest.raises(InvalidSpecError, match="positive"):
                build(*bad)
    # d*ell + 1 > m + n - 1 leaves no valid k.
    for bad in ((2, 3, 2, 2), (1, 1, 1, 1), (3, 2, 4, 1)):
        for build in (rank_row, hankel_rank):
            with pytest.raises(InvalidSpecError, match="no k"):
                build(*bad)
    assert rank_row(2, 3, 1, 3) == {4: 1}
    assert rank_row(8, 4, 3, 2)[9] == 2


def test_rho_examples_and_argument_swap():
    assert rho(4, 8, 3, 2, 9) == 2
    assert rho(8, 4, 3, 2, 9) == 2
    assert rho(4, 4, 4, 1, 6) == 1


@pytest.mark.parametrize("quad", [(60, 60, 2, 25), (100, 100, 2, 40), (100, 40, 3, 30)])
def test_rho_answers_certified_k_without_elimination(monkeypatch, quad):
    m, n, d, ell = quad
    row = rank_row(*quad)

    def no_kernel(s):
        raise AssertionError("rho eliminated a matrix")

    monkeypatch.setattr(toeplitz, "_linear_complexity", no_kernel)
    certified = [k for k in row if k <= max(m, n) or k >= min(m, n) + ell * d]
    assert len(certified) < len(row)
    for k in certified:
        assert rho(m, n, d, ell, k) == row[k]
        assert rho(n, m, d, ell, k) == row[k]
    uncertified = next(k for k in row if k not in certified)
    with pytest.raises(AssertionError, match="eliminated"):
        rho(m, n, d, ell, uncertified)


def test_rho_flip_symmetry():
    for spec in iter_valid_specs(5, 6, 3, 2):
        s = spec
        assert rho(s.m, s.n, s.d, s.ell, s.k) == rho(
            s.m, s.n, s.d, s.ell, s.ell * s.d + s.m + s.n - s.k
        )


def test_check_properties_small_sweep():
    for spec in iter_valid_specs(5, 5, 3, 2):
        assert check_properties(spec).all_ok()


def test_check_properties_self_mirror_case():
    spec = ToeplitzSpec(4, 8, 3, 2, 9)
    assert mirror(spec) == spec
    assert check_properties(spec).all_ok()


def test_flip_pair_of_displayed_shapes():
    r5 = build_R(ToeplitzSpec(4, 4, 4, 1, 5))
    r7 = build_R(ToeplitzSpec(4, 4, 4, 1, 7))
    assert (r5.rows, r5.cols) == (1, 3)
    assert (r7.rows, r7.cols) == (3, 1)
    flipped = [
        [r5.num[r5.rows - 1 - i][r5.cols - 1 - j] for j in range(r5.cols)]
        for i in range(r5.rows)
    ]
    assert RationalMatrix(flipped) == r7.transpose()


def test_sufficient_rank_drop_examples():
    assert sufficient_rank_drop(4, 8, 3, 2, 9) is True
    assert sufficient_rank_drop(8, 4, 3, 2, 9) is True
    assert rho(4, 8, 3, 2, 9) == 2 < 3
    # Deficient but not predicted.
    spec = ToeplitzSpec(6, 6, 2, 1, 7)
    assert sufficient_rank_drop(*astuple(spec)) is False
    assert rank(build_R(spec)) == 4 < spec.max_rank
    # Full-rank case.
    full = ToeplitzSpec(2, 2, 1, 1, 2)
    assert sufficient_rank_drop(*astuple(full)) is False
    assert rank(build_R(full)) == full.max_rank == 1


def _sufficient_on_mirrored_spec(spec):
    # The condition evaluated on the flip-normalized spec itself.
    mid = -(-(spec.m + spec.n + spec.ell * spec.d) // 2)
    wide = spec if spec.k >= mid else mirror(spec)
    assert wide.n_rows >= wide.n_cols
    if wide.n_cols <= wide.ell:
        return wide, False
    return wide, (wide.ell + offset_c(wide)) % (wide.d + 1) >= wide.n_rows


def test_sufficient_rank_drop_matches_mirrored_spec():
    hits = 0
    for spec in iter_valid_specs(14, 14, 5, 5):
        wide, expected = _sufficient_on_mirrored_spec(spec)
        assert sufficient_rank_drop(*astuple(spec)) is expected
        if expected:
            assert rank_drop_witness(spec)[0] == wide
            hits += 1
    assert hits


def test_sufficient_rank_drop_ignores_the_order_of_m_and_n_on_the_40_box():
    hits = 0
    for m in range(1, 41):
        for n in range(m, 41):
            for d in range(1, 7):
                for ell in range(1, 9):
                    for k in range(d * ell + 1, m + n):
                        drop = sufficient_rank_drop(m, n, d, ell, k)
                        assert sufficient_rank_drop(n, m, d, ell, k) is drop
                        hits += drop
    assert hits


def test_sufficient_condition_is_sound_with_kernel_witness():
    for spec in iter_valid_specs(6, 6, 4, 3):
        if not sufficient_rank_drop(*astuple(spec)):
            continue
        wide, v = rank_drop_witness(spec)
        r = build_R(wide)
        assert any(v)
        assert annihilates(r, v)
        assert rank(r) < wide.max_rank


def test_scan_contains_known_records():
    records = scan_deficiencies(6, 8, 4, 2)
    by_key = {r[:5]: r for r in records}
    hit = by_key[(4, 8, 3, 2, 9)]
    assert hit.deficiency == 1 and hit.predicted_by_sufficient
    miss = by_key[(6, 6, 2, 1, 7)]
    assert miss.deficiency >= 1 and not miss.predicted_by_sufficient
    quartic = by_key[(4, 4, 4, 1, 6)]
    assert quartic.deficiency == 1


def _counting_rank_row(monkeypatch):
    """Record the quadruple of every rank row the scanner computes, by its
    one ``_hankel_rank`` call per quadruple."""
    calls = []
    hankel = toeplitz._hankel_rank

    def counted(m, n, d, ell, powers):
        calls.append((m, n, d, ell))
        return hankel(m, n, d, ell, powers)

    monkeypatch.setattr(toeplitz, "_hankel_rank", counted)
    return calls


def test_scan_persists_and_resumes(tmp_path, monkeypatch):
    out = tmp_path / "scan.jsonl"
    # A fresh scan computes every quadruple's rank row.
    calls = _counting_rank_row(monkeypatch)
    first = scan_deficiencies(4, 4, 3, 2, out_path=out)
    assert calls == [(m, n, d, ell)
                     for m in range(1, 5) for n in range(m, 5)
                     for d in range(1, 4) for ell in range(1, 3)
                     if d * ell + 1 < m + n]
    assert len(calls) == 36
    lines = out.read_text().strip().splitlines()
    total_specs = sum(1 for _ in iter_valid_specs(4, 4, 3, 2))
    assert len(lines) == total_specs
    rec = DeficiencyRecord.from_json_obj(json.loads(lines[0]))
    assert rec.max_rank - rec.rank == rec.deficiency
    for line in lines:
        parsed = DeficiencyRecord.from_json_obj(json.loads(line))
        assert line == json.dumps(parsed.to_json_obj())
    # A second run reuses the file, computes no rank and appends nothing.
    calls.clear()
    second = scan_deficiencies(4, 4, 3, 2, out_path=out)
    assert calls == []
    assert out.read_text().strip().splitlines() == lines
    assert [r.to_json_obj() for r in first] == [r.to_json_obj() for r in second]


def test_scan_record_schema_keys():
    records = scan_deficiencies(4, 4, 4, 1)
    assert records, "expected at least one deficiency in this range"
    obj = records[0].to_json_obj()
    assert set(obj) == {
        "m", "n", "d", "ell", "k", "rank", "maxRank", "deficiency", "predicted",
    }


def test_scan_resume_drops_a_truncated_last_line(tmp_path, monkeypatch):
    out = tmp_path / "scan.jsonl"
    full = scan_deficiencies(4, 4, 3, 2, out_path=out)
    lines = out.read_text().splitlines(keepends=True)
    # An interrupted run: the last record is cut in the middle.
    out.write_text("".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2])
    calls = _counting_rank_row(monkeypatch)
    resumed = scan_deficiencies(4, 4, 3, 2, out_path=out)
    # Only the quadruple of the lost record is computed again.
    last = json.loads(lines[-1])
    assert calls == [(last["m"], last["n"], last["d"], last["ell"])]
    assert [r.to_json_obj() for r in resumed] == [r.to_json_obj() for r in full]
    text = out.read_text()
    assert text.endswith("\n")
    assert sorted(text.splitlines(keepends=True)) == sorted(lines)
    # A malformed complete line is an error, not a tail to drop, also
    # before a partial last line, and the rejected file keeps its bytes.
    for rest in (lines[1], lines[1][: len(lines[1]) // 2]):
        bad = (lines[0] + '{"m": 1,\n' + rest).encode()
        out.write_bytes(bad)
        with pytest.raises(ValueError, match=r":2: not a scan record line"):
            scan_deficiencies(4, 4, 3, 2, out_path=out)
        assert out.read_bytes() == bad


def test_a_full_resume_holds_at_most_twice_the_file_in_memory(tmp_path):
    # The resume reads the file one line at a time and keeps one small
    # entry per record, never the whole file, its text or its lines.
    out = tmp_path / "scan.jsonl"
    scan_deficiencies(10, 10, 4, 3, out_path=out)
    size = out.stat().st_size
    assert size == 385_548
    tracemalloc.start()
    try:
        scan_deficiencies(10, 10, 4, 3, out_path=out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.stat().st_size == size
    assert peak <= 2 * size


def _as_json(records):
    return [r.to_json_obj() for r in records]


# SHA-256 of the JSONL file of scan_deficiencies(16, 16, 5, 4), the largest
# box of the benchmark's scan pool (25,178 records), and of the JSON dump
# of its 151 deficient records, recorded before the scanner built its tent
# from ranges and skipped the kernel on a certified middle.
_BOX_16_FILE = "60fcb6b8035f0a9e03dfcbcb739ee7686db24c7c8f9f64644e116e118a06bece"
_BOX_16_DEFICIENT = "9f4781543f0bbe75eac299229577fe0ac94f1daf53af26af07b41cde04cdd46e"


def test_the_pool_s_largest_box_keeps_its_bytes_fresh_and_resumed(tmp_path):
    out = tmp_path / "scan.jsonl"

    def check(records):
        assert hashlib.sha256(out.read_bytes()).hexdigest() == _BOX_16_FILE
        dump = json.dumps(_as_json(records)).encode()
        assert hashlib.sha256(dump).hexdigest() == _BOX_16_DEFICIENT

    check(scan_deficiencies(16, 16, 5, 4, out_path=out))
    lines = out.read_bytes().splitlines(keepends=True)
    assert len(lines) == 25_178
    # A killed run: the first half of the records and half of the next.
    half = len(lines) // 2
    out.write_bytes(b"".join(lines[:half]) + lines[half][: len(lines[half]) // 2])
    check(scan_deficiencies(16, 16, 5, 4, out_path=out))


@pytest.mark.parametrize(
    "box", [(1, 1, 1, 1), (4, 4, 3, 2), (6, 8, 4, 2), (8, 8, 4, 3), (5, 3, 2, 6),
            (3, 9, 6, 2), (10, 12, 3, 5)]
)
def test_scan_matches_the_per_k_reference(tmp_path, box):
    ours, ref = tmp_path / "ours.jsonl", tmp_path / "ref.jsonl"
    want = reference_scan(*box, out_path=ref)
    assert _as_json(scan_deficiencies(*box, out_path=ours)) == _as_json(want)
    assert ours.read_bytes() == ref.read_bytes()
    assert _as_json(scan_deficiencies(*box)) == _as_json(want)


@pytest.mark.parametrize("seed", range(8))
def test_scan_resumes_like_the_reference_from_any_subset_of_records(tmp_path, seed):
    rng = random.Random(seed)
    full = tmp_path / "full.jsonl"
    reference_scan(7, 8, 3, 3, out_path=full)
    lines = full.read_text().splitlines(keepends=True)
    kept = [line for line in lines if rng.random() < (0.2, 0.5, 0.9)[seed % 3]]
    rng.shuffle(kept)
    tail = lines[0][: rng.randrange(len(lines[0]))] if seed % 2 else ""
    quads = Counter(tuple(json.loads(line).values())[:4] for line in kept)
    width = {q: q[0] + q[1] - 1 - q[2] * q[3] for q in quads}
    assert any(0 < c < width[q] for q, c in quads.items())  # a part-done quadruple
    # The resumed box may be smaller or larger than the file's.
    box = ((5, 8, 2, 3), (7, 8, 3, 3), (9, 9, 3, 4))[seed % 3]
    ours, ref = tmp_path / "ours.jsonl", tmp_path / "ref.jsonl"
    for path in (ours, ref):
        path.write_text("".join(kept) + tail)
    got = scan_deficiencies(*box, out_path=ours)
    assert _as_json(got) == _as_json(reference_scan(*box, out_path=ref))
    assert ours.read_bytes() == ref.read_bytes()
    assert _as_json(got) == _as_json(scan_deficiencies(*box))


def _edit(rng, lines):
    """The lines of a scan file, in bytes, after one random edit, each
    kind as likely as the others."""
    lines = list(lines)
    at = rng.randrange(len(lines))
    obj = json.loads(lines[at])
    kind = rng.randrange(7)
    if kind == 0:  # drop a run of lines
        del lines[at : at + rng.randint(1, 8)]
    elif kind == 1:  # duplicate a line, right after itself or anywhere
        lines.insert(rng.choice((at + 1, rng.randrange(len(lines)))), lines[at])
    elif kind == 2:  # swap two lines, or reverse a run
        other = rng.randrange(len(lines))
        if rng.random() < 0.5:
            lines[at], lines[other] = lines[other], lines[at]
        else:
            lo, hi = sorted((at, other))
            lines[lo : hi + 1] = lines[lo : hi + 1][::-1]
    elif kind == 3:  # lower one rank, consistently
        if obj["rank"]:
            obj.update(rank=obj["rank"] - 1, deficiency=obj["deficiency"] + 1)
            lines[at] = json.dumps(obj).encode() + b"\n"
    elif kind == 4:  # re-rank the line's block as the tent of another r
        m, n, d, ell = obj["m"], obj["n"], obj["d"], obj["ell"]
        t = m + n - d * ell
        r = rng.randrange(min(m, t // 2) + 2)
        for i, line in enumerate(lines):
            rec = json.loads(line)
            if (rec["m"], rec["n"], rec["d"], rec["ell"]) == (m, n, d, ell):
                x = rec["k"] - d * ell
                rec.update(rank=min(x, t - x, r), deficiency=rec["maxRank"] - min(x, t - x, r))
                lines[i] = json.dumps(rec).encode() + b"\n"
    elif kind == 5:  # an inconsistent field
        key = rng.choice(("rank", "maxRank", "deficiency", "k"))
        obj[key] += rng.choice((-1, 1))
        lines[at] = json.dumps(obj).encode() + b"\n"
    else:  # compact separators
        lines[at] = json.dumps(obj, separators=(",", ":")).encode() + b"\n"
    return lines


def _loaded(load, path):
    """What load makes of the file at path: the repr of its records or the
    type and message of its error, and the bytes it leaves there."""
    try:
        outcome = ("read", repr(load(path)))
    except ValueError as exc:
        outcome = ("raised", type(exc), str(exc))
    return outcome, path.read_bytes()


@pytest.mark.parametrize("seed", range(4))
def test_a_resume_reads_a_randomly_edited_file_as_the_per_line_reference_does(
    tmp_path, seed
):
    # A complete block of lines in the scanner's byte form is compared with
    # the formatter's bytes once; anything else is read a line at a time.
    # Either way the records, the error and the bytes left on disk are
    # those of reading every line on its own.
    rng = random.Random(seed)
    path = tmp_path / "scan.jsonl"
    scan_deficiencies(6, 8, 4, 2, out_path=path)
    lines = path.read_bytes().splitlines(keepends=True)
    outcomes = Counter()
    for _ in range(60):
        edited = lines
        for _ in range(rng.randint(1, 3)):
            edited = _edit(rng, edited)
        data = b"".join(edited)
        if rng.random() < 0.3:  # cut the last line mid-way
            data = data[: -rng.randint(2, len(edited[-1]))]
        path.write_bytes(data)
        want = _loaded(reference_load_records, path)
        path.write_bytes(data)
        assert _loaded(toeplitz._load_records, path) == want
        outcomes[want[0][0]] += 1
    assert outcomes["read"] >= 10 and outcomes["raised"] >= 10


def test_a_full_resume_checks_no_line_of_a_complete_block_on_its_own(
    tmp_path, monkeypatch
):
    # Every quadruple of a fresh file is one complete block, full-rank or
    # deficient, so a full resume reads it without _checked on any line
    # and appends nothing.  The same lines in reverse order are not in
    # blocks: they are checked one at a time, with the same records.
    out = tmp_path / "scan.jsonl"
    records = scan_deficiencies(10, 10, 4, 3, out_path=out)
    assert records
    data = out.read_bytes()
    checked = []
    check = toeplitz._checked
    monkeypatch.setattr(toeplitz, "_checked",
                        lambda fields: checked.append(fields) or check(fields))
    assert scan_deficiencies(10, 10, 4, 3, out_path=out) == records
    assert out.read_bytes() == data
    assert checked == []
    want = toeplitz._load_records(out)
    assert checked == []
    out.write_bytes(b"".join(data.splitlines(keepends=True)[::-1]))
    got = toeplitz._load_records(out)
    assert len(checked) > len(got) // 2
    assert sorted(got.items()) == sorted(want.items())


_KILLED_AT = """
import os, signal, sys
from jordankron import toeplitz
hankel = toeplitz._hankel_rank
stop = tuple(map(int, sys.argv[2:]))
def dying(m, n, d, ell, powers):
    if (m, n, d, ell) == stop:
        os.kill(os.getpid(), signal.SIGKILL)
    return hankel(m, n, d, ell, powers)
toeplitz._hankel_rank = dying
toeplitz.scan_deficiencies(8, 8, 4, 3, out_path=sys.argv[1])
"""


# An uncertified quadruple with ell = d, one with ell < d, where the
# rank-drop test runs, and one at d = 1, which eliminates nothing.
@pytest.mark.parametrize("stop", [(8, 8, 2, 2), (8, 8, 4, 1), (8, 8, 1, 3)])
def test_a_killed_scan_has_written_every_quadruple_before_the_kill(tmp_path, stop):
    killed, full = tmp_path / "killed.jsonl", tmp_path / "full.jsonl"
    proc = subprocess.run(
        [sys.executable, "-c", _KILLED_AT, str(killed), *map(str, stop)],
        env=dict(os.environ, PYTHONPATH=str(Path(toeplitz.__file__).parents[1])),
        timeout=60,
    )
    assert proc.returncode == -signal.SIGKILL
    reference_scan(8, 8, 4, 3, out_path=full)
    lines = full.read_text().splitlines(keepends=True)
    cut = next(i for i, line in enumerate(lines)
               if tuple(json.loads(line).values())[:4] == stop)
    assert killed.read_text() == "".join(lines[:cut])


@pytest.mark.parametrize("lie", [
    {"deficiency": 1},  # a full-rank record claiming a deficiency
    {"maxRank": 4, "deficiency": 1},
    {"rank": 4, "deficiency": -1},  # above the largest possible rank
    {"predicted": True},
])
def test_scan_resume_rejects_records_that_disagree_with_their_spec(tmp_path, lie):
    out = tmp_path / "scan.jsonl"
    scan_deficiencies(4, 4, 3, 2, out_path=out)
    lines = out.read_text().splitlines(keepends=True)
    at = next(i for i, line in enumerate(lines)
              if json.loads(line) == {"m": 3, "n": 4, "d": 1, "ell": 1, "k": 4,
                                      "rank": 3, "maxRank": 3, "deficiency": 0,
                                      "predicted": False})
    lines[at] = json.dumps(dict(json.loads(lines[at]), **lie)) + "\n"
    out.write_text("".join(lines))
    with pytest.raises(ValueError, match="disagrees with its spec"):
        scan_deficiencies(4, 4, 3, 2, out_path=out)


@pytest.mark.parametrize(
    "lie", [{"m": 4, "n": 3}, {"k": 1}, {"k": 7}, {"d": 0}, {"ell": -1}]
)
def test_scan_resume_rejects_invalid_quintuples(tmp_path, lie):
    # The package builds no spec object, so the record check alone must
    # reject m > n and an out-of-range parameter.
    out = tmp_path / "scan.jsonl"
    scan_deficiencies(4, 4, 3, 2, out_path=out)
    lines = out.read_text().splitlines(keepends=True)
    at = next(i for i, line in enumerate(lines)
              if json.loads(line) == {"m": 3, "n": 4, "d": 1, "ell": 1, "k": 4,
                                      "rank": 3, "maxRank": 3, "deficiency": 0,
                                      "predicted": False})
    lines[at] = json.dumps(dict(json.loads(lines[at]), **lie)) + "\n"
    out.write_text("".join(lines))
    with pytest.raises(ValueError):
        scan_deficiencies(4, 4, 3, 2, out_path=out)
    with pytest.raises(ValueError):
        DeficiencyRecord.from_json_obj(json.loads(lines[at]))


def test_deficiency_record_rejects_coerced_fields():
    good = {"m": 2, "n": 3, "d": 1, "ell": 1, "k": 2, "rank": 1, "maxRank": 1,
            "deficiency": 0, "predicted": False}
    assert DeficiencyRecord.from_json_obj(good).to_json_obj() == good
    # Any key order, and keys beside the nine, are still accepted.
    for same in (dict(reversed(good.items())), dict(good, note="x", k2=[1.5]),
                 {"extra": None, **dict(sorted(good.items()))}):
        assert DeficiencyRecord.from_json_obj(same).to_json_obj() == good
    for key, value in (("m", 2.7), ("n", "3"), ("maxRank", True), ("rank", None),
                       ("k", 2.0), ("predicted", "no"), ("predicted", 0)):
        with pytest.raises(ValueError):
            DeficiencyRecord.from_json_obj(dict(good, **{key: value}))
    for bad in ({k: v for k, v in good.items() if k != "rank"}, [1, 2], "x", None):
        with pytest.raises(ValueError):
            DeficiencyRecord.from_json_obj(bad)


# A predicted deficient record, an unpredicted one and a full-rank one.
_PARITY_RECORDS = tuple(
    dict(zip(("m", "n", "d", "ell", "k", "rank", "maxRank", "deficiency",
              "predicted"), values))
    for values in (
        (3, 3, 2, 1, 4, 1, 2, 1, True),
        (4, 5, 3, 1, 6, 2, 3, 1, False),
        (3, 4, 1, 1, 4, 3, 3, 0, False),
    )
)


def _parity_lines():
    """Scan record lines in the scanner's byte form and in others JSON
    allows, valid and not, from the records of ``_PARITY_RECORDS``."""
    _, deficient, full = _PARITY_RECORDS
    for obj in _PARITY_RECORDS:
        line = json.dumps(obj)
        yield line
        yield json.dumps(obj, separators=(",", ":"))
        yield json.dumps(dict(reversed(obj.items())))
        yield line.replace(": ", " :  ").replace(", ", " ,")
        yield f"  {line} "
    line = json.dumps(deficient)
    yield line.replace('"k": 6', '"k": 06')
    yield line.replace('"rank": 2', '"rank": 2.0')
    yield line.replace('"m": 4', '"m": -4')
    line = json.dumps(full)
    yield line.replace('"deficiency": 0', '"deficiency": -0')
    yield line.replace('"rank": 3', '"rank": -1').replace('"deficiency": 0', '"deficiency": 4')
    yield line.replace("false", "true")
    yield line.replace(', "predicted": false', "")


def test_a_resume_reads_only_the_scanner_s_lines_and_from_json_obj_keeps_its_answers(
    tmp_path, monkeypatch
):
    # The scanner writes a record only as json.dumps(record.to_json_obj())
    # and a newline.  A resume reads exactly those lines, without json.loads,
    # and rejects every other line, naming the file and the line.
    loads = json.loads
    parsed = []
    monkeypatch.setattr(json, "loads", lambda s, **kw: parsed.append(s) or loads(s, **kw))
    own = [json.dumps(obj) for obj in _PARITY_RECORDS]
    lines = [*_parity_lines(), ""]
    assert len(lines) == 23
    outcomes = Counter()
    for i, line in enumerate(lines):
        path = tmp_path / f"{i}.jsonl"
        path.write_text(line + "\n")
        if line in own:
            fields = tuple(_PARITY_RECORDS[own.index(line)].values())
            want = {fields[:5]: DeficiencyRecord(*fields) if fields[7] else None}
            assert repr(toeplitz._load_records(path)) == repr(want), line
            outcomes["read"] += 1
        else:
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:1: "):
                toeplitz._load_records(path)
            outcomes["rejected"] += 1
    assert parsed == []
    assert outcomes == {"read": 3, "rejected": 20}
    # from_json_obj keeps its answers: of the lines json.loads parses, it
    # accepts, with the same fields, exactly those that parse to one of the
    # three records with JSON types; "deficiency": -0 parses to 0.
    monkeypatch.undo()
    valid = {json.dumps(obj, sort_keys=True): obj for obj in _PARITY_RECORDS}
    outcomes = Counter()
    for line in lines:
        try:
            obj = json.loads(line)
        except ValueError:  # "k": 06 and the blank line
            outcomes["unparsed"] += 1
            continue
        want = valid.get(json.dumps(obj, sort_keys=True))
        if want is None:
            with pytest.raises(ValueError):
                DeficiencyRecord.from_json_obj(obj)
            outcomes["rejected"] += 1
        else:
            got = DeficiencyRecord.from_json_obj(obj).to_json_obj()
            assert json.dumps(got) == json.dumps(want), line
            outcomes["accepted"] += 1
    assert outcomes == {"accepted": 16, "rejected": 5, "unparsed": 2}
