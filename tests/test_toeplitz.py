import json
import os
import random
import signal
import subprocess
import sys
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
from jordankron.exactmat import rank
from jordankron.toeplitz import (
    InvalidSpecError,
    _gamma_step,
    _hankel_rank,
    _rank_sum,
    _ranks,
    gamma_coeffs,
    hankel_rank,
    rank_row,
)

from helpers import (
    ToeplitzSpec,
    annihilates,
    build_R,
    certified_full_rank,
    check_properties,
    iter_valid_specs,
    mirror,
    offset_c,
    rank_drop_witness,
    reference_rank_int,
    reference_scan,
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


def test_rank_sum_matches_summed_ranks_on_the_40_box():
    # The edge values of r and one at random.  The summed _ranks read r
    # only on the uncertified k, and _rank_sum must ignore it elsewhere too.
    rng = random.Random(211)
    for m in range(1, 41):
        for n in range(m, 41):
            for shift in range(1, m + n - 1):
                ks = range(shift + 1, m + n)
                for r in {0, 1, m - 1, m, rng.randint(0, m)}:
                    assert _rank_sum(m, n, shift, r) == sum(_ranks(m, n, shift, r, ks))


def test_the_largest_ranks_are_the_ranks_from_the_peak_on_the_40_box():
    # The scanner reuses the row of largest ranks as the row of ranks when
    # r reaches the peak of the tent, min(m, t // 2) for t = m + n - shift.
    # Below the peak the middle R_k, uncertified whenever any k is, loses
    # rank.  _ranks reads d and ell only through shift = d*ell, so every
    # shift of the box stands for its quadruples.
    shifts = sorted({d * ell for d in range(1, 7) for ell in range(1, 9)})
    below = 0
    for m in range(1, 41):
        for n in range(m, 41):
            for shift in shifts:
                ks = range(shift + 1, m + n)
                if not ks:
                    break
                tops = _ranks(m, n, shift, m, ks)
                peak = min(m, (m + n - shift) // 2)
                uncertified = any(n < k < m + shift for k in ks)
                for r in range(m + 1):
                    if r >= peak:
                        assert _ranks(m, n, shift, r, ks) == tops
                    elif uncertified:
                        assert _ranks(m, n, shift, r, ks) != tops
                        below += 1
    assert below


def test_sliced_window_rank_past_either_end_of_gamma():
    # The window gamma_(shift - n + 1) .. gamma_(m - 1) runs past index 0
    # when n > shift + 1 and past index shift when m > shift + 1; both are
    # cut from a stepped gamma and checked against hankel_rank and against
    # the Bareiss rank of the middle R_k that build_R builds.
    past_low = past_high = 0
    for d in range(1, 5):
        gamma = [1]
        for ell in range(1, 9):
            gamma, shift = _gamma_step(gamma, d), d * ell
            for m in range(1, 25):
                for n in range(m, 25):
                    mid = (m + n + shift) // 2
                    if shift + 1 > m + n - 1 or not n < mid < m + shift:
                        continue
                    ref = reference_rank_int(
                        [list(row) for row in build_R(ToeplitzSpec(m, n, d, ell, mid)).num])
                    assert _hankel_rank(m, n, d, ell, gamma) == hankel_rank(m, n, d, ell) == ref
                    past_low += n > shift + 1
                    past_high += m > shift + 1
    assert past_low and past_high


def test_rank_row_makes_at_most_one_elimination(monkeypatch):
    calls = []

    def counted(rows):
        calls.append(len(rows))
        return reference_rank_int(rows)

    monkeypatch.setattr(toeplitz, "_rank_int_rows", counted)
    for quad in ((30, 30, 2, 7), (12, 40, 3, 5), (40, 12, 1, 30), (5, 60, 1, 2)):
        calls.clear()
        row = rank_row(*quad)
        m, n = min(quad[:2]), max(quad[:2])
        shift = quad[2] * quad[3]
        uncertified = [k for k in row if n < k < m + shift]
        assert len(calls) == (1 if uncertified else 0)


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
    st.lists(st.one_of(st.just(0), st.integers(-3, 3)), max_size=16),
    st.integers(0, 8),
)
def test_hankel_rank_profile(lead, core, trail):
    # rank_row rests on this: the (N + 1 - q) x q Hankel matrices of one
    # sequence of length N have rank min(q, N + 1 - q, r), r the rank of
    # the one with q = (N + 1) // 2.  The sequences have many zeros, as the
    # gamma windows of rank_row do: runs at either end, sparse inside.
    s = ([0] * lead + core + [0] * trail)[:16]
    assume(s)
    big_n = len(s)

    def hankel_rank(q):
        return reference_rank_int([s[i : i + q] for i in range(big_n + 1 - q)])

    r = hankel_rank((big_n + 1) // 2)
    for q in range(1, big_n + 1):
        assert hankel_rank(q) == min(q, big_n + 1 - q, r)


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

    def no_kernel(rows):
        raise AssertionError("rho eliminated a matrix")

    monkeypatch.setattr(toeplitz, "_rank_int_rows", no_kernel)
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

    def counted(m, n, d, ell, gamma=None):
        calls.append((m, n, d, ell))
        return hankel(m, n, d, ell, gamma)

    monkeypatch.setattr(toeplitz, "_hankel_rank", counted)
    return calls


def test_scan_persists_and_resumes(tmp_path, monkeypatch):
    out = tmp_path / "scan.jsonl"
    first = scan_deficiencies(4, 4, 3, 2, out_path=out)
    lines = out.read_text().strip().splitlines()
    total_specs = sum(1 for _ in iter_valid_specs(4, 4, 3, 2))
    assert len(lines) == total_specs
    rec = DeficiencyRecord.from_json_obj(json.loads(lines[0]))
    assert rec.max_rank - rec.rank == rec.deficiency
    for line in lines:
        parsed = DeficiencyRecord.from_json_obj(json.loads(line))
        assert line == json.dumps(parsed.to_json_obj())
    # A second run reuses the file, computes no rank and appends nothing.
    calls = _counting_rank_row(monkeypatch)
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
    # A malformed complete line is an error, not a tail to drop.
    out.write_text(lines[0] + '{"m": 1,\n' + lines[1])
    with pytest.raises(ValueError):
        scan_deficiencies(4, 4, 3, 2, out_path=out)


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


_KILLED_AT = """
import os, signal, sys
from jordankron import toeplitz
hankel = toeplitz._hankel_rank
stop = tuple(map(int, sys.argv[2:]))
def dying(m, n, d, ell, gamma=None):
    if (m, n, d, ell) == stop:
        os.kill(os.getpid(), signal.SIGKILL)
    return hankel(m, n, d, ell, gamma)
toeplitz._hankel_rank = dying
toeplitz.scan_deficiencies(8, 8, 4, 3, out_path=sys.argv[1])
"""


# An uncertified quadruple with ell = d, and one with ell < d, where the
# rank-drop test runs.
@pytest.mark.parametrize("stop", [(8, 8, 2, 2), (8, 8, 4, 1)])
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
    for key, value in (("m", 2.7), ("n", "3"), ("maxRank", True), ("rank", None),
                       ("k", 2.0), ("predicted", "no"), ("predicted", 0)):
        with pytest.raises(ValueError):
            DeficiencyRecord.from_json_obj(dict(good, **{key: value}))
    for bad in ({k: v for k, v in good.items() if k != "rank"}, [1, 2], "x", None):
        with pytest.raises(ValueError):
            DeficiencyRecord.from_json_obj(bad)


def _parity_lines():
    """Scan record lines in the scanner's byte form and in others JSON
    allows, valid and not: a predicted deficient record, an unpredicted
    one and a full-rank one."""
    keys = ("m", "n", "d", "ell", "k", "rank", "maxRank", "deficiency", "predicted")
    predicted, deficient, full = (
        dict(zip(keys, values)) for values in (
            (3, 3, 2, 1, 4, 1, 2, 1, True),
            (4, 5, 3, 1, 6, 2, 3, 1, False),
            (3, 4, 1, 1, 4, 3, 3, 0, False),
        )
    )
    for obj in (predicted, deficient, full):
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


def test_a_resume_reads_exactly_what_json_loads_and_the_record_check_accept(
    tmp_path, monkeypatch
):
    # The resume reads the scanner's own lines without a JSON parser.  On
    # every line it must agree with _checked_fields(json.loads(line)): the
    # same fields where that accepts, ValueError where it raises.
    parsed = []
    loads = toeplitz.json.loads
    monkeypatch.setattr(toeplitz.json, "loads", lambda s: parsed.append(s) or loads(s))
    outcomes = Counter()
    for i, line in enumerate(_parity_lines()):
        path = tmp_path / f"{i}.jsonl"
        path.write_text(line + "\n")
        try:
            fields = toeplitz._checked_fields(loads(line))
        except ValueError:
            with pytest.raises(ValueError):
                toeplitz._load_records(path)
            outcomes["rejected"] += 1
            continue
        want = {fields[:5]: DeficiencyRecord(*fields) if fields[7] else None}
        parsed.clear()
        assert repr(toeplitz._load_records(path)) == repr(want), line
        outcomes["parsed" if parsed else "matched"] += 1
    # The three lines in the scanner's form, and "deficiency": -0, are
    # read without json.loads.
    assert outcomes == {"matched": 4, "parsed": 12, "rejected": 6}
