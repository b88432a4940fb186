import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jordankron import DeficiencyRecord, rho, scan_deficiencies, sufficient_rank_drop
from jordankron.exactmat import IntegerMatrix, rank
from jordankron.toeplitz import (
    InvalidSpecError,
    ToeplitzSpec,
    build_R,
    check_properties,
    gamma_coeffs,
    offset_c,
    rank_drop_witness,
)
from jordankron.toeplitz import iter_valid_specs


def test_gamma_coeffs_examples():
    assert gamma_coeffs(3, 2).gamma == (1, 2, 3, 4, 3, 2, 1)
    assert gamma_coeffs(4, 1).gamma == (1, 1, 1, 1, 1)
    assert gamma_coeffs(1, 2).gamma == (1, 2, 1)
    g = gamma_coeffs(2, 2)
    assert g[-1] == 0 and g[99] == 0 and g[0] == 1


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 4))
def test_gamma_symmetry_and_sum(d, ell):
    g = gamma_coeffs(d, ell).gamma
    assert len(g) == ell * d + 1
    assert g == g[::-1]
    assert sum(g) == (d + 1) ** ell


def test_offset_examples():
    assert offset_c(ToeplitzSpec(4, 8, 3, 2, 9)) == 1
    assert offset_c(ToeplitzSpec(4, 8, 3, 2, 8)) == 0
    assert offset_c(ToeplitzSpec(6, 6, 2, 1, 7)) == 1
    assert offset_c(ToeplitzSpec(8, 8, 1, 2, 15)) == 2


def test_build_R_golden_matrices():
    assert build_R(ToeplitzSpec(4, 8, 3, 2, 9)).data == (
        (2, 3, 4),
        (1, 2, 3),
        (0, 1, 2),
    )
    assert build_R(ToeplitzSpec(6, 6, 2, 1, 7)).data == (
        (1, 1, 0, 0, 0),
        (1, 1, 1, 0, 0),
        (0, 1, 1, 1, 0),
        (0, 0, 1, 1, 1),
        (0, 0, 0, 1, 1),
    )
    assert build_R(ToeplitzSpec(4, 4, 4, 1, 6)).data == ((1, 1), (1, 1))


def test_spec_validation():
    with pytest.raises(InvalidSpecError):
        ToeplitzSpec(5, 4, 1, 1, 3)  # m > n
    with pytest.raises(InvalidSpecError):
        ToeplitzSpec(4, 4, 2, 2, 4)  # k below d*ell + 1
    with pytest.raises(InvalidSpecError):
        ToeplitzSpec(4, 4, 1, 1, 8)  # k above m + n - 1
    with pytest.raises(InvalidSpecError):
        ToeplitzSpec(0, 4, 1, 1, 2)


def test_rho_examples_and_argument_swap():
    assert rho(4, 8, 3, 2, 9) == 2
    assert rho(8, 4, 3, 2, 9) == 2
    assert rho(4, 4, 4, 1, 6) == 1


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
    assert spec.mirror() == spec
    assert check_properties(spec).all_ok()


def test_flip_pair_of_displayed_shapes():
    r5 = build_R(ToeplitzSpec(4, 4, 4, 1, 5))
    r7 = build_R(ToeplitzSpec(4, 4, 4, 1, 7))
    assert (r5.rows, r5.cols) == (1, 3)
    assert (r7.rows, r7.cols) == (3, 1)
    flipped = [
        [r5.data[r5.rows - 1 - i][r5.cols - 1 - j] for j in range(r5.cols)]
        for i in range(r5.rows)
    ]
    assert IntegerMatrix(flipped) == r7.transpose()


def test_sufficient_rank_drop_examples():
    assert sufficient_rank_drop(ToeplitzSpec(4, 8, 3, 2, 9)) is True
    assert rho(4, 8, 3, 2, 9) == 2 < 3
    # Deficient but not predicted.
    spec = ToeplitzSpec(6, 6, 2, 1, 7)
    assert sufficient_rank_drop(spec) is False
    assert rank(build_R(spec)) == 4 < spec.max_rank
    # Full-rank case.
    full = ToeplitzSpec(2, 2, 1, 1, 2)
    assert sufficient_rank_drop(full) is False
    assert rank(build_R(full)) == full.max_rank == 1


def test_sufficient_condition_is_sound_with_kernel_witness():
    for spec in iter_valid_specs(6, 6, 4, 3):
        if not sufficient_rank_drop(spec):
            continue
        wide, v = rank_drop_witness(spec)
        r = build_R(wide)
        assert any(v)
        assert r.matvec(v) == [0] * r.rows
        assert rank(r) < wide.max_rank


def test_scan_contains_known_records():
    records = scan_deficiencies(6, 8, 4, 2)
    by_key = {
        (r.spec.m, r.spec.n, r.spec.d, r.spec.ell, r.spec.k): r for r in records
    }
    hit = by_key[(4, 8, 3, 2, 9)]
    assert hit.deficiency == 1 and hit.predicted_by_sufficient
    miss = by_key[(6, 6, 2, 1, 7)]
    assert miss.deficiency >= 1 and not miss.predicted_by_sufficient
    quartic = by_key[(4, 4, 4, 1, 6)]
    assert quartic.deficiency == 1


def test_scan_persists_and_resumes(tmp_path):
    out = tmp_path / "scan.jsonl"
    first = scan_deficiencies(4, 4, 3, 2, out_path=out)
    lines = out.read_text().strip().splitlines()
    total_specs = sum(1 for _ in iter_valid_specs(4, 4, 3, 2))
    assert len(lines) == total_specs
    rec = DeficiencyRecord.from_json_obj(json.loads(lines[0]))
    assert rec.max_rank - rec.rank == rec.deficiency
    # A second run reuses the file and appends nothing.
    second = scan_deficiencies(4, 4, 3, 2, out_path=out)
    assert out.read_text().strip().splitlines() == lines
    assert [r.to_json_obj() for r in first] == [r.to_json_obj() for r in second]


def test_scan_record_schema_keys():
    records = scan_deficiencies(4, 4, 4, 1)
    assert records, "expected at least one deficiency in this range"
    obj = records[0].to_json_obj()
    assert set(obj) == {
        "m", "n", "d", "ell", "k", "rank", "maxRank", "deficiency", "predicted",
    }


def test_scan_resume_drops_a_truncated_last_line(tmp_path):
    out = tmp_path / "scan.jsonl"
    full = scan_deficiencies(4, 4, 3, 2, out_path=out)
    lines = out.read_text().splitlines(keepends=True)
    # An interrupted run: the last record is cut in the middle.
    out.write_text("".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2])
    resumed = scan_deficiencies(4, 4, 3, 2, out_path=out)
    assert [r.to_json_obj() for r in resumed] == [r.to_json_obj() for r in full]
    text = out.read_text()
    assert text.endswith("\n")
    assert sorted(text.splitlines(keepends=True)) == sorted(lines)
    # A malformed complete line is an error, not a tail to drop.
    out.write_text(lines[0] + '{"m": 1,\n' + lines[1])
    with pytest.raises(ValueError):
        scan_deficiencies(4, 4, 3, 2, out_path=out)


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
