"""Acceptance gate.

Each test below implements one acceptance criterion at its stated size.
Every comparison is exact (the arithmetic is rational), so the tolerance is
zero everywhere.  One PASS/FAIL line per criterion is printed; run with
``pytest tests/test_acceptance.py -v -s`` to watch them.
"""

import random
import time
from dataclasses import astuple
from fractions import Fraction as Q

import pytest

from jordankron import (
    INFINITE,
    BivariatePoly,
    BlockToeplitzUT,
    DegenerateCaseError,
    JordanSpec,
    JordanStructure,
    RationalMatrix,
    UnivariatePoly,
    bezout_quotient,
    block_count_bounds,
    frechet_jcf,
    max_block_size_bound,
    oracle_jcf,
    predict_generic,
    reduce_bidiagonal,
    reduce_shifted,
    rho,
    scan_deficiencies,
    sufficient_rank_drop,
)
from jordankron.bttb import build_block_pair
from jordankron.exactmat import jordan_block, kron
from jordankron.frechet import pair_prediction
from jordankron.similarity import SingularA1Error
from helpers import (
    annihilates,
    build_R,
    check_properties,
    full_transform,
    h_poly,
    hasse_derivative,
    iter_valid_specs,
    local_degree,
    matrix_power,
    rank_drop_witness,
    weyr_structure,
    random_block_toeplitz,
    random_degenerate_poly,
    random_spec,
    random_spec_total,
    random_univariate,
    random_bivariate,
    rank,
    univariate_at_matrix,
)

X_MINUS_Y = BivariatePoly([[0, -1], [1, 0]])


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{status}] {name}{suffix}")


def test_criterion_1_golden_examples():
    w2 = UnivariatePoly.from_string("0,0,1")
    quartic = UnivariatePoly.from_string("0,0,-2,0,1")
    cubic = UnivariatePoly.from_string("0,0,-1,1")
    shifted_quartic = UnivariatePoly.from_string("0,0,-6,0,1")
    w5 = UnivariatePoly.from_string("0,0,0,0,0,1")
    mixed_p = BivariatePoly.from_string("0,1,-1;-2,1,0")

    cases = []

    def add(name, expected, predictions, oracle):
        cases.append((name, expected, predictions, oracle))

    spec02 = JordanSpec.single(0, 2)
    add(
        "square-map derivative on a nilpotent 2-block",
        JordanStructure({0: [3, 1]}),
        [
            lambda: frechet_jcf(w2, spec02, spec02),
            lambda: predict_generic(bezout_quotient(w2), spec02, spec02),
        ],
        lambda: oracle_jcf(bezout_quotient(w2), spec02, spec02),
    )
    mx = JordanSpec([(0, 2), (1, 1)])
    my = JordanSpec([(2, 2), (3, 1)])
    add(
        "mixed quadratic on 3x3 Jordan data",
        JordanStructure({-2: [2, 2, 2], -5: [1], -6: [2]}),
        [lambda: predict_generic(mixed_p, mx, my)],
        lambda: oracle_jcf(mixed_p, mx, my),
    )
    x45, y45 = JordanSpec.single(-1, 4), JordanSpec.single(1, 3)
    add(
        "even quartic, distinct eigenvalues",
        JordanStructure({0: [3, 3, 2, 2, 1, 1]}),
        [lambda: frechet_jcf(quartic, x45, y45)],
        lambda: oracle_jcf(bezout_quotient(quartic), x45, y45),
    )
    x45b, y45b = JordanSpec.single(0, 4), JordanSpec.single(1, 3)
    add(
        "cubic with double root, both routes applicable",
        JordanStructure({0: [4, 4, 2, 2]}),
        [
            lambda: frechet_jcf(cubic, x45b, y45b),
            lambda: predict_generic(bezout_quotient(cubic), x45b, y45b),
        ],
        lambda: oracle_jcf(bezout_quotient(cubic), x45b, y45b),
    )
    x416, y416 = JordanSpec.single(1, 3), JordanSpec.single(1, 2)
    add(
        "shifted quartic, equal eigenvalues, tangent multiplicity 2",
        JordanStructure({-8: [2, 2, 1, 1]}),
        [lambda: frechet_jcf(shifted_quartic, x416, y416)],
        lambda: oracle_jcf(bezout_quotient(shifted_quartic), x416, y416),
    )
    w417 = JordanSpec.single(0, 4)
    add(
        "fifth power on two nilpotent 4-blocks",
        JordanStructure({0: [2, 2, 2] + [1] * 10}),
        [lambda: frechet_jcf(w5, w417, w417)],
        lambda: oracle_jcf(bezout_quotient(w5), w417, w417),
    )
    n3 = JordanSpec.single(0, 3)
    p1 = BivariatePoly.from_string("0,0,1;0,2,0;-1,0,0")
    p2 = BivariatePoly.from_string("0,0,1;0,1,0;1,0,0")
    add(
        "doubly-critical quadratic, first coefficient pattern",
        JordanStructure({0: [3, 2, 2, 1, 1]}),
        [],
        lambda: oracle_jcf(p1, n3, n3),
    )
    add(
        "doubly-critical quadratic, second coefficient pattern",
        JordanStructure({0: [3, 2, 1, 1, 1, 1]}),
        [lambda: frechet_jcf(UnivariatePoly([0, 0, 0, 1]), n3, n3)],
        lambda: oracle_jcf(p2, n3, n3),
    )

    ok = True
    slow = []
    for name, expected, predictions, oracle in cases:
        start = time.perf_counter()
        values = [fn() for fn in predictions] + [oracle()]
        elapsed = time.perf_counter() - start
        case_ok = all(v == expected for v in values) and elapsed < 1.0
        if elapsed >= 1.0:
            slow.append(name)
        if not case_ok:
            print(f"  golden case failed: {name} -> {values}")
        ok = ok and case_ok
    _report(
        "criterion 1: golden examples, bit exact, < 1 s each",
        ok,
        f"{len(cases)} cases" + (f", slow: {slow}" if slow else ""),
    )
    assert ok


def test_criterion_2_grand_equivalence():
    rng = random.Random(20240801)
    count = 2000
    start = time.perf_counter()
    for i in range(count):
        f = random_univariate(rng, max_deg=8, bound=3)
        x = random_spec(rng, max_blocks=2, max_size=5)
        y = random_spec(rng, max_blocks=2, max_size=5)
        predicted = frechet_jcf(f, x, y)
        actual = oracle_jcf(bezout_quotient(f), x, y)
        assert predicted == actual, (f.to_string(), x, y)
    elapsed = time.perf_counter() - start
    ok = elapsed < 300.0
    _report(
        "criterion 2: grand equivalence on 2000 random derivative instances",
        ok,
        f"{elapsed:.1f} s",
    )
    assert ok


def test_criterion_3_generic_suite():
    rng = random.Random(20240802)
    accepted = 0
    tried = 0
    while accepted < 2000:
        tried += 1
        p = random_bivariate(rng, 3, 3, bound=3)
        if p.is_constant():
            continue
        x = random_spec_total(rng, max_total=6)
        y = random_spec_total(rng, max_total=6)
        try:
            predicted = predict_generic(p, x, y)
        except DegenerateCaseError:
            continue
        assert predicted == oracle_jcf(p, x, y), (p.to_string(), x, y)
        accepted += 1
    _report(
        "criterion 3: closed form equals oracle on 2000 nondegenerate instances",
        True,
        f"{tried} sampled",
    )


def test_criterion_4_bounds_suite():
    rng = random.Random(20240803)
    for _ in range(500):
        p = random_degenerate_poly(rng, size=rng.randint(3, 5))
        m, n = rng.randint(2, 5), rng.randint(2, 5)
        d = local_degree(p, 0, 0)
        sizes = weyr_structure(
            build_block_pair(p, 0, m, 0, n).shifted(p.eval(0, 0))
        )
        lo, hi = block_count_bounds(m, n, d)
        assert lo <= len(sizes) <= hi, (p.to_string(), m, n, d, sizes)
        assert sizes[0] <= max_block_size_bound(m, n, d)
    # Exact attainment data: 13 blocks against the [12, 16] sandwich.
    sizes = weyr_structure(build_block_pair(h_poly(4), 0, 4, 0, 4))
    assert block_count_bounds(4, 4, 4) == (12, 16)
    ok = len(sizes) == 13 and 13 > 12
    _report(
        "criterion 4: 500 degenerate instances inside the bounds sandwich",
        ok,
        "strict gap case attains 13 > 12",
    )
    assert ok


def test_criterion_5_toeplitz_suite(tmp_path):
    checked = 0
    predicted_count = 0
    for spec in iter_valid_specs(8, 8, 4, 3):
        assert check_properties(spec).all_ok()
        checked += 1
        if sufficient_rank_drop(*astuple(spec)):
            predicted_count += 1
            wide, witness = rank_drop_witness(spec)
            r = build_R(wide)
            assert any(witness)
            assert annihilates(r, witness)
            assert rank(r) < wide.max_rank
    assert rho(4, 8, 3, 2, 9) == 2
    records = scan_deficiencies(8, 8, 4, 3, out_path=tmp_path / "scan.jsonl")
    by_key = {r[:5]: r for r in records}
    unpredicted = by_key[(6, 6, 2, 1, 7)]
    ok = unpredicted.deficiency >= 1 and not unpredicted.predicted_by_sufficient
    _report(
        "criterion 5: exhaustive banded-matrix structure and rank-drop sweep",
        ok,
        f"{checked} specs checked, {predicted_count} predicted drops, "
        f"{len(records)} deficiencies",
    )
    assert ok


def test_criterion_6_similarity_suite():
    rng = random.Random(20240806)
    for i in range(100):
        m = rng.randint(2, 5)
        n = rng.randint(1, 5)
        if i % 2 == 0 or m < 3:
            z = random_block_toeplitz(rng, m, n, r=1)
            red = reduce_bidiagonal(z)
        else:
            r = rng.randint(2, m - 1)
            z = random_block_toeplitz(rng, m, n, r=r)
            red = reduce_shifted(z, r)
        zm = z.to_matrix()
        assert (zm @ red.transform - red.transform @ red.target).is_zero()
        full = full_transform(red)
        assert (zm @ full - full @ red.normal_form).is_zero()
    z = BlockToeplitzUT([[0, 0, 1], [0, 2, 0], [-2, 0, 0]])
    with pytest.raises(SingularA1Error):
        reduce_bidiagonal(z)
    w = BlockToeplitzUT(
        [[0, 0, 1], [1, 0, 0], [0, 0, 0]]
    ).to_matrix()
    ok = matrix_power(z.to_matrix(), 2).is_zero() and not matrix_power(
        w, 2
    ).is_zero()
    _report(
        "criterion 6: 100 exact similarity reductions plus the singular pivot case",
        ok,
    )
    assert ok


def test_criterion_7_structural_identities():
    rng = random.Random(20240807)

    # Secant-shift matrix identity on 200 distinct-eigenvalue instances.
    for _ in range(200):
        f = random_univariate(rng, max_deg=6)
        lam = Q(rng.randint(-2, 2))
        mu = Q(rng.randint(-2, 2))
        if lam == mu:
            mu = lam + 1
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        p = bezout_quotient(f)
        slope = (f(lam) - f(mu)) / (lam - mu)
        phi = f - UnivariatePoly([0, slope])
        jm, jn = jordan_block(lam, m), jordan_block(mu, n)
        im, i_n = RationalMatrix.identity(m), RationalMatrix.identity(n)
        lhs = (kron(jm, i_n) - kron(im, jn)) @ build_block_pair(
            p, lam, m, mu, n
        ).shifted(p.eval(lam, mu))
        rhs = kron(univariate_at_matrix(phi, jm), i_n) - kron(
            im, univariate_at_matrix(phi, jn)
        )
        assert lhs == rhs

    # Derivative-shift polynomial identity on 200 instances.
    for _ in range(200):
        f = random_univariate(rng, max_deg=8)
        p = bezout_quotient(f)
        beta = rng.randint(0, 2)
        gamma = rng.randint(0, min(2, 4 - beta))
        lhs = hasse_derivative(p, (beta + 1, gamma)) - hasse_derivative(
            p, (beta, gamma + 1)
        )
        rhs = X_MINUS_Y * hasse_derivative(p, (beta + 1, gamma + 1))
        assert lhs == rhs

    # Power-rank equality against the homogeneous model on 200
    # equal-eigenvalue instances with finite tangent multiplicity.
    checked = 0
    while checked < 200:
        f = random_univariate(rng, max_deg=6)
        lam = Q(rng.randint(-2, 2))
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        pred = pair_prediction(f, lam, m, lam, n)
        d = pred.local_mult
        if d == INFINITE or d >= m + n - 1:
            continue
        p = bezout_quotient(f)
        z = build_block_pair(p, lam, m, lam, n).shifted(p.eval(lam, lam))
        model = build_block_pair(h_poly(d), 0, m, 0, n)
        pz, ph = z, model
        while True:
            rz, rh = rank(pz), rank(ph)
            assert rz == rh, (f.to_string(), lam, m, n, d)
            if rz == 0:
                break
            pz, ph = pz @ z, ph @ model
        checked += 1

    _report(
        "criterion 7: structural identities, 200 instances each",
        True,
        "secant matrix identity, derivative-shift identity, power ranks",
    )
