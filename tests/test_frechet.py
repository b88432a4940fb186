import contextlib
import io
import json
import random
from fractions import Fraction as Q
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jordankron import (
    DegenerateCaseError,
    INFINITE,
    JordanSpec,
    JordanStructure,
    UnivariatePoly,
    bezout_quotient,
    frechet_jcf,
    oracle_jcf,
    predict_generic,
)
import jordankron.frechet as frechet_mod
from jordankron.bttb import block_pairs, build_block_pair
from jordankron.cli import main
from jordankron.exactmat import rank
from jordankron.frechet import _mirror, euclid_partition, pair_prediction, pair_predictions
from jordankron.generic import pair_prediction as generic_pair_prediction
from jordankron.oracle import oracle_pair
from helpers import (
    h_poly,
    per_k_pair_prediction,
    random_spec,
    random_univariate,
    reference_first_nonvanishing_order,
    reference_pair_prediction,
    reference_phi_distinct,
    reference_phi_equal,
    reference_univariate_hasse_eval,
)

QUARTIC = UnivariatePoly.from_string("0,0,-2,0,1")  # w^4 - 2w^2
CUBIC = UnivariatePoly.from_string("0,0,-1,1")  # w^3 - w^2
SHIFTED_QUARTIC = UnivariatePoly.from_string("0,0,-6,0,1")  # w^4 - 6w^2
W5 = UnivariatePoly.from_string("0,0,0,0,0,1")  # w^5

# ``jordankron frechet`` for w^3 on J_60(0), J_60(0): exit code, argv and the
# whole document, with all 3,481 ranks, recorded while every uncertified
# banded-Toeplitz rank was still eliminated on its own matrix.
J60_DOC = Path(__file__).resolve().parent / "data" / "frechet_w3_j60.json"


def test_phi_distinct_examples():
    assert reference_phi_distinct(QUARTIC, -1, 1) == QUARTIC
    assert reference_phi_distinct(CUBIC, 0, 1) == CUBIC
    assert reference_phi_distinct(UnivariatePoly([0, 2]), 0, 5).is_zero()


def test_phi_distinct_balances_endpoints():
    rng = random.Random(101)
    for _ in range(20):
        f = random_univariate(rng, max_deg=7)
        lam, mu = Q(rng.randint(-3, 3)), Q(rng.randint(-3, 3))
        if lam == mu:
            mu = lam + 1
        phi = reference_phi_distinct(f, lam, mu)
        assert phi(lam) == phi(mu)


def test_first_nonvanishing_order_examples():
    assert reference_first_nonvanishing_order(QUARTIC, -1, 4) == 2
    assert reference_first_nonvanishing_order(CUBIC, 1, 3) == 1
    assert reference_first_nonvanishing_order(UnivariatePoly([9]), 0, 5) == INFINITE
    assert reference_first_nonvanishing_order(UnivariatePoly(), 0, 5) == INFINITE


def test_euclid_partition_examples():
    assert euclid_partition(4, 2) == (2, 2)
    assert euclid_partition(3, 2) == (2, 1)
    assert euclid_partition(4, 1) == (4,)
    assert euclid_partition(4, 7) == (1, 1, 1, 1)
    assert euclid_partition(4, INFINITE) == (1, 1, 1, 1)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 30), st.integers(1, 40))
def test_euclid_partition_sums_and_shape(size, order):
    parts = euclid_partition(size, order)
    assert sum(parts) == size
    assert len(parts) == min(size, order)
    assert max(parts) - min(parts) <= 1


def test_phi_equal_examples():
    assert reference_phi_equal(SHIFTED_QUARTIC, 1) == SHIFTED_QUARTIC + UnivariatePoly(
        [0, 8]
    )
    assert reference_phi_equal(W5, 0) == W5
    assert reference_phi_equal(UnivariatePoly([7, 3]), 2) == UnivariatePoly([7])


def test_phi_equal_kills_first_derivative():
    rng = random.Random(103)
    for _ in range(20):
        f = random_univariate(rng, max_deg=7)
        lam = Q(rng.randint(-3, 3))
        assert reference_univariate_hasse_eval(reference_phi_equal(f, lam), 1, lam) == 0


RATIONALS = st.builds(Q, st.integers(-4, 4), st.integers(1, 3))


def _poly_power(base: UnivariatePoly, e: int) -> UnivariatePoly:
    out = UnivariatePoly([1])
    for _ in range(e):
        out = out * base
    return out


@st.composite
def derivative_pairs(draw):
    """(f, lam, m, mu, n) with f of degree -1..8 and mu = lam on about half
    the draws.  f is drawn one of three ways, so that many Hasse values
    vanish: sparse coefficients in powers of w, or in powers of (w - lam),
    or c + e*w + g (w - lam)^a (w - mu)^b, whose orders past the slope are
    k = a and h = b when lam != mu and g vanishes at neither."""
    lam = draw(RATIONALS)
    mu = lam if draw(st.booleans()) else draw(RATIONALS)
    # Sparse coefficients whose last one is zero only one time in nine.
    coeffs = draw(st.lists(st.one_of(st.just(0), RATIONALS), max_size=8))
    coeffs.append(draw(RATIONALS))
    way = draw(st.sampled_from(["w", "w - lam", "pinned"]))
    if way == "w":
        f = UnivariatePoly(coeffs)
    elif way == "w - lam":
        f = UnivariatePoly()
        for i, c in enumerate(coeffs):
            f = f + _poly_power(UnivariatePoly([-lam, 1]), i) * c
    else:
        g = UnivariatePoly(coeffs[-3:])
        a, b = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        f = UnivariatePoly(draw(st.lists(RATIONALS, max_size=2))) + g * _poly_power(
            UnivariatePoly([-lam, 1]), a
        ) * _poly_power(UnivariatePoly([-mu, 1]), b)
    return f, lam, draw(st.integers(1, 6)), mu, draw(st.integers(1, 6))


@settings(max_examples=400, deadline=None)
@given(derivative_pairs())
@example((UnivariatePoly(), 1, 2, 1, 3))
@example((UnivariatePoly([5]), 0, 2, 1, 3))
@example((UnivariatePoly([5, 3]), Q(1, 2), 3, Q(1, 2), 2))
@example((UnivariatePoly([0, 0, 1]), -1, 3, 1, 2))
@example((QUARTIC, -1, 4, 1, 3))  # slope 0 = f'(-1), so k = 2
@example((CUBIC, 0, 4, 1, 3))  # k = 2, h = 1
def test_pair_prediction_matches_reference_route(case):
    f, lam, m, mu, n = case
    pred = pair_prediction(f, lam, m, mu, n)
    ref = reference_pair_prediction(f, lam, m, mu, n)
    assert pred.eigenvalue == ref.eigenvalue
    if lam != mu:
        assert (pred.order_lam, pred.order_mu) == (ref.order_lam, ref.order_mu)
    else:
        assert pred.local_mult == ref.local_mult
    assert pred == ref
    assert pred.to_json_obj() == ref.to_json_obj()


@st.composite
def equal_pairs(draw):
    """(f, lam, m, n, d) with m, n <= 40 and f = a + b w + c (w - lam)^(d+1)
    + e (w - lam)^(d+2), c != 0, whose tangent multiplicity at lam is d."""
    lam, d = draw(RATIONALS), draw(st.integers(1, 5))
    a, b, e = (draw(RATIONALS) for _ in range(3))
    c = draw(RATIONALS.filter(bool))
    base = UnivariatePoly([-lam, 1])
    f = UnivariatePoly([a, b]) + _poly_power(base, d + 1) * c + _poly_power(base, d + 2) * e
    return f, lam, draw(st.integers(1, 40)), draw(st.integers(1, 40)), d


@settings(max_examples=100, deadline=None)
@given(equal_pairs())
@example((_poly_power(UnivariatePoly([0, 1]), 2), 0, 40, 40, 1))
@example((_poly_power(UnivariatePoly([-1, 1]), 6), 1, 1, 40, 5))
def test_equal_pair_prediction_matches_per_k_route(case):
    f, lam, m, n, d = case
    pred = pair_prediction(f, lam, m, lam, n)
    ref = per_k_pair_prediction(f, lam, m, n)
    assert pred.local_mult == d
    assert (pred.sizes, pred.rank_table) == (ref.sizes, ref.rank_table)
    assert pred == ref
    assert pred.to_json_obj() == ref.to_json_obj()


def distinct(f, lam, m, mu, n):
    pred = pair_prediction(f, lam, m, mu, n)
    assert pred.branch == "distinct"
    return pred.eigenvalue, pred.sizes


def equal(f, lam, m, n):
    pred = pair_prediction(f, lam, m, lam, n)
    assert pred.branch == "equal"
    return pred.eigenvalue, pred.sizes


def equal_nullities(m, n, d):
    """Nullities of the powers of the h_d matrix on nilpotent blocks, read
    off the serialized ranks of the equal-branch record of w^(d+1) at 0."""
    pred = pair_prediction(UnivariatePoly([0] * (d + 1) + [1]), 0, m, 0, n)
    assert pred.branch == "equal" and pred.local_mult == d
    ranks = pred.to_json_obj().get("ranks", [])
    top = -(-(m + n - 1) // d)
    return [0] + [
        m * n - sum(e["rank"] for e in ranks if e["s"] == power)
        for power in range(1, top + 1)
    ]


def test_distinct_ev_blocks_examples():
    eig, sizes = distinct(QUARTIC, -1, 4, 1, 3)
    assert (eig, sizes) == (Q(0), (3, 3, 2, 2, 1, 1))
    eig, sizes = distinct(CUBIC, 0, 4, 1, 3)
    assert (eig, sizes) == (Q(0), (4, 4, 2, 2))
    # Quadratic f always produces the plain staircase at lam + mu.
    f = UnivariatePoly([0, 0, 1])
    eig, sizes = distinct(f, 2, 3, -1, 2)
    assert (eig, sizes) == (Q(1), (4, 2))


def test_equal_ev_nullities_examples():
    assert equal_nullities(2, 2, 1) == [0, 2, 3, 4]
    assert equal_nullities(2, 3, 2) == [0, 4, 6]
    assert equal_nullities(4, 4, 4) == [0, 13, 16]


def test_equal_ev_blocks_examples():
    f = UnivariatePoly([0, 0, 1])
    assert equal(f, 0, 2, 2) == (Q(0), (3, 1))
    assert equal(SHIFTED_QUARTIC, 1, 3, 2) == (Q(-8), (2, 2, 1, 1))
    assert equal(W5, 0, 4, 4) == (Q(0), (2, 2, 2) + (1,) * 10)


def test_equal_ev_blocks_linear_and_flat_cases():
    # Linear f: the tangent-shifted derivative vanishes identically.
    assert equal(UnivariatePoly([5, 3]), 2, 3, 2) == (
        Q(3),
        (1,) * 6,
    )
    # Large multiplicity floors everything to unit blocks.
    assert equal(W5, 0, 2, 2) == (Q(0), (1, 1, 1, 1))


def test_frechet_jcf_examples():
    w2 = UnivariatePoly([0, 0, 1])
    spec2 = JordanSpec.single(0, 2)
    assert frechet_jcf(w2, spec2, spec2) == JordanStructure({0: [3, 1]})

    x, y = JordanSpec.single(-1, 4), JordanSpec.single(1, 3)
    assert frechet_jcf(QUARTIC, x, y) == JordanStructure({0: [3, 3, 2, 2, 1, 1]})

    mixed_x = JordanSpec([(0, 2), (1, 1)])
    mixed_y = JordanSpec.single(0, 1)
    w3 = UnivariatePoly([0, 0, 0, 1])
    result = frechet_jcf(w3, mixed_x, mixed_y)
    assert result == oracle_jcf(bezout_quotient(w3), mixed_x, mixed_y)
    assert result == JordanStructure({0: [1, 1], 1: [1]})


@st.composite
def mirror_pairs(draw):
    """(f, lam, m, mu, n) with f of degree 0..6, sizes 1..9 and mu = lam on
    about half the draws.  f has sparse rational coefficients in powers of
    w or of (w - lam), or is c + e*w + g (w - lam)^a (w - mu)^b, so that
    the orders k and h often differ."""
    lam = draw(RATIONALS)
    mu = lam if draw(st.booleans()) else draw(RATIONALS)
    coeffs = draw(st.lists(st.one_of(st.just(0), RATIONALS), max_size=6))
    coeffs.append(draw(RATIONALS.filter(bool)))
    way = draw(st.sampled_from(["w", "w - lam", "pinned"]))
    if way == "w":
        f = UnivariatePoly(coeffs)
    elif way == "w - lam":
        f = UnivariatePoly()
        for i, c in enumerate(coeffs):
            f = f + _poly_power(UnivariatePoly([-lam, 1]), i) * c
    else:
        a, b = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        g = UnivariatePoly(coeffs[-(7 - a - b):])  # degree at most 6 - a - b
        f = UnivariatePoly(draw(st.lists(RATIONALS, max_size=2))) + g * _poly_power(
            UnivariatePoly([-lam, 1]), a
        ) * _poly_power(UnivariatePoly([-mu, 1]), b)
    return f, lam, draw(st.integers(1, 9)), mu, draw(st.integers(1, 9))


@settings(max_examples=300, deadline=None)
@given(mirror_pairs())
@example((CUBIC, 0, 4, 1, 3))  # k = 2, h = 1
@example((W5, 0, 9, 0, 4))
def test_mirror_pair_record_is_the_swapped_record(case):
    f, lam, m, mu, n = case
    swapped = _mirror(pair_prediction(f, lam, m, mu, n))
    mirror = pair_prediction(f, mu, n, lam, m)
    assert mirror == swapped
    assert mirror.to_json_obj() == swapped.to_json_obj()


def _run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, json.loads(out.getvalue())


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_frechet_jcf_answers_each_unordered_pair_once(monkeypatch, k):
    # Every walk over the block pairs answers each distinct pair once.  The
    # derivative predictor answers each unordered pair once, as a mirror
    # takes its twin's swapped record.  The generic predictor, in the library
    # and in the CLI, and the oracle answer each ordered pair once, mirrors
    # included.  W repeats its largest block, so a walk that answered every
    # pair would make more calls.
    import jordankron.generic as generic_mod
    import jordankron.oracle as oracle_mod

    real = {"frechet": frechet_mod.pair_prediction,
            "generic": generic_mod.pair_prediction,
            "oracle": oracle_mod.oracle_pair}
    calls = {name: [] for name in real}

    def counted(name):
        def call(poly, *pair):
            calls[name].append(pair)
            return real[name](poly, *pair)
        return call

    monkeypatch.setattr(frechet_mod, "pair_prediction", counted("frechet"))
    monkeypatch.setattr(generic_mod, "pair_prediction", counted("generic"))
    monkeypatch.setattr(oracle_mod, "oracle_pair", counted("oracle"))
    w = JordanSpec([(Q(1, 2), size) for size in (*range(1, k + 1), k)])
    distinct = list(dict.fromkeys(w.blocks))
    ordered = [(*a, *b) for a in distinct for b in distinct]
    pairs = list(block_pairs(w, w))
    assert len(pairs) == (k + 1) ** 2

    result = frechet_jcf(W5, w, w)
    assert len(calls["frechet"]) == len(set(calls["frechet"])) == k * (k + 1) // 2
    plain = [real["frechet"](W5, *pair) for pair in pairs]
    assert result == JordanStructure.from_pairs((pr.eigenvalue, pr.sizes) for pr in plain)

    p = bezout_quotient(W5)  # both first derivatives survive at (1/2, 1/2)
    plain = [real["generic"](p, *pair) for pair in pairs]
    assert predict_generic(p, w, w) == JordanStructure.from_pairs(
        (pr.eigenvalue, pr.sizes) for pr in plain
    )
    assert calls["generic"] == ordered
    calls["generic"].clear()
    code, doc = _run_cli(["predict", "--f", "0,0,0,0,0,1", "--W", w.to_json()])
    assert code == 0
    assert doc["diagnostics"] == [pr.to_json_obj() for pr in plain]
    assert calls["generic"] == ordered

    plain = [real["oracle"](p, *pair) for pair in pairs]
    assert oracle_jcf(p, w, w) == JordanStructure.from_pairs(plain) == result
    assert calls["oracle"] == ordered


def test_pair_predictions_match_a_plain_per_pair_loop():
    # Blocks are drawn from three (eigenvalue, size) choices, so specs
    # repeat blocks, and X = Y, or Y shares X's choices, holds mirrors.
    # Both predictors, the CLI's generic records and the oracle must give
    # what one call per block pair gives.
    rng = random.Random(139)
    eigs = [Q(-1), Q(0), Q(1, 2), Q(2)]
    for trial in range(80):
        f = random_univariate(rng, max_deg=6)
        choices = [(rng.choice(eigs), rng.randint(1, 6)) for _ in range(3)]
        x = JordanSpec([rng.choice(choices) for _ in range(rng.randint(2, 5))])
        y = x if trial % 2 else JordanSpec([rng.choice(choices) for _ in range(3)])
        plain = [pair_prediction(f, *pair) for pair in block_pairs(x, y)]
        assert pair_predictions(f, x, y) == plain
        assert frechet_jcf(f, x, y) == JordanStructure.from_pairs(
            (pr.eigenvalue, pr.sizes) for pr in plain
        )
        p = bezout_quotient(f)
        assert oracle_jcf(p, x, y) == JordanStructure.from_pairs(
            oracle_pair(p, *pair) for pair in block_pairs(x, y)
        )
        if p.is_constant():
            continue
        plain = [generic_pair_prediction(p, *pair) for pair in block_pairs(x, y)]
        degenerate = next((pr for pr in plain if pr.bounds is not None), None)
        code, doc = _run_cli(
            ["predict", "--f", f.to_string(), "--X", x.to_json(), "--Y", y.to_json()]
        )
        if degenerate is None:
            assert predict_generic(p, x, y) == JordanStructure.from_pairs(
                (pr.eigenvalue, pr.sizes) for pr in plain
            )
            assert code == 0
            assert doc["diagnostics"] == [pr.to_json_obj() for pr in plain]
        else:
            with pytest.raises(DegenerateCaseError) as caught:
                predict_generic(p, x, y)
            assert caught.value.prediction == degenerate
            assert code == 2
            entry = degenerate.to_json_obj()
            assert doc["degeneratePair"] == {key: entry[key] for key in ("lam", "mu", "m", "n")}


def test_frechet_cli_diagnostics_are_the_per_pair_records():
    f = UnivariatePoly.from_string("0,0,0,1")
    w_text = ('[{"eig":"0","size":3},{"eig":"0","size":2},'
              '{"eig":"1/2","size":2},{"eig":"0","size":2}]')
    w = JordanSpec.from_json(w_text)
    code, doc = _run_cli(["frechet", "--f", "0,0,0,1", "--W", w_text])
    assert code == 0
    assert doc["diagnostics"] == [
        pair_prediction(f, *pair).to_json_obj() for pair in block_pairs(w, w)
    ]


def test_frechet_matches_generic_when_applicable():
    # At distinct eigenvalues both predictors read the same first orders k
    # and h: the generic record is degenerate exactly when k, h, m and n
    # all exceed 1, and its branch otherwise names which of k and h is 1.
    branches = {(True, True): "both-nonzero", (True, False): "py-zero",
                (False, True): "px-zero", (False, False): "size-one-escape"}
    rng = random.Random(107)
    checked = 0
    while checked < 60:
        f = random_univariate(rng, max_deg=6)
        p = bezout_quotient(f)
        if p.is_constant():
            continue
        lam, mu = Q(rng.randint(-2, 2)), Q(rng.randint(-2, 2))
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        generic = generic_pair_prediction(p, lam, m, mu, n)
        pred = pair_prediction(f, lam, m, mu, n)
        if lam != mu:
            k, h = pred.order_lam, pred.order_mu
            degenerate = k >= 2 and h >= 2 and m > 1 and n > 1
            assert (generic.branch == "degenerate") == degenerate
            if not degenerate:
                assert generic.branch == branches[k == 1, h == 1]
        if generic.branch == "degenerate":
            continue
        assert pred.sizes == generic.sizes
        assert pred.eigenvalue == generic.eigenvalue
        checked += 1


def test_pair_sizes_sum_to_mn():
    rng = random.Random(109)
    for _ in range(60):
        f = random_univariate(rng, max_deg=8)
        lam, mu = Q(rng.randint(-2, 2)), Q(rng.randint(-2, 2))
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        pred = pair_prediction(f, lam, m, mu, n)
        assert sum(pred.sizes) == m * n


def test_equal_ev_power_ranks_match_homogeneous_model():
    # With d the tangent multiplicity, powers of the shifted pair matrix
    # have the same ranks as powers of the h_d matrix on nilpotent blocks.
    rng = random.Random(113)
    checked = 0
    while checked < 20:
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
        power_z, power_h = z, model
        while True:
            assert rank(power_z) == rank(power_h)
            if rank(power_z) == 0:
                break
            power_z = power_z @ z
            power_h = power_h @ model
        checked += 1


def test_grand_equivalence_small():
    rng = random.Random(127)
    for _ in range(100):
        f = random_univariate(rng, max_deg=8)
        x = random_spec(rng, max_blocks=2, max_size=4)
        y = random_spec(rng, max_blocks=2, max_size=4)
        assert frechet_jcf(f, x, y) == oracle_jcf(bezout_quotient(f), x, y)


def test_equivalence_with_fractional_eigendata():
    # Non-integer rational eigenvalues and coefficients exercise the
    # denominator-clearing path of the oracle end to end.
    rng = random.Random(131)
    eigs = [Q(1, 2), Q(-2, 3), Q(0), Q(3, 4), Q(-1, 2)]
    for _ in range(60):
        f = UnivariatePoly(
            [
                Q(rng.randint(-4, 4), rng.choice([1, 2, 3]))
                for _ in range(rng.randint(1, 7))
            ]
        )
        x = JordanSpec(
            [(rng.choice(eigs), rng.randint(1, 4)) for _ in range(rng.randint(1, 2))]
        )
        y = JordanSpec(
            [(rng.choice(eigs), rng.randint(1, 4)) for _ in range(rng.randint(1, 2))]
        )
        assert frechet_jcf(f, x, y) == oracle_jcf(bezout_quotient(f), x, y)


def test_nullity_sequences_are_monotone_with_nonnegative_counts():
    for m in range(1, 6):
        for n in range(m, 6):
            for d in range(1, m + n):
                nus = equal_nullities(m, n, d)
                assert nus[0] == 0 and nus[-1] == m * n
                diffs = [b - a for a, b in zip(nus, nus[1:])]
                assert all(x > 0 for x in diffs)
                padded = nus + [m * n] * 2
                for s in range(1, len(padded) - 1):
                    assert 2 * padded[s] - padded[s - 1] - padded[s + 1] >= 0


def test_frechet_w3_on_j60_matches_recorded_document():
    golden = json.loads(J60_DOC.read_text())
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(golden["argv"]) == golden["exit"] == 0
    assert json.loads(out.getvalue()) == golden["stdout"]
    w = JordanSpec.single(0, 60)
    result = frechet_jcf(UnivariatePoly.from_string("0,0,0,1"), w, w)
    assert result.to_json_obj() == golden["stdout"]["result"]
