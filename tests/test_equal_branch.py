"""The equal branch of the derivative predictor against the oracle on every
deficient block pair within the oracle's reach.

The branch's one non-trivial step is a Hankel rank below the peak of its
tent.  ``tests/data/deficient_triples.json`` records the triples (m, n, d),
m <= n <= 32 and d <= 6, on which that happens; there are 455, and all but
11 have a block above 5, the largest block the other oracle comparisons
draw.  Wider sweeps over the same triples, and spot checks of the other
branches at these sizes, are in ``tests/oracle_sweeps.py``.

At d = 1 every R_k has full rank, by the strong Lefschetz property of
Q[x,y]/(x^m, y^n), so neither the branch nor the scanner eliminates there,
and the scan alone does not show by elimination that no triple has d = 1.
One test here eliminates every uncertified middle R_k at d = 1 up to
n <= 32 and finds it full; the last ones count the eliminations the rule
spares and check the branch's ranks against eliminated ones and its sizes
against the oracle.
"""

import json

import pytest

import jordankron.toeplitz as toeplitz_mod
from jordankron import JordanSpec, UnivariatePoly, frechet_jcf, scan_deficiencies
from jordankron.frechet import pair_prediction

from helpers import (
    DEFICIENT_TRIPLES,
    count_gamma_steps,
    count_reciprocal_steps,
    d1_rank_deficits,
    deficient_triples,
    equal_branch_mismatches,
    per_k_pair_prediction,
    perturbed_tangent_power,
    tangent_power,
    two_term_tangent_power,
)

TRIPLES = deficient_triples()


def test_the_recorded_triples_are_the_deficient_ones():
    box = json.loads(DEFICIENT_TRIPLES.read_text())["box"]
    assert box == [32, 32, 6, 62]  # ell = 62 reaches every k at d = 1
    assert len(TRIPLES) == 455
    assert sorted({rec[:3] for rec in scan_deficiencies(*box)}) == TRIPLES


def test_every_uncertified_middle_at_d_1_has_full_rank():
    # The scan above eliminates nothing at d = 1; here every such middle
    # R_k is built and eliminated, without _hankel_rank.
    assert d1_rank_deficits(32) == (10416, [])


@pytest.mark.parametrize("d", range(2, 7))
def test_the_tangent_power_matches_the_oracle_on_every_deficient_pair(d):
    triples = [t for t in TRIPLES if t[2] == d]
    assert triples
    assert equal_branch_mismatches(tangent_power, triples) == []


def test_a_perturbed_tangent_power_matches_the_oracle_up_to_size_16():
    triples = [t for t in TRIPLES if t[1] <= 16]
    assert len(triples) == 162
    assert equal_branch_mismatches(perturbed_tangent_power, triples) == []


@pytest.mark.parametrize("f, n, calls", [
    # w^2 (d = 1): every power has full Hankel rank, and none eliminates
    # or builds a gamma; eliminating every uncertified power would take
    # 2n - 3 calls.
    ("0,0,1", 24, 0),
    ("0,0,1", 40, 0),
    # w^3 (d = 2): powers 1..39 all have an uncertified middle, and each
    # takes one convolution step.
    ("0,0,0,1", 40, 39),
])
def test_the_equal_branch_eliminates_only_at_d_above_1(monkeypatch, f, n, calls):
    real = toeplitz_mod._linear_complexity
    eliminations = []

    def counted(s):
        eliminations.append(len(s))
        return real(s)

    monkeypatch.setattr(toeplitz_mod, "_linear_complexity", counted)
    steps = count_gamma_steps(monkeypatch)
    w = JordanSpec.single(0, n)
    frechet_jcf(UnivariatePoly.from_string(f), w, w)
    assert len(eliminations) == len(steps) == calls


@pytest.mark.parametrize("d", [2, 3, 4])
def test_each_pair_builds_each_reciprocal_once(monkeypatch, d):
    # A block pair keeps one ladder of reciprocals of gamma, to min(m, n)
    # coefficients, so each power's reciprocal is one step, up to the
    # largest power s that peels: uncertified, with max(m, n) > s*d.  The
    # six unordered pairs of W are answered once each; the mirrors take
    # their twin's record and build nothing.
    sizes = (9, 16, 23)
    w = JordanSpec([(0, size) for size in sizes])
    steps = count_reciprocal_steps(monkeypatch)
    frechet_jcf(tangent_power(d), w, w)
    want = 0
    for i, m in enumerate(sizes):
        for n in sizes[i:]:
            top = -(-(m + n - 1) // d)
            want += max((s for s in range(1, top)
                         if s * d < n < (m + n + s * d) // 2 < m + s * d), default=0)
    assert want
    assert steps == [d] * want


def test_every_power_keeps_its_eliminated_hankel_rank():
    # The per-k route eliminates the middle R_k of every power, so equal
    # records mean every rank in rank_table is the eliminated one, the
    # ones proved full at d = 1 too.
    for d in (1, 2):
        f = tangent_power(d)
        for n in range(1, 25):
            for m in range(1, n + 1):
                assert pair_prediction(f, 0, m, 0, n) == per_k_pair_prediction(f, 0, m, n)


def test_a_two_term_tangent_power_matches_the_oracle_up_to_size_14():
    # At d = 1 no power eliminates, and no deficient triple reaches it.
    pairs = [(m, n, 1) for n in range(1, 15) for m in range(1, n + 1)]
    assert len(pairs) == 105
    assert equal_branch_mismatches(two_term_tangent_power, pairs) == []
