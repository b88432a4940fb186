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
    count_runs,
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
    # takes one convolution step and starts one Berlekamp-Massey run, at
    # its window's first term, past n - 2s for a peeled power s.
    ("0,0,0,1", 40, 39),
])
def test_the_equal_branch_eliminates_only_at_d_above_1(monkeypatch, f, n, calls):
    runs = count_runs(monkeypatch)
    steps = count_gamma_steps(monkeypatch)
    w = JordanSpec.single(0, n)
    frechet_jcf(UnivariatePoly.from_string(f), w, w)
    assert len(runs) == len(steps) == calls
    d = len(f.split(",")) - 2
    assert runs == [abs(n - s * d) + 1 for s in range(1, calls + 1)]


@pytest.mark.parametrize("d", [2, 3, 4])
def test_each_pair_builds_each_reciprocal_once(monkeypatch, d):
    # A call keeps one table per d, whose ladder of reciprocals of gamma
    # holds min(max X size, max Y size) coefficients, so each power's
    # reciprocal is one step per call, up to the largest power s that
    # peels in any pair: uncertified, with max(m, n) > s*d.  Each
    # uncertified power reads its window as a prefix of the call's run of
    # its (s, max(m, n)), so pairs with the same longer side share runs.
    # The six unordered pairs of W are answered once each; the mirrors take
    # their twin's record and build nothing.
    sizes = (9, 16, 23)
    w = JordanSpec([(0, size) for size in sizes])
    steps = count_reciprocal_steps(monkeypatch)
    runs = count_runs(monkeypatch)
    frechet_jcf(tangent_power(d), w, w)
    peels, windows = [], []
    for i, m in enumerate(sizes):
        for n in sizes[i:]:
            top = -(-(m + n - 1) // d)
            uncertified = [s for s in range(1, top) if n < (m + n + s * d) // 2 < m + s * d]
            peels += [s for s in uncertified if s * d < n]
            windows += [(s, n) for s in uncertified]
    assert peels
    assert steps == [d] * max(peels)
    assert len(runs) == len(set(windows)) < len(windows)


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
