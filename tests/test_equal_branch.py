"""The equal branch of the derivative predictor against the oracle on every
deficient block pair within the oracle's reach.

The branch's one non-trivial step is a Hankel rank below the peak of its
tent.  ``tests/data/deficient_triples.json`` records the triples (m, n, d),
m <= n <= 32 and d <= 6, on which that happens; there are 455, and all but
11 have a block above 5, the largest block the other oracle comparisons
draw.  Wider sweeps over the same triples, and spot checks of the other
branches at these sizes, are in ``tests/oracle_sweeps.py``.

The branch proves some powers' full Hankel ranks from the two powers
before them, by Frobenius' rank inequality, instead of eliminating.  That
proof fires only on full ranks, and for the tangent powers with
m <= n <= 30 only at d = 1, where no triple is deficient.  So the last
tests here count the eliminations it spares and check its ranks against
the eliminated ones and its sizes against the oracle.
"""

import json

import pytest

import jordankron.toeplitz as toeplitz_mod
from jordankron import JordanSpec, UnivariatePoly, frechet_jcf, scan_deficiencies
from jordankron.frechet import pair_prediction

from helpers import (
    DEFICIENT_TRIPLES,
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
    # w^2 (d = 1): power 1 has a certified middle, powers 2..n are
    # eliminated and powers n + 1..2n - 2 proved; eliminating every
    # uncertified power would take 2n - 3 calls.
    ("0,0,1", 24, 23),
    ("0,0,1", 40, 39),
    # w^3 (d = 2): the inequality proves no power, so 39 calls either way.
    ("0,0,0,1", 40, 39),
])
def test_frobenius_proves_the_full_ranks_it_spares(monkeypatch, f, n, calls):
    real = toeplitz_mod._rank_int_rows
    eliminations = []

    def counted(rows):
        eliminations.append(len(rows))
        return real(rows)

    monkeypatch.setattr(toeplitz_mod, "_rank_int_rows", counted)
    w = JordanSpec.single(0, n)
    frechet_jcf(UnivariatePoly.from_string(f), w, w)
    assert len(eliminations) == calls


def test_every_power_keeps_its_eliminated_hankel_rank():
    # The per-k route eliminates every power by hankel_rank, so equal
    # records mean every proved rank in rank_table is the eliminated one.
    for d in (1, 2):
        f = tangent_power(d)
        for n in range(1, 25):
            for m in range(1, n + 1):
                assert pair_prediction(f, 0, m, 0, n) == per_k_pair_prediction(f, 0, m, n)


def test_a_two_term_tangent_power_matches_the_oracle_up_to_size_14():
    # At d = 1 the inequality proves the full ranks of the later powers,
    # none of which the deficient triples reach.
    pairs = [(m, n, 1) for n in range(1, 15) for m in range(1, n + 1)]
    assert len(pairs) == 105
    assert equal_branch_mismatches(two_term_tangent_power, pairs) == []
