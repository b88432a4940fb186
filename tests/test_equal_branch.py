"""The equal branch of the derivative predictor against the oracle on every
deficient block pair within the oracle's reach.

The branch's one non-trivial step is a Hankel rank below the peak of its
tent.  ``tests/data/deficient_triples.json`` records the triples (m, n, d),
m <= n <= 32 and d <= 6, on which that happens; there are 455, and all but
11 have a block above 5, the largest block the other oracle comparisons
draw.  Wider sweeps over the same triples, and spot checks of the other
branches at these sizes, are in ``tests/oracle_sweeps.py``.
"""

import json

import pytest

from jordankron import scan_deficiencies

from helpers import (
    DEFICIENT_TRIPLES,
    deficient_triples,
    equal_branch_mismatches,
    perturbed_tangent_power,
    tangent_power,
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
