"""Oracle comparisons too slow for the tier-1 suite, run as a script:

    PYTHONPATH=src python tests/oracle_sweeps.py

pytest does not collect this file.  It checks both predictors against
``oracle_pair`` at block sizes the tier-1 comparisons do not reach, and
the d = 1 rule of ``jordankron.toeplitz`` by elimination:

* the equal branch with the perturbed tangent power on every recorded
  deficient triple with n <= 24 (``tests/test_equal_branch.py`` stops at
  n <= 16);
* the equal branch with f = w^(d+1) + w^(d+2) on every pair m <= n <= 20
  at d = 1 (the tier-1 test stops at n <= 14), where every Hankel rank is
  full and no power eliminates, and on every pair m <= n <= 16 at d = 2
  that is not a recorded deficient triple;
* every uncertified middle R_k at d = 1 with m <= n <= 64, at every ell
  with some k, built and eliminated and found at full rank (the tier-1
  test stops at n <= 32);
* every uncertified middle R_k with m <= n <= 64, d = 2..6 and ell <= 8,
  ranked by ``toeplitz._hankel_rank``, from the linear complexity of its
  window or, for n > ell*d, of the Schur complement of its unit
  anti-triangular block, and by elimination of the whole middle (the
  tier-1 test stops at n <= 32);
* the generic predictor on pairs of sizes 6-32 with
  p = (x - lam)^k + c (y - mu)^h + (x - lam)^k (y - mu) + e, so that the
  orders at (lam, mu) are k and h, one of them 1 (both above 1 is the
  degenerate case, which has no sizes);
* the distinct branch of the derivative predictor on pairs of sizes 6-32
  with f = c0 + c1 w + (w - lam)^a (w - mu)^b g(w) for a dense g, so that
  the orders at lam and mu are a and b.

Every draw comes from a fixed seed.  The script prints one line per sweep
and exits 1 on any mismatch or rank deficit.
"""

from __future__ import annotations

import random
import sys
import time
from fractions import Fraction

from jordankron import BivariatePoly, UnivariatePoly, bezout_quotient
from jordankron import frechet, generic
from jordankron.oracle import oracle_pair

from helpers import (
    d1_rank_deficits,
    deficient_triples,
    equal_branch_mismatches,
    hankel_rank_mismatches,
    perturbed_tangent_power,
    two_term_tangent_power,
)


def _power(base, e, one):
    out = one
    for _ in range(e):
        out = out * base
    return out


def equal_perturbed() -> tuple[int, list]:
    triples = [t for t in deficient_triples() if t[1] <= 24]
    return len(triples), equal_branch_mismatches(perturbed_tangent_power, triples)


def equal_full_rank() -> tuple[int, list]:
    deficient = set(deficient_triples())
    pairs = [(m, n, 1) for n in range(1, 21) for m in range(1, n + 1)]
    pairs += [(m, n, 2) for n in range(1, 17) for m in range(1, n + 1)
              if (m, n, 2) not in deficient]
    return len(pairs), equal_branch_mismatches(two_term_tangent_power, pairs)


def generic_pairs(rng: random.Random, count: int = 40) -> tuple[int, list]:
    bad = []
    for _ in range(count):
        lam, mu = Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2))
        k, h = rng.randint(1, 6), 1
        if rng.random() < 0.5:
            k, h = h, k
        c, e = rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(-2, 2)
        m, n = rng.randint(6, 32), rng.randint(6, 32)
        one = BivariatePoly([[1]])
        x, y = BivariatePoly([[-lam], [1]]), BivariatePoly([[-mu, 1]])
        xk = _power(x, k, one)
        p = xk + _power(y, h, one) * c + xk * y + BivariatePoly([[e]])
        pred = generic.pair_prediction(p, lam, m, mu, n)
        if (pred.eigenvalue, pred.sizes) != oracle_pair(p, lam, m, mu, n):
            bad.append((p.to_string(), lam, m, mu, n))
    return count, bad


def distinct_pairs(rng: random.Random, count: int = 38) -> tuple[int, list]:
    bad = []
    for _ in range(count):
        lam, mu = rng.sample(range(-2, 3), 2)
        a, b = rng.randint(1, 4), rng.randint(1, 4)
        g = UnivariatePoly([rng.choice((-2, -1, 1, 2))]
                           + [rng.randint(-3, 3) for _ in range(rng.randint(0, 2))])
        one = UnivariatePoly([1])
        f = (UnivariatePoly([rng.randint(-3, 3), rng.randint(-3, 3)])
             + _power(UnivariatePoly([-lam, 1]), a, one)
             * _power(UnivariatePoly([-mu, 1]), b, one) * g)
        m, n = rng.randint(6, 32), rng.randint(6, 32)
        pred = frechet.pair_prediction(f, lam, m, mu, n)
        if (pred.eigenvalue, pred.sizes) != oracle_pair(bezout_quotient(f), lam, m, mu, n):
            bad.append((f.coeffs, lam, m, mu, n))
    return count, bad


def main() -> int:
    failed = False
    sweeps = (
        ("equal branch, perturbed tangent power, n <= 24", equal_perturbed),
        ("equal branch, two-term tangent power, d = 1 to n <= 20, d = 2 to n <= 16",
         equal_full_rank),
        ("d = 1 middle Hankel ranks, n <= 64", lambda: d1_rank_deficits(64)),
        ("uncertified middle Hankel ranks, n <= 64", lambda: hankel_rank_mismatches(64)),
        ("generic predictor, sizes 6-32", lambda: generic_pairs(random.Random(2101))),
        ("distinct branch, sizes 6-32", lambda: distinct_pairs(random.Random(2102))),
    )
    for name, sweep in sweeps:
        start = time.perf_counter()
        checked, bad = sweep()
        print(f"{name}: {checked} checked, {len(bad)} mismatches, "
              f"{time.perf_counter() - start:.1f} s", flush=True)
        for case in bad:
            print(f"  mismatch: {case!r}")
        failed = failed or bool(bad)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
