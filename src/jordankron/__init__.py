"""Exact Jordan structure of bivariate matrix polynomials in Kronecker form.

Given the Jordan data of two matrices X and Y and a bivariate polynomial p
(or a univariate f whose derivative map is meant), the package computes the
exact Jordan canonical form of ``sum a_ij (X^i (x) Y^j)`` through
closed-form structure results, and independently verifies every prediction
with a brute-force exact-rational oracle built on ranks of powers.

All arithmetic is exact over the rationals; nothing is ever rounded.
"""

from .bounds import PairBounds, block_count_bounds, max_block_size_bound
from .bttb import JordanSpec, build_full, build_raw_kron
from .exactmat import RationalMatrix
from .frechet import frechet_jcf
from .generic import DegenerateCaseError, PairPrediction, predict_generic
from .oracle import (
    JordanStructure,
    NotNilpotentError,
    WeyrConsistencyError,
    oracle_jcf,
    oracle_jcf_matrix,
)
from .polyring import (
    INFINITE,
    BivariatePoly,
    ConstantPolynomialError,
    UnivariatePoly,
    bezout_quotient,
)
from .similarity import BlockToeplitzUT, reduce_bidiagonal, reduce_shifted
from .toeplitz import (
    DeficiencyRecord,
    rho,
    scan_deficiencies,
    sufficient_rank_drop,
)

__version__ = "0.1.0"
