"""Exact Jordan structure of bivariate matrix polynomials in Kronecker form.

Given the Jordan data of two matrices X and Y and a bivariate polynomial p
(or a univariate f whose derivative map is meant), the package computes the
exact Jordan canonical form of ``sum a_ij (X^i (x) Y^j)`` through
closed-form structure results, and independently verifies every prediction
with a brute-force exact-rational oracle built on ranks of powers.

All arithmetic is exact over the rationals; nothing is ever rounded.
"""

from .bounds import (
    FiltrationDims,
    block_count_bounds,
    filtration_dims,
    max_block_size_bound,
)
from .bttb import (
    JordanSpec,
    assemble_jordan_matrix,
    build_block_pair,
    build_full,
    build_raw_kron,
    frechet_kronecker_form,
    frechet_kronecker_raw,
    univariate_at_matrix,
)
from .exactmat import (
    IntegerMatrix,
    NotSquareError,
    RationalMatrix,
    direct_sum,
    jordan_block,
    kron,
    matrix_power,
    nullity,
    rank,
)
from .frechet import (
    EqualEigenvaluesError,
    PairPrediction,
    distinct_ev_blocks,
    equal_ev_blocks,
    equal_ev_nullities,
    euclid_partition,
    first_nonvanishing_order,
    frechet_jcf,
    pair_prediction,
    phi_distinct,
    phi_equal,
)
from .generic import (
    DegenerateCaseError,
    GenericCaseTag,
    classify,
    generic_pair_sizes,
    kronecker_sum_sizes,
    nilpotent_power_sizes,
    predict_generic,
)
from .oracle import (
    JordanStructure,
    NotNilpotentError,
    WeyrConsistencyError,
    WeyrData,
    oracle_jcf,
    oracle_jcf_matrix,
    weyr_data,
    weyr_structure,
)
from .polyring import (
    INFINITE,
    Biindex,
    BivariatePoly,
    ConstantPolynomialError,
    Rational,
    UnivariatePoly,
    bezout_quotient,
    eval_bivariate,
    format_rational,
    h_poly,
    hasse_derivative,
    hasse_value_table,
    local_degree,
    parse_rational,
    root_multiplicity,
    univariate_hasse_eval,
)
from .similarity import (
    BlockToeplitzUT,
    NonzeroLowOrderError,
    SimilarityReduction,
    SingularA1Error,
    SingularArError,
    SingularBlockError,
    reduce_bidiagonal,
    reduce_shifted,
)
from .toeplitz import (
    DeficiencyRecord,
    GammaCoeffs,
    InvalidSpecError,
    PropertyReport,
    PropertyViolationError,
    ToeplitzSpec,
    build_R,
    check_properties,
    gamma_coeffs,
    offset_c,
    rank_drop_witness,
    rho,
    scan_deficiencies,
    sufficient_rank_drop,
)

__version__ = "0.1.0"
