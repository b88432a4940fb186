"""Exact Jordan structure of bivariate matrix polynomials in Kronecker form.

Given the Jordan data of two matrices X and Y and a bivariate polynomial p
(or a univariate f whose derivative map is meant), the package computes the
exact Jordan canonical form of ``sum a_ij (X^i (x) Y^j)`` through
closed-form structure results, and independently verifies every prediction
with a brute-force exact-rational oracle built on ranks of powers.

All arithmetic is exact over the rationals; nothing is ever rounded.

Importing the package loads none of its modules.  Each name of ``__all__``,
and each submodule, is imported on first access (PEP 562), so a process
loads only the modules it uses.
"""

import importlib

_EXPORTS = {
    "bounds": ("PairBounds", "block_count_bounds", "max_block_size_bound"),
    "bttb": ("build_full", "build_raw_kron"),
    "exactmat": ("RationalMatrix",),
    "frechet": ("frechet_jcf",),
    "generic": ("DegenerateCaseError", "PairPrediction", "predict_generic"),
    "jordan": ("JordanSpec", "JordanStructure", "WeyrConsistencyError"),
    "oracle": ("NotNilpotentError", "oracle_jcf", "oracle_jcf_matrix"),
    "polyring": ("INFINITE", "BivariatePoly", "ConstantPolynomialError",
                 "UnivariatePoly", "bezout_quotient"),
    "similarity": ("BlockToeplitzUT", "reduce_bidiagonal", "reduce_shifted"),
    "toeplitz": ("DeficiencyRecord", "rho", "scan_deficiencies", "sufficient_rank_drop"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli"}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    """Import an exported name, or a submodule, on first access and keep it
    in the module globals, so later lookups bypass this function."""
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(__all__)
