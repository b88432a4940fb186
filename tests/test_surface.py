"""The public surface the README documents is the one the package has."""

import importlib
import re
import types
from pathlib import Path

import pytest

import jordankron

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _root_export_list() -> set[str]:
    """Backticked names in the bullets of the README's "package root
    exports" list."""
    section = README.split("The package root exports", 1)[1].split("\n\n", 1)[1]
    bullets = section.split("\n\n", 1)[0]
    return set(re.findall(r"`(\w+)`", bullets))


def test_package_root_exports_exactly_the_readme_list():
    # The root loads its names on first access, so vars() cannot list them:
    # __all__ is the list, and every name on it must resolve.
    documented = _root_export_list()
    assert {"RationalMatrix", "rho", "WeyrConsistencyError"} <= documented
    assert len(jordankron.__all__) == len(set(jordankron.__all__))
    assert set(jordankron.__all__) == documented
    for name in jordankron.__all__:
        assert not isinstance(getattr(jordankron, name), types.ModuleType), name
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(jordankron, "no_such_name")


def test_module_qualified_names_in_readme_resolve():
    cited = set(re.findall(r"`jordankron\.(\w+)\.(\w+)", README))
    assert {
        ("toeplitz", "rank_row"),
        ("toeplitz", "hankel_rank"),
        ("generic", "pair_prediction"),
        ("frechet", "pair_prediction"),
    } <= cited
    for module, name in cited:
        assert callable(getattr(importlib.import_module(f"jordankron.{module}"), name))
