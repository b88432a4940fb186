"""The public surface the README documents is the one the package has."""

import ast
import contextlib
import importlib
import io
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


def _run_readme_block(block: str):
    """Run a README python block statement by statement.  Returns, for each
    expression statement, its value and its comment: the text after ``#`` on
    its own lines and on the comment lines below it, joined by spaces; then
    what the block printed and its namespace."""
    lines = block.splitlines()
    body = ast.parse(block).body
    namespace, stated = {}, []
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for stmt, after in zip(body, [*body[1:], None]):
            end = after.lineno - 1 if after else len(lines)
            note = " ".join(line.split("#", 1)[1].strip()
                            for line in lines[stmt.lineno - 1:end] if "#" in line)
            if isinstance(stmt, ast.Expr):
                value = eval(compile(ast.Expression(stmt.value), "README", "eval"), namespace)
                stated.append((value, note))
            else:
                exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
    return stated, out.getvalue(), namespace


def test_readme_python_blocks_give_what_their_comments_state():
    from jordankron import PairBounds

    first, second = re.findall(r"```python\n(.*?)```", README, re.S)
    [(_, printed)], out, _ = _run_readme_block(first)
    assert out == printed + "\n" == "JordanStructure({0: [3, 3, 2, 2, 1, 1]})\n"

    [(sizes, sizes_note), (bounds, bounds_note)], out, namespace = _run_readme_block(second)
    assert out == ""
    assert sizes == (2, 1)
    assert sizes_note == f'{sizes!r}, branch "size-one-escape"'
    assert namespace["pair_prediction"](namespace["p"], 0, 1, 0, 3).branch == "size-one-escape"
    assert bounds == PairBounds(local_degree=2, max_block_size=3, count_lower=5, count_upper=6)
    assert bounds_note == repr(bounds)
