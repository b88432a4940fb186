"""A process loads only what its command runs.

Each check starts a fresh interpreter, since this one has already imported
every module of the package.
"""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
import typing
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs the argvs given as JSON through ``cli.main`` in a fresh interpreter
# and prints, after ``import jordankron`` and after each run, the loaded
# ``jordankron`` modules, with those of the standard library modules named
# in the second argument, and whether dataclasses or inspect is loaded.
_LOADED_AFTER = """
import contextlib, io, json, sys

also = set(json.loads(sys.argv[2]))

def loaded():
    mods = sorted(m for m in sys.modules if m.split(".")[0] == "jordankron" or m in also)
    return [mods, "dataclasses" in sys.modules, "inspect" in sys.modules]

import jordankron
steps = [loaded()]
from jordankron import cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    steps.append([code, *loaded()])
print(json.dumps(steps))
"""


def _fresh_json(script, *args):
    """What the script prints as JSON, run in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout)


def _loaded_after(*argvs, stdlib=()):
    return _fresh_json(_LOADED_AFTER, json.dumps(argvs), json.dumps(stdlib))


def test_importing_the_package_loads_no_submodule():
    [(modules, has_dataclasses, has_inspect)] = _loaded_after()
    assert modules == ["jordankron"]
    assert not has_dataclasses and not has_inspect


def test_bounds_loads_only_the_cli_and_bounds():
    _, (code, modules, has_dataclasses, has_inspect) = _loaded_after(["bounds", "4", "4", "4"])
    assert code == 0
    assert modules == ["jordankron", "jordankron.bounds", "jordankron.cli"]
    assert not has_dataclasses and not has_inspect


def test_reduce_and_scan_load_no_predictor_or_oracle():
    scan = ["scan-ranks", "--m-max", "3", "--n-max", "3", "--d-max", "2", "--ell-max", "2"]
    steps = _loaded_after(["reduce", "--demo", "4", "3", "2"], scan)
    for code, modules, has_dataclasses, has_inspect in steps[1:]:
        assert code == 0
        assert not {"jordankron.oracle", "jordankron.generic", "jordankron.frechet"} & set(modules)
        assert not has_dataclasses and not has_inspect
    assert "jordankron.similarity" in steps[1][1]
    assert "jordankron.toeplitz" in steps[2][1]

    # Each command below runs in an interpreter of its own, since what one
    # command loads stays loaded for the next.  The predictors load nothing
    # of the oracle side, the generic one not the Toeplitz ranks either, and
    # the scanner no rational arithmetic at all.
    spec = '[{"eig":"0","size":2}]'
    for argv in (["predict", "--p", "0,1;1,0", "--W", spec],
                 ["frechet", "--f", "0,0,1", "--W", spec]):
        _, (code, modules, _, _) = _loaded_after(argv)
        assert code == 0
        assert not {"jordankron.bttb", "jordankron.oracle", "jordankron.exactmat"} & set(modules)
        assert ("jordankron.toeplitz" in modules) is (argv[0] == "frechet"), argv
    _, (code, modules, _, _) = _loaded_after(scan, stdlib=["decimal", "fractions"])
    assert code == 0
    assert not {"jordankron.polyring", "jordankron.exactmat", "decimal", "fractions"} & set(modules)
    assert _fresh_json(
        "import json, sys\n"
        "from jordankron import JordanSpec, JordanStructure\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('jordankron'))))"
    ) == ["jordankron", "jordankron.jordan", "jordankron.polyring"]


def test_no_module_of_the_package_imports_dataclasses():
    pattern = re.compile(r"^\s*(from|import)\s+dataclasses\b", re.MULTILINE)
    sources = sorted((SRC / "jordankron").glob("*.py"))
    assert sources
    assert [path.name for path in sources if pattern.search(path.read_text())] == []


def test_no_module_of_the_package_holds_an_assert():
    # Consistency checks are exceptions: python -O strips an assert.
    found = [(path.name, node.lineno)
             for path in sorted((SRC / "jordankron").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def _package_imports(stem):
    """The modules of the package that a module imports, anywhere in it."""
    found = set()
    for node in ast.walk(ast.parse((SRC / "jordankron" / f"{stem}.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            path = (node.module or "").split(".")
            if not node.level:
                if path[0] != "jordankron":
                    continue
                path = path[1:]
            found.update(path[:1] if path and path[0] else (a.name for a in node.names))
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names
                         if a.name.startswith("jordankron."))
    return found


def test_the_oracle_and_its_builders_share_no_code_with_the_predictors():
    # The oracle checks the predictors only while the two routes stay
    # apart: neither it nor the builders and matrices it reads may import a
    # predictor module or name the Hasse table machinery the predictors
    # read, and no predictor may import the oracle side.  What both routes
    # share, polyring and the Jordan data of jordan, imports no more.
    modules = {"generic", "frechet", "toeplitz", "bounds"}
    names = {"hasse_value_table", "_taylor_shift", "table_local_degree"}
    for source in ("oracle.py", "bttb.py", "exactmat.py"):
        tree = ast.parse((SRC / "jordankron" / source).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                assert not modules & set((node.module or "").split(".")), source
                assert not (modules | names) & {a.name for a in node.names}, source
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    assert not modules & set(alias.name.split(".")), source
            elif isinstance(node, ast.Name):
                assert node.id not in names, source
            elif isinstance(node, ast.Attribute):
                assert node.attr not in names, source
    for stem in ("generic", "frechet", "toeplitz", "bounds", "polyring", "jordan"):
        assert not {"bttb", "oracle", "exactmat", "similarity"} & _package_imports(stem), stem
    assert _package_imports("jordan") == {"polyring"}


def _bound_and_used_names(tree):
    """The names a module's imports bind, by line, and every name it reads:
    loads, the roots of dotted names, names inside string annotations and
    the strings of ``__all__``."""
    bound, used = {}, set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
    for note in annotations:
        if isinstance(note, ast.Constant) and isinstance(note.value, str):
            used.update(n.id for n in ast.walk(ast.parse(note.value, mode="eval"))
                        if isinstance(n, ast.Name))
    return bound, used


def test_no_module_of_the_package_imports_a_name_it_never_uses():
    # No linter runs here, so this is the unused-import check: every name
    # an import binds, at module level or in a function, is read somewhere
    # in the module.
    unused = []
    for path in sorted((SRC / "jordankron").glob("*.py")):
        bound, used = _bound_and_used_names(ast.parse(path.read_text()))
        unused.extend(f"{path.name}:{line} {name}"
                      for name, line in bound.items() if name not in used)
    assert unused == []


def test_the_unused_import_check_sees_what_it_must():
    bound, used = _bound_and_used_names(ast.parse(
        "from __future__ import annotations\n"
        "import os.path, re as regex\n"
        "from typing import Mapping, Sequence\n"
        "from .x import a, b as c, d\n"
        "__all__ = ['d']\n"
        "def f(v: 'Mapping[int, int] | None') -> int:\n"
        "    import json\n"
        "    return os.path.join(a)\n"
    ))
    assert set(bound) == {"os", "regex", "Mapping", "Sequence", "a", "c", "d", "json"}
    assert {name for name in bound if name not in used} == {"regex", "Sequence", "c", "json"}


def _functions_and_classes(module):
    """Every function and class defined in the module, and every method,
    classmethod, staticmethod and property accessor of those classes."""
    found = []
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if isinstance(obj, type):
            found.append(obj)
            for attr in vars(obj).values():
                if isinstance(attr, (classmethod, staticmethod)):
                    attr = attr.__func__
                if isinstance(attr, property):
                    found.extend(a for a in (attr.fget, attr.fset) if a is not None)
                elif callable(attr):
                    found.append(attr)
        elif callable(obj):
            found.append(obj)
    return found


def test_every_annotation_in_the_package_names_what_its_module_binds():
    # Annotations are strings under ``from __future__ import annotations``,
    # so nothing evaluates them at import.  get_type_hints does, in the
    # module's namespace, and raises NameError on a name imported only
    # inside a function.
    unresolved = []
    for path in sorted((SRC / "jordankron").glob("*.py")):
        name = "jordankron" + ("" if path.stem == "__init__" else "." + path.stem)
        objs = _functions_and_classes(importlib.import_module(name))
        assert objs, name
        for obj in objs:
            try:
                typing.get_type_hints(obj)
            except Exception as exc:
                unresolved.append(f"{name}.{obj.__qualname__}: {exc!r}")
    assert unresolved == []
