"""Every name a ``hubsim`` module imports is used in that module, unless
its import line carries ``# noqa: F401``.  That escape hatch is kept for
names ``perfbench/layertrace.py`` rebinds in the importing module, and for
no other.  ``__init__.py`` re-exports by design and is skipped.

Every module-level ``_private`` function, class or constant of ``hubsim``,
and every ``_private`` method of its module-level classes, is referred to
somewhere in the package outside its own definition: code the package
never calls is deleted, not kept for tests."""

import ast
import importlib
from pathlib import Path

import pytest

import hubsim

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hubsim"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def imported_names(source: str) -> list[tuple[str, int, bool]]:
    """(name, line, whether the import carries ``# noqa: F401``) for every
    name the source imports, ``__future__`` aside."""
    lines = source.splitlines()
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        span = lines[node.lineno - 1:node.end_lineno]
        kept = any("# noqa: F401" in line for line in span)
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            out.append((name, node.lineno, kept))
    return out


def unused_imports(source: str) -> list[str]:
    imported = {name: line for name, line, kept in imported_names(source)
                if not kept}
    used = {node.id for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_found():
    source = ("import math\nimport os  # noqa: F401\n"
              "from json import dumps, loads\nprint(math.pi, dumps)\n")
    assert unused_imports(source) == ["line 3: loads"]


def test_kept_imports_are_rebound_by_the_layer_tracer(monkeypatch):
    # a name kept under noqa must be one the tracer rebinds in that very
    # module; once the tracer is retargeted the import has to go
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    layertrace = importlib.import_module("layertrace")
    rebound = {(getattr(owner, "__name__", ""), attr)
               for owner, attr, _, _ in layertrace._targets(hubsim)}
    kept = {(f"hubsim.{path.stem}", name) for path in MODULES
            for name, _, noqa in imported_names(path.read_text(
                encoding="utf-8")) if noqa}
    assert kept and kept <= rebound, kept - rebound


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def unreferenced_privates(sources: dict[str, str]) -> list[str]:
    """``module.name`` of every module-level ``_private`` function, class
    or constant, and ``module.Class.name`` of every ``_private`` method of
    a module-level class, in ``sources`` (module name -> source) that no
    code there refers to outside its own definition.  A method is referred
    to by its attribute name, whatever the object.  Dunders are exempt, and
    imports are not references."""
    defined, references = [], []
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                defined += [(module, f"{node.name}.{item.name}", item.name,
                             item.lineno, item.end_lineno)
                            for item in node.body
                            if isinstance(item, (ast.FunctionDef,
                                                 ast.AsyncFunctionDef))
                            and _private(item.name)]
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) \
                    and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            defined += [(module, name, name, node.lineno, node.end_lineno)
                        for name in names if _private(name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                references.append((module, node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                references.append((module, node.attr, node.lineno))
    return [f"{module}.{qualified}"
            for module, qualified, name, first, last in defined
            if not any(ref == name and not (where == module
                                            and first <= line <= last)
                       for where, ref, line in references)]


def test_every_private_definition_is_referenced():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in SRC.glob("*.py")}
    assert unreferenced_privates(sources) == []


def test_unreferenced_private_is_found():
    sources = {
        "a": ("def _recursive(n):\n    return _recursive(n - 1)\n\n\n"
              "class _Called:\n    pass\n\n\n_LIMIT = 3\n"
              "_USED: int = 4\n__all__ = []\n"),
        "b": "from a import _LIMIT, _Called\nimport a\n"
             "print(_Called(), a._USED)\n",
        "c": ("class Shape:\n    def __init__(self):\n"
              "        self._area()\n\n"
              "    def _area(self):\n        return 0\n\n"
              "    def _unused(self):\n        return self._unused()\n"),
    }
    assert unreferenced_privates(sources) == [
        "a._recursive", "a._LIMIT", "c.Shape._unused"]
